#include <gtest/gtest.h>

#include "freetree/free_tree.h"
#include "freetree/free_tree_mining.h"
#include "free_tree_shapes.h"
#include "gen/uniform_generator.h"
#include "test_util.h"
#include "util/rng.h"

namespace cousins {
namespace {

using testing_util::MustParse;

/// The Fig. 11-style example: a path a - b - c - d with a side leaf.
Result<FreeTree> PathWithLeaf() {
  auto labels = std::make_shared<LabelTable>();
  std::vector<LabelId> node_labels = {
      labels->Intern("a"), labels->Intern("b"), labels->Intern("c"),
      labels->Intern("d"), labels->Intern("e")};
  // a-b, b-c, c-d, b-e.
  return FreeTree::Create(node_labels, {{0, 1}, {1, 2}, {2, 3}, {1, 4}},
                          labels);
}

int64_t Occ(const FreeTree& g, const std::vector<CousinPairItem>& items,
            const std::string& a, const std::string& b, int twice_d) {
  LabelId la = g.labels().Find(a);
  LabelId lb = g.labels().Find(b);
  if (la > lb) std::swap(la, lb);
  for (const CousinPairItem& item : items) {
    if (item.label1 == la && item.label2 == lb &&
        item.twice_distance == twice_d) {
      return item.occurrences;
    }
  }
  return 0;
}

TEST(FreeTreeTest, CreateValidatesEdgeCount) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<LabelId> two = {labels->Intern("a"), labels->Intern("b")};
  EXPECT_FALSE(FreeTree::Create(two, {}, labels).ok());
  EXPECT_FALSE(
      FreeTree::Create(two, {{0, 1}, {0, 1}}, labels).ok());
  EXPECT_TRUE(FreeTree::Create(two, {{0, 1}}, labels).ok());
}

TEST(FreeTreeTest, CreateValidatesConnectivity) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<LabelId> four(4, kNoLabel);
  // 4 nodes, 3 edges, but one edge duplicated => disconnected.
  EXPECT_FALSE(
      FreeTree::Create(four, {{0, 1}, {0, 1}, {2, 3}}, labels).ok());
}

TEST(FreeTreeTest, CreateValidatesEndpoints) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<LabelId> two = {kNoLabel, kNoLabel};
  EXPECT_FALSE(FreeTree::Create(two, {{0, 2}}, labels).ok());
  EXPECT_FALSE(FreeTree::Create(two, {{0, 0}}, labels).ok());
  EXPECT_FALSE(FreeTree::Create({}, {}, labels).ok());
}

TEST(FreeTreeTest, FromRootedTreePreservesStructure) {
  Tree t = MustParse("((x,y)a,z)r;");
  FreeTree g = FreeTree::FromRootedTree(t);
  EXPECT_EQ(g.size(), t.size());
  EXPECT_EQ(g.edge_count(), t.size() - 1);
  // Root has degree 2 (child a, child z); a has degree 3.
  EXPECT_EQ(g.neighbors(0).size(), 2u);
}

TEST(FreeTreeTest, RootAtEdgeShape) {
  Result<FreeTree> g = PathWithLeaf();
  ASSERT_TRUE(g.ok());
  for (int32_t e = 0; e < g->edge_count(); ++e) {
    FreeTree::Rooted rooted = g->RootAtEdge(e);
    EXPECT_EQ(rooted.tree.size(), g->size() + 1);
    EXPECT_FALSE(rooted.tree.has_label(rooted.tree.root()));
    EXPECT_EQ(rooted.tree.children(rooted.tree.root()).size(), 2u);
    EXPECT_EQ(rooted.orig_id[rooted.tree.root()], -1);
    // Every free-tree node appears exactly once.
    std::vector<int> seen(g->size(), 0);
    for (NodeId v = 0; v < rooted.tree.size(); ++v) {
      if (rooted.orig_id[v] >= 0) ++seen[rooted.orig_id[v]];
      // Labels must match the mapped free-tree node.
      if (rooted.orig_id[v] >= 0) {
        EXPECT_EQ(rooted.tree.label(v), g->label(rooted.orig_id[v]));
      }
    }
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(FreeTreeMiningTest, PathDistances) {
  // Path a-b-c-d plus leaf e on b. Eq. (7): d = (#edges - 2) / 2.
  Result<FreeTree> g = PathWithLeaf();
  ASSERT_TRUE(g.ok());
  MiningOptions opt;
  opt.twice_maxdist = 4;
  auto items = MineFreeTreeBfs(*g, opt);
  // 2 edges apart: distance 0.
  EXPECT_EQ(Occ(*g, items, "a", "c", 0), 1);
  EXPECT_EQ(Occ(*g, items, "a", "e", 0), 1);
  EXPECT_EQ(Occ(*g, items, "c", "e", 0), 1);
  // 3 edges: 0.5.
  EXPECT_EQ(Occ(*g, items, "a", "d", 1), 1);
  EXPECT_EQ(Occ(*g, items, "d", "e", 1), 1);
  // Adjacent nodes are never cousins.
  EXPECT_EQ(Occ(*g, items, "a", "b", 0), 0);
  for (const CousinPairItem& item : items) {
    EXPECT_GE(item.twice_distance, 0);
  }
}

TEST(FreeTreeMiningTest, RootedAlgorithmMatchesBfs) {
  Result<FreeTree> g = PathWithLeaf();
  ASSERT_TRUE(g.ok());
  MiningOptions opt;
  opt.twice_maxdist = 6;
  auto bfs = MineFreeTreeBfs(*g, opt);
  for (int32_t e = 0; e < g->edge_count(); ++e) {
    EXPECT_EQ(MineFreeTree(*g, opt, e), bfs) << "rooted at edge " << e;
  }
}

TEST(FreeTreeMiningTest, SingleNodeAndSingleEdge) {
  auto labels = std::make_shared<LabelTable>();
  FreeTree one =
      FreeTree::Create({labels->Intern("a")}, {}, labels).value();
  EXPECT_TRUE(MineFreeTree(one).empty());
  EXPECT_TRUE(MineFreeTreeBfs(one).empty());
  FreeTree two = FreeTree::Create({labels->Intern("a"),
                                   labels->Intern("b")},
                                  {{0, 1}}, labels)
                     .value();
  // Two adjacent nodes: no cousin pairs.
  EXPECT_TRUE(MineFreeTree(two).empty());
  EXPECT_TRUE(MineFreeTreeBfs(two).empty());
}

// §6 as written — subdivide an edge (Fig. 11), sweep (up, down) level
// combinations, Eq. (10) at the root — against the BFS oracle over the
// shape and option grid under both SIMD tiers, for every root edge.
// The two large shapes (a 520-leaf star, a 2,200-node tree) take every
// k-th edge with about eight edges each: a root edge costs them a full
// mining run, and their edges differ only in where the root falls.
TEST(FreeTreeMiningTest, EveryRootEdgeMatchesBfsOracle) {
  testing_util::SimdModeGuard guard;
  for (const testing_util::NamedTree& shape :
       testing_util::FreeTreeShapes()) {
    const FreeTree g = FreeTree::FromRootedTree(shape.tree);
    const int32_t stride = g.edge_count() > 200 ? g.edge_count() / 7 : 1;
    for (int twice_maxdist : testing_util::kFreeTwiceMaxdists) {
      for (int64_t min_occur : {1, 2}) {
        MiningOptions mopt;
        mopt.twice_maxdist = twice_maxdist;
        mopt.min_occur = min_occur;
        const std::vector<CousinPairItem> oracle = MineFreeTreeBfs(g, mopt);
        for (SimdMode mode : testing_util::kFreeSimdModes) {
          SetSimdMode(mode);
          if (g.edge_count() == 0) {
            EXPECT_EQ(MineFreeTree(g, mopt), oracle) << shape.name;
          }
          for (int32_t e = 0; e < g.edge_count(); e += stride) {
            EXPECT_EQ(MineFreeTree(g, mopt, e), oracle)
                << shape.name << " edge " << e << " twice_maxdist "
                << twice_maxdist << " min_occur " << min_occur << " mode "
                << SimdModeName(mode);
          }
        }
      }
    }
  }
}

class FreeTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FreeTreeProperty, RootEdgeChoiceIsIrrelevant) {
  Rng rng(GetParam());
  UniformTreeOptions opts;
  opts.tree_size = 40;
  opts.alphabet_size = 6;
  Tree t = GenerateUniformTree(opts, rng);
  FreeTree g = FreeTree::FromRootedTree(t);
  MiningOptions mining;
  mining.twice_maxdist = 4;
  auto reference = MineFreeTreeBfs(g, mining);
  for (int32_t e = 0; e < g.edge_count(); e += 3) {
    EXPECT_EQ(MineFreeTree(g, mining, e), reference)
        << "seed=" << GetParam() << " edge=" << e;
  }
}

TEST_P(FreeTreeProperty, MinOccurConsistent) {
  Rng rng(GetParam() + 77);
  UniformTreeOptions opts;
  opts.tree_size = 35;
  opts.alphabet_size = 4;
  Tree t = GenerateUniformTree(opts, rng);
  FreeTree g = FreeTree::FromRootedTree(t);
  MiningOptions strict;
  strict.twice_maxdist = 4;
  strict.min_occur = 3;
  MiningOptions loose = strict;
  loose.min_occur = 1;
  auto all = MineFreeTreeBfs(g, loose);
  auto filtered = MineFreeTreeBfs(g, strict);
  std::vector<CousinPairItem> expected;
  for (const CousinPairItem& item : all) {
    if (item.occurrences >= 3) expected.push_back(item);
  }
  EXPECT_EQ(filtered, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreeTreeProperty,
                         ::testing::Range<uint64_t>(0, 10));


TEST(MultipleFreeTreesTest, SupportCountsAcrossGraphs) {
  auto labels = std::make_shared<LabelTable>();
  // Three free trees; (a, c) at 2 edges (distance 0) in two of them.
  auto mk = [&](const char* newick) {
    return FreeTree::FromRootedTree(MustParse(newick, labels));
  };
  std::vector<FreeTree> graphs = {mk("((a)b,c)x;"), mk("(a,c)y;"),
                                  mk("((a)m)n;")};
  // Graph 1: path a-b-x-c: a..c = 3 edges -> 0.5; x labeled: a-x 2 edges.
  // Graph 2: a-y-c: 2 edges -> distance 0.
  MultiTreeMiningOptions opt;
  opt.min_support = 1;
  auto mined = MineMultipleFreeTrees(graphs, opt);
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  bool found_half = false;
  for (const FrequentCousinPair& p : *mined) {
    if (p.label1 == std::min(labels->Find("a"), labels->Find("c")) &&
        p.label2 == std::max(labels->Find("a"), labels->Find("c"))) {
      if (p.twice_distance == 1) {
        EXPECT_EQ(p.support, 1);  // graph 1 only
        found_half = true;
      }
      if (p.twice_distance == 0) {
        EXPECT_EQ(p.support, 1);  // graph 2
      }
    }
  }
  EXPECT_TRUE(found_half);
}

TEST(MultipleFreeTreesTest, IgnoreDistanceMergesAcrossDistances) {
  auto labels = std::make_shared<LabelTable>();
  auto mk = [&](const char* newick) {
    return FreeTree::FromRootedTree(MustParse(newick, labels));
  };
  std::vector<FreeTree> graphs = {mk("((a)b,c)x;"), mk("(a,c)y;")};
  MultiTreeMiningOptions opt;
  opt.min_support = 2;
  opt.ignore_distance = true;
  auto mined = MineMultipleFreeTrees(graphs, opt);
  ASSERT_TRUE(mined.ok()) << mined.status().message();
  bool found = false;
  for (const FrequentCousinPair& p : *mined) {
    if (p.label1 == std::min(labels->Find("a"), labels->Find("c")) &&
        p.label2 == std::max(labels->Find("a"), labels->Find("c")) &&
        p.twice_distance == kAnyDistance) {
      EXPECT_EQ(p.support, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Regression: graphs over different label tables used to abort the
// process via COUSINS_CHECK; the pipeline surfaces kInvalidArgument.
TEST(MultipleFreeTreesTest, MixedLabelTablesIsInvalidArgumentNotAbort) {
  auto labels1 = std::make_shared<LabelTable>();
  auto labels2 = std::make_shared<LabelTable>();
  std::vector<FreeTree> graphs = {
      FreeTree::FromRootedTree(MustParse("(a,c)x;", labels1)),
      FreeTree::FromRootedTree(MustParse("(a,c)y;", labels2))};
  auto mined = MineMultipleFreeTrees(graphs);
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().code(), StatusCode::kInvalidArgument);
}

// ToRootedTree must preserve pairwise path lengths (unlike RootAtEdge,
// which subdivides an edge), so the pipeline's free-tree variant sees
// the same distances as the BFS reference on the original graph.
TEST(FreeTreeTest, ToRootedTreePreservesDistances) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 1234);
    UniformTreeOptions opts;
    opts.tree_size = 24;
    opts.alphabet_size = 3;
    Tree t = GenerateUniformTree(opts, rng);
    FreeTree g = FreeTree::FromRootedTree(t);
    Tree rerooted = g.ToRootedTree();
    MiningOptions mopt;
    mopt.twice_maxdist = 6;
    auto expected = MineFreeTreeBfs(g, mopt);
    auto actual = MineFreeTreeBfs(FreeTree::FromRootedTree(rerooted), mopt);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cousins
