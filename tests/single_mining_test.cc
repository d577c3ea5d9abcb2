#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/naive_mining.h"
#include "core/paper_mining.h"
#include "core/single_tree_mining.h"
#include "gen/yule_generator.h"
#include "phylo/tree_distance.h"
#include "test_util.h"
#include "util/rng.h"

namespace cousins {
namespace {

using testing_util::ItemsToString;
using testing_util::MustParse;

/// Looks up the occurrence count of (a, b, d) in canonical items.
int64_t Occ(const Tree& t, const std::vector<CousinPairItem>& items,
            const std::string& a, const std::string& b, int twice_d) {
  LabelId la = t.labels().Find(a);
  LabelId lb = t.labels().Find(b);
  if (la > lb) std::swap(la, lb);
  for (const CousinPairItem& item : items) {
    if (item.label1 == la && item.label2 == lb &&
        item.twice_distance == twice_d) {
      return item.occurrences;
    }
  }
  return 0;
}

TEST(SingleTreeMiningTest, SiblingsOnly) {
  Tree t = MustParse("(a,b,c);");
  MiningOptions opt;
  opt.twice_maxdist = 0;
  auto items = MineSingleTree(t, opt);
  ASSERT_EQ(items.size(), 3u) << ItemsToString(t.labels(), items);
  EXPECT_EQ(Occ(t, items, "a", "b", 0), 1);
  EXPECT_EQ(Occ(t, items, "a", "c", 0), 1);
  EXPECT_EQ(Occ(t, items, "b", "c", 0), 1);
}

TEST(SingleTreeMiningTest, TableOneStyleItemTable) {
  // A small tree with repeated labels, as in the paper's Table 1
  // discussion: the pair (b, c) appears as siblings twice, so its item
  // is (b, c, 0, 2); (a, a) is a same-label cousin pair.
  Tree t = MustParse("((b,c)x,(b,c)y,(a,a)z)r;");
  MiningOptions opt;
  opt.twice_maxdist = 2;
  auto items = MineSingleTree(t, opt);
  EXPECT_EQ(Occ(t, items, "b", "c", 0), 2);  // within x and within y
  EXPECT_EQ(Occ(t, items, "a", "a", 0), 1);  // the two a-leaves
  EXPECT_EQ(Occ(t, items, "b", "c", 2), 2);  // cross x-y first cousins
  EXPECT_EQ(Occ(t, items, "b", "b", 2), 1);
  EXPECT_EQ(Occ(t, items, "c", "c", 2), 1);
  EXPECT_EQ(Occ(t, items, "a", "b", 2), 4);  // z's two a's vs both b's
  EXPECT_EQ(Occ(t, items, "x", "y", 0), 1);  // labeled internals pair too
}

TEST(SingleTreeMiningTest, AuntNieceCounts) {
  Tree t = MustParse("((u,v)p,w)r;");
  MiningOptions opt;
  opt.twice_maxdist = 1;
  auto items = MineSingleTree(t, opt);
  EXPECT_EQ(Occ(t, items, "u", "v", 0), 1);
  EXPECT_EQ(Occ(t, items, "p", "w", 0), 1);
  EXPECT_EQ(Occ(t, items, "u", "w", 1), 1);  // aunt-niece
  EXPECT_EQ(Occ(t, items, "v", "w", 1), 1);
  EXPECT_EQ(items.size(), 4u) << ItemsToString(t.labels(), items);
}

TEST(SingleTreeMiningTest, FamilyTreeDistances) {
  Tree t = testing_util::FamilyTree();
  MiningOptions opt;
  opt.twice_maxdist = 5;
  auto items = MineSingleTree(t, opt);
  EXPECT_EQ(Occ(t, items, "c", "s", 0), 1);
  EXPECT_EQ(Occ(t, items, "aunt", "c", 1), 1);
  EXPECT_EQ(Occ(t, items, "c", "e", 2), 1);
  EXPECT_EQ(Occ(t, items, "c", "g", 3), 1);
  EXPECT_EQ(Occ(t, items, "c", "h", 4), 1);
  EXPECT_EQ(Occ(t, items, "c", "f", 5), 1);
}

TEST(SingleTreeMiningTest, MaxdistCutsOff) {
  Tree t = testing_util::FamilyTree();
  MiningOptions opt;
  opt.twice_maxdist = 2;
  auto items = MineSingleTree(t, opt);
  EXPECT_EQ(Occ(t, items, "c", "e", 2), 1);
  EXPECT_EQ(Occ(t, items, "c", "g", 3), 0);
  for (const CousinPairItem& item : items) {
    EXPECT_LE(item.twice_distance, 2);
  }
}

TEST(SingleTreeMiningTest, MinOccurFilters) {
  Tree t = MustParse("((b,c)x,(b,c)y)r;");
  MiningOptions opt;
  opt.twice_maxdist = 2;
  opt.min_occur = 2;
  auto items = MineSingleTree(t, opt);
  for (const CousinPairItem& item : items) {
    EXPECT_GE(item.occurrences, 2);
  }
  EXPECT_EQ(Occ(t, items, "b", "c", 0), 2);
  EXPECT_EQ(Occ(t, items, "x", "y", 0), 0);  // occurs once; filtered
}

TEST(SingleTreeMiningTest, UnlabeledNodesNeverPair) {
  Tree t = MustParse("((a,b),(c));");  // unlabeled internals
  MiningOptions opt;
  opt.twice_maxdist = 4;
  auto items = MineSingleTree(t, opt);
  for (const CousinPairItem& item : items) {
    EXPECT_GE(item.label1, 0);
    EXPECT_GE(item.label2, 0);
  }
  EXPECT_EQ(Occ(t, items, "a", "b", 0), 1);
  EXPECT_EQ(Occ(t, items, "a", "c", 2), 1);
}

TEST(SingleTreeMiningTest, EmptyAndTinyTrees) {
  EXPECT_TRUE(MineSingleTree(Tree()).empty());
  EXPECT_TRUE(MineSingleTree(MustParse("a;")).empty());
  EXPECT_TRUE(MineSingleTree(MustParse("(a)b;")).empty());  // chain only
}

TEST(SingleTreeMiningTest, NegativeMaxdistYieldsNothing) {
  MiningOptions opt;
  opt.twice_maxdist = -1;
  EXPECT_TRUE(MineSingleTree(MustParse("(a,b);"), opt).empty());
}

TEST(SingleTreeMiningTest, SameLabelPairHalving) {
  // Five 'a' siblings: C(5,2) = 10 unordered pairs.
  Tree t = MustParse("(a,a,a,a,a);");
  MiningOptions opt;
  opt.twice_maxdist = 0;
  auto items = MineSingleTree(t, opt);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].occurrences, 10);
}

TEST(SingleTreeMiningTest, CrossSubtreeSameLabel) {
  // Two a's under x, three under y: cross pairs = 2*3 = 6 at d=1,
  // within-x pair = 1, within-y pairs = 3 at d=0.
  Tree t = MustParse("((a,a)x,(a,a,a)y)r;");
  MiningOptions opt;
  opt.twice_maxdist = 2;
  auto items = MineSingleTree(t, opt);
  EXPECT_EQ(Occ(t, items, "a", "a", 0), 4);
  EXPECT_EQ(Occ(t, items, "a", "a", 2), 6);
}

TEST(SingleTreeMiningTest, OutputIsCanonical) {
  Tree t = testing_util::FamilyTree();
  MiningOptions opt;
  opt.twice_maxdist = 5;
  auto items = MineSingleTree(t, opt);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_LE(items[i].label1, items[i].label2);
    if (i > 0) {
      EXPECT_LT(items[i - 1], items[i]);
    }
  }
}

TEST(SingleTreeMiningTest, DeepChainHasNoCousins) {
  // A pure path has no two nodes with a common ancestor and height >= 1
  // on both sides.
  Tree t = MustParse("((((e)d)c)b)a;");
  MiningOptions opt;
  opt.twice_maxdist = 10;
  EXPECT_TRUE(MineSingleTree(t, opt).empty());
}

TEST(SingleTreeMiningTest, PaperAndNaiveMinersAgreeOnExamples) {
  for (const char* newick :
       {"(a,b,c);", "((b,c)x,(b,c)y,(a,a)z)r;", "((u,v)p,w)r;",
        "((a,a)x,(a,a,a)y)r;", "((((e)d)c)b)a;", "(a,(b,(c,(d,(e,f)))));"}) {
    Tree t = MustParse(newick);
    for (int twice_maxdist : {0, 1, 2, 3, 4, 7}) {
      MiningOptions opt;
      opt.twice_maxdist = twice_maxdist;
      auto fast = MineSingleTree(t, opt);
      auto paper = MineSingleTreePaper(t, opt);
      auto naive = MineSingleTreeNaive(t, opt);
      EXPECT_EQ(fast, paper) << newick << " maxdist=" << twice_maxdist;
      EXPECT_EQ(fast, naive) << newick << " maxdist=" << twice_maxdist;
    }
  }
}

// The one-shot entry points mine on a per-thread scratch that outlives
// the call. These tests disturb that scratch and check that the next
// one-shot call still equals mining on a brand-new scratch.

/// Canonical items of `tree` mined on a scratch nothing has touched.
std::vector<CousinPairItem> FreshScratchItems(const Tree& tree,
                                              const MiningOptions& options) {
  internal::MiningScratch scratch;
  EXPECT_TRUE(internal::MineSingleTreeScratch(tree, options,
                                              MiningContext::Unlimited(),
                                              &scratch)
                  .ok());
  CanonicalizeItems(&scratch.items);
  return scratch.items;
}

Tree YuleTree(uint64_t seed, int32_t nodes, int32_t alphabet,
              std::shared_ptr<LabelTable> labels) {
  Rng rng(seed);
  YulePhylogenyOptions opts;
  opts.min_nodes = nodes;
  opts.max_nodes = nodes;
  opts.alphabet_size = alphabet;
  return GenerateYulePhylogeny(opts, rng, std::move(labels));
}

/// Small and large trees with repeated labels and unlabeled internal
/// nodes, mined after each disturbance.
std::vector<Tree> ProbeTrees(std::shared_ptr<LabelTable> labels) {
  std::vector<Tree> probes;
  probes.push_back(MustParse("((b,c)x,(b,c)y,(a,a)z)r;", labels));
  for (uint64_t seed = 0; seed < 3; ++seed) {
    probes.push_back(YuleTree(seed, 40 + 30 * static_cast<int32_t>(seed), 15,
                              labels));
  }
  probes.push_back(YuleTree(7, 1500, 300, labels));
  return probes;
}

void ExpectOneShotMatchesFreshScratch(const std::vector<Tree>& probes,
                                      const std::string& after) {
  for (int twice_maxdist : {1, 3, 4}) {
    MiningOptions opt;
    opt.twice_maxdist = twice_maxdist;
    for (size_t i = 0; i < probes.size(); ++i) {
      const std::vector<CousinPairItem> fresh =
          FreshScratchItems(probes[i], opt);
      EXPECT_EQ(MineSingleTree(probes[i], opt), fresh)
          << "after " << after << ", probe " << i
          << ", twice_maxdist=" << twice_maxdist;
      std::vector<CousinPairItem> unordered =
          MineSingleTreeUnordered(probes[i], opt);
      CanonicalizeItems(&unordered);
      EXPECT_EQ(unordered, fresh) << "after " << after << ", probe " << i;
    }
  }
}

/// Restores the auto dispatch mode when a test scope ends.
struct SimdModeGuard {
  ~SimdModeGuard() { SetSimdMode(SimdMode::kAuto); }
};

TEST(OneShotScratchTest, GovernedTripsLeaveNoResidue) {
  SimdModeGuard guard;
  auto labels = std::make_shared<LabelTable>();
  const Tree large = YuleTree(11, 4000, 400, labels);
  const std::vector<Tree> probes = ProbeTrees(labels);
  MiningOptions opt;
  opt.twice_maxdist = 4;
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAuto}) {
    SetSimdMode(mode);
    const std::string tier = SimdModeName(mode);

    MiningContext expired;
    expired.set_timeout(std::chrono::milliseconds(0));
    SingleTreeMiningRun tripped =
        MineSingleTreeGoverned(large, opt, expired);
    ASSERT_TRUE(tripped.truncated) << tier;
    EXPECT_EQ(tripped.termination.code(), StatusCode::kDeadlineExceeded);
    ExpectOneShotMatchesFreshScratch(probes, tier + " deadline trip");

    // An item cap trips at emit, with most accumulated cells still
    // un-drained.
    ResourceBudget budget;
    budget.max_items = 10;
    MiningContext capped;
    capped.set_budget(budget);
    tripped = MineSingleTreeGoverned(large, opt, capped);
    ASSERT_TRUE(tripped.truncated) << tier;
    EXPECT_EQ(tripped.termination.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(tripped.items.size(), 10u);
    ExpectOneShotMatchesFreshScratch(probes, tier + " item-cap trip");
    EXPECT_EQ(MineSingleTree(large, opt), FreshScratchItems(large, opt))
        << tier;
  }
}

TEST(OneShotScratchTest, HashFallbackTreeLeavesNoResidue) {
  auto labels = std::make_shared<LabelTable>();
  // A 1,000,000-taxon alphabet gives the tree more than 1,024 distinct
  // labels, past the dense tier's ceiling.
  const Tree wide = YuleTree(1024, 2200, 1000000, labels);
  int32_t distinct = 0;
  {
    std::vector<bool> seen(labels->size(), false);
    for (NodeId v = 0; v < wide.size(); ++v) {
      if (wide.has_label(v) && !seen[wide.label(v)]) {
        seen[wide.label(v)] = true;
        ++distinct;
      }
    }
  }
  ASSERT_GT(distinct, 1024);
  MiningOptions opt;
  opt.twice_maxdist = 3;
  EXPECT_EQ(MineSingleTree(wide, opt), FreshScratchItems(wide, opt));
  ExpectOneShotMatchesFreshScratch(ProbeTrees(labels), "hash fallback");
}

TEST(OneShotScratchTest, AnotherLabelTableLeavesNoResidue) {
  auto big_table = std::make_shared<LabelTable>();
  const Tree many_labels = YuleTree(5, 1800, 900, big_table);
  MiningOptions opt;
  opt.twice_maxdist = 3;
  EXPECT_EQ(MineSingleTree(many_labels, opt),
            FreshScratchItems(many_labels, opt));
  // The next table reuses the low label ids the first one assigned.
  ExpectOneShotMatchesFreshScratch(
      ProbeTrees(std::make_shared<LabelTable>()), "another label table");
  EXPECT_EQ(MineSingleTree(many_labels, opt),
            FreshScratchItems(many_labels, opt));
}

TEST(OneShotScratchTest, SimdModeSwitchLeavesNoResidue) {
  SimdModeGuard guard;
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> probes = ProbeTrees(labels);
  for (SimdMode mode : {SimdMode::kAuto, SimdMode::kScalar, SimdMode::kAvx2,
                        SimdMode::kAuto}) {
    SetSimdMode(mode);
    ExpectOneShotMatchesFreshScratch(
        probes, std::string("switch to ") + SimdModeName(mode));
  }
}

TEST(OneShotScratchTest, ConcurrentCallersMatchSequentialResults) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> trees = ProbeTrees(labels);
  trees.push_back(YuleTree(1024, 1600, 1000000, labels));  // hash path
  const MiningOptions opt;
  std::vector<std::vector<CousinPairItem>> items;
  std::vector<std::vector<CousinPairItem>> profiles;
  for (const Tree& tree : trees) {
    items.push_back(MineSingleTree(tree, opt));
    profiles.push_back(
        CousinProfile(tree, CousinItemAbstraction::kDistance, opt));
  }

  constexpr int kThreads = 4;
  constexpr int kPasses = 3;
  const size_t n = trees.size();
  std::vector<std::vector<std::vector<CousinPairItem>>> got_items(kThreads);
  std::vector<std::vector<std::vector<CousinPairItem>>> got_profiles(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at another tree, so the threads' scratches
      // hold different trees at any moment.
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t k = 0; k < n; ++k) {
          const Tree& tree = trees[(k + static_cast<size_t>(t)) % n];
          got_items[t].push_back(MineSingleTree(tree, opt));
          got_profiles[t].push_back(
              CousinProfile(tree, CousinItemAbstraction::kDistance, opt));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got_items[t].size(), kPasses * n);
    for (size_t call = 0; call < kPasses * n; ++call) {
      const size_t tree = (call % n + static_cast<size_t>(t)) % n;
      EXPECT_EQ(got_items[t][call], items[tree])
          << "thread " << t << ", call " << call;
      EXPECT_EQ(got_profiles[t][call], profiles[tree])
          << "thread " << t << ", call " << call;
    }
  }
}

}  // namespace
}  // namespace cousins
