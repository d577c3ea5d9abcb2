#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/single_tree_mining.h"
#include "gen/uniform_generator.h"
#include "gen/yule_generator.h"
#include "phylo/consensus.h"
#include "phylo/similarity.h"
#include "test_util.h"
#include "tree/builder.h"
#include "util/rng.h"

namespace cousins {
namespace {

using testing_util::MustParse;

TEST(SimilarityTest, SelfSimilarityCountsSharedPairs) {
  Tree t = MustParse("((A,B)x,(C,D)y)r;");
  MiningOptions opt;
  opt.twice_maxdist = 3;
  // Every shared pair contributes exactly 1 against itself.
  auto items = MineSingleTree(t, opt);
  std::set<std::pair<LabelId, LabelId>> label_pairs;
  for (const CousinPairItem& item : items) {
    label_pairs.insert({item.label1, item.label2});
  }
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(t, t, opt),
                   static_cast<double>(label_pairs.size()));
}

TEST(SimilarityTest, GeometricDecayWithDistanceGap) {
  auto labels = std::make_shared<LabelTable>();
  // In c1, (A, B) are siblings (d = 0); in t1 they are first cousins
  // (d = 1): |Δd| = 1 contributes 1/2.
  Tree c1 = MustParse("(A,B);", labels);
  Tree t1 = MustParse("((A)x,(B)y);", labels);
  MiningOptions opt;
  opt.twice_maxdist = 4;
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(c1, t1, opt), 0.5);
}

TEST(SimilarityTest, HalfDistanceGapDecaysBySqrt2) {
  auto labels = std::make_shared<LabelTable>();
  Tree c1 = MustParse("(A,B);", labels);          // d = 0
  Tree t1 = MustParse("((A)x,B);", labels);       // d = 0.5
  MiningOptions opt;
  opt.twice_maxdist = 4;
  EXPECT_NEAR(CousinSimilarityScore(c1, t1, opt), std::exp2(-0.5), 1e-12);
}

TEST(SimilarityTest, DisjointLabelSetsScoreZero) {
  auto labels = std::make_shared<LabelTable>();
  Tree a = MustParse("(A,B);", labels);
  Tree b = MustParse("(C,D);", labels);
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(a, b), 0.0);
}

TEST(SimilarityTest, PairsBeyondMaxdistExcluded) {
  auto labels = std::make_shared<LabelTable>();
  Tree a = MustParse("(A,B);", labels);
  // In b, A and B are second cousins (d = 2) — beyond maxdist 1.5, so
  // the pair is absent from b's item set and contributes nothing.
  Tree b = MustParse("(((A)p)q,((B)u)v)r;", labels);
  MiningOptions opt;  // default maxdist 1.5
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(a, b, opt), 0.0);
}

TEST(SimilarityTest, AverageOverOriginals) {
  auto labels = std::make_shared<LabelTable>();
  Tree consensus = MustParse("(A,B);", labels);
  std::vector<Tree> originals = {
      MustParse("(A,B);", labels),        // contributes 1
      MustParse("((A)x,(B)y);", labels),  // contributes 1/2
  };
  MiningOptions opt;
  opt.twice_maxdist = 4;
  EXPECT_DOUBLE_EQ(AverageSimilarityScore(consensus, originals, opt), 0.75);
}

TEST(SimilarityTest, MoreFaithfulConsensusScoresHigher) {
  auto labels = std::make_shared<LabelTable>();
  std::vector<Tree> originals = {
      MustParse("((A,B),(C,D));", labels),
      MustParse("((A,B),(C,D));", labels),
      MustParse("((A,B),C,D);", labels),
  };
  MiningOptions opt;
  opt.twice_maxdist = 3;
  Tree faithful = MustParse("((A,B),(C,D));", labels);
  Tree star = MustParse("(A,B,C,D);", labels);
  EXPECT_GT(AverageSimilarityScore(faithful, originals, opt),
            AverageSimilarityScore(star, originals, opt));
}

TEST(SimilarityTest, ItemVectorOverloadMatchesTreeOverload) {
  auto labels = std::make_shared<LabelTable>();
  Tree a = MustParse("((A,B)x,(C,D)y)r;", labels);
  Tree b = MustParse("((A,C)x,(B,D)y)r;", labels);
  MiningOptions opt;
  opt.twice_maxdist = 3;
  EXPECT_DOUBLE_EQ(
      CousinSimilarityScore(a, b, opt),
      CousinSimilarityScore(MineSingleTree(a, opt), MineSingleTree(b, opt)));
}

TEST(SimilarityTest, SymmetricInArguments) {
  auto labels = std::make_shared<LabelTable>();
  Tree a = MustParse("((A,B)x,(C,D)y)r;", labels);
  Tree b = MustParse("((A,C)x,(B,D)y)r;", labels);
  MiningOptions opt;
  opt.twice_maxdist = 4;
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(a, b, opt),
                   CousinSimilarityScore(b, a, opt));
}

TEST(SimilarityTest, RepeatedLabelsScoreTheMinimumDistances) {
  auto labels = std::make_shared<LabelTable>();
  // (A, B) occurs twice in each tree. In c: siblings (d = 0) under the
  // first child and first cousins (d = 1) under the second. In t:
  // aunt-niece (d = 0.5) and first cousins (d = 1). Every cross pair
  // is at d >= 1.5, past maxdist 1. Minimum distances 0 and 0.5 give
  // 2^-0.5; the shared d = 1 items must not add a second term.
  Tree c = MustParse("((A,B),((A),(B)));", labels);
  Tree t = MustParse("((A,(B)),((A),(B)));", labels);
  MiningOptions opt;
  opt.twice_maxdist = 2;
  const LabelId a = labels->Find("A");
  const LabelId b = labels->Find("B");
  ASSERT_LT(a, b);
  ASSERT_EQ(MineSingleTree(c, opt),
            (std::vector<CousinPairItem>{{a, b, 0, 1}, {a, b, 2, 1}}));
  ASSERT_EQ(MineSingleTree(t, opt),
            (std::vector<CousinPairItem>{{a, b, 1, 1}, {a, b, 2, 1}}));
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(c, t, opt), std::exp2(-0.5));
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(t, c, opt), std::exp2(-0.5));
}

TEST(SimilarityTest, ItemVectorsMergeRunsOfSeveralPairs) {
  // Runs of several distances interleave with pairs found on one side
  // only.
  const std::vector<CousinPairItem> c = {
      {0, 0, 2, 1}, {0, 1, 0, 3}, {0, 1, 3, 1}, {1, 2, 1, 1}, {2, 3, 0, 1}};
  const std::vector<CousinPairItem> t = {
      {0, 1, 2, 1}, {0, 1, 4, 2}, {0, 2, 0, 1}, {2, 3, 3, 1}, {2, 3, 5, 1},
      {4, 4, 0, 1}};
  // (0, 1): min 0 against min 2; (2, 3): min 0 against min 3.
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(c, t), 0.5 + std::exp2(-1.5));
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(t, c), 0.5 + std::exp2(-1.5));
  EXPECT_DOUBLE_EQ(CousinSimilarityScore(c, {}), 0.0);
}

/// The hash-map scorer the merge-join replaced, kept as its oracle:
/// each side's minimum distance per label pair, then one probe per
/// consensus pair.
double HashMapSimilarityScore(const std::vector<CousinPairItem>& consensus,
                              const std::vector<CousinPairItem>& original) {
  struct PairHash {
    size_t operator()(const std::pair<LabelId, LabelId>& p) const {
      return std::hash<int64_t>()(static_cast<int64_t>(p.first) << 32 |
                                  static_cast<uint32_t>(p.second));
    }
  };
  using MinDistances =
      std::unordered_map<std::pair<LabelId, LabelId>, int, PairHash>;
  auto min_distances = [](const std::vector<CousinPairItem>& items) {
    MinDistances out;
    for (const CousinPairItem& item : items) {
      auto [it, inserted] =
          out.try_emplace({item.label1, item.label2}, item.twice_distance);
      if (!inserted && item.twice_distance < it->second) {
        it->second = item.twice_distance;
      }
    }
    return out;
  };
  const MinDistances dist_c = min_distances(consensus);
  const MinDistances dist_t = min_distances(original);
  double score = 0.0;
  for (const auto& [pair, dc] : dist_c) {
    auto it = dist_t.find(pair);
    if (it == dist_t.end()) continue;
    score += std::exp2(-std::abs(dc - it->second) / 2.0);
  }
  return score;
}

/// A star over the leaf labels of `tree`: the least resolved consensus.
Tree StarOverLeaves(const Tree& tree) {
  TreeBuilder b(tree.labels_ptr());
  const NodeId root = b.AddRoot();
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.children(v).empty() && tree.has_label(v)) {
      b.AddChildWithLabelId(root, tree.label(v));
    }
  }
  return std::move(b).Build();
}

/// Random studies over one LabelTable: Yule trees over a small alphabet
/// (repeated leaf labels, unlabeled internal nodes), uniform trees with
/// some internal nodes labeled, and same-taxa coalescent trees with
/// their consensus trees. Each study pairs candidate consensus trees
/// with the originals they are scored against.
struct Study {
  std::vector<Tree> consensus;
  std::vector<Tree> originals;
};

std::vector<Study> RandomStudies(uint64_t seed,
                                 const std::shared_ptr<LabelTable>& labels) {
  Rng rng(seed);
  std::vector<Study> studies(3);
  YulePhylogenyOptions yule;
  yule.min_nodes = 20;
  yule.max_nodes = 70;
  yule.alphabet_size = 9;
  UniformTreeOptions uniform;
  uniform.tree_size = 40;
  uniform.alphabet_size = 12;
  uniform.labeled_fraction = 0.7;
  for (int i = 0; i < 5; ++i) {
    studies[0].originals.push_back(GenerateYulePhylogeny(yule, rng, labels));
    studies[1].originals.push_back(GenerateUniformTree(uniform, rng, labels));
  }
  const std::vector<std::string> taxa = MakeTaxa(14);
  for (int i = 0; i < 6; ++i) {
    studies[2].originals.push_back(RandomCoalescentTree(taxa, rng, labels));
  }
  for (int s = 0; s < 2; ++s) {
    studies[s].consensus.push_back(GenerateYulePhylogeny(yule, rng, labels));
    studies[s].consensus.push_back(GenerateUniformTree(uniform, rng, labels));
    studies[s].consensus.push_back(StarOverLeaves(studies[s].originals[0]));
  }
  for (ConsensusMethod method :
       {ConsensusMethod::kStrict, ConsensusMethod::kMajority,
        ConsensusMethod::kSemiStrict, ConsensusMethod::kAdams,
        ConsensusMethod::kNelson, ConsensusMethod::kGreedy}) {
    Result<Tree> consensus = ConsensusTree(studies[2].originals, method);
    if (consensus.ok()) studies[2].consensus.push_back(std::move(*consensus));
  }
  studies[2].consensus.push_back(StarOverLeaves(studies[2].originals[0]));
  return studies;
}

TEST(SimilarityTest, MergeJoinMatchesHashMapScorerOnRandomForests) {
  int scored = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto labels = std::make_shared<LabelTable>();
    for (const Study& study : RandomStudies(seed, labels)) {
      for (int twice_maxdist : {0, 1, 3, 5}) {
        MiningOptions opt;
        opt.twice_maxdist = twice_maxdist;
        for (const Tree& consensus : study.consensus) {
          const std::vector<CousinPairItem> c = MineSingleTree(consensus, opt);
          double oracle_total = 0.0;
          for (const Tree& original : study.originals) {
            const std::vector<CousinPairItem> t =
                MineSingleTree(original, opt);
            const double want = HashMapSimilarityScore(c, t);
            oracle_total += want;
            EXPECT_NEAR(CousinSimilarityScore(c, t), want,
                        1e-12 * std::max(1.0, want))
                << "seed " << seed << ", twice_maxdist " << twice_maxdist;
            ++scored;
          }
          const double average =
              AverageSimilarityScore(consensus, study.originals, opt);
          const double oracle_average =
              oracle_total / static_cast<double>(study.originals.size());
          EXPECT_NEAR(average, oracle_average,
                      1e-12 * std::max(1.0, oracle_average));
          Result<SimilarityRun> governed = AverageSimilarityScoreGoverned(
              consensus, study.originals, opt, MiningContext::Unlimited());
          ASSERT_TRUE(governed.ok());
          EXPECT_FALSE(governed->truncated);
          EXPECT_EQ(average, governed->average);
        }
      }
    }
  }
  EXPECT_GT(scored, 1000);
}

}  // namespace
}  // namespace cousins
