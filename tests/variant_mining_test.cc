// Unit tests of the unified-miner building blocks: saturating
// arithmetic boundaries, the (key, aux) AuxTallyMap, aux-word
// packing, and the per-tree variant folds against their reference
// implementations.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/generalized_mining.h"
#include "core/kernel_dispatch.h"
#include "core/single_tree_mining.h"
#include "core/tally_map.h"
#include "core/variant_mining.h"
#include "freetree/free_tree.h"
#include "freetree/free_tree_mining.h"
#include "free_tree_shapes.h"
#include "gen/uniform_generator.h"
#include "test_util.h"
#include "tree/builder.h"
#include "util/overflow.h"
#include "util/rng.h"

namespace cousins {
namespace {

using internal::MineGeneralizedScratch;
using internal::MineSingleTreeScratch;
using internal::AuxKey;
using internal::AuxTallyMap;
using internal::MiningScratch;
using internal::PackBucket;
using internal::PackHV;
using internal::SweepShape;
using internal::UnpackBucket;
using internal::UnpackH;
using internal::UnpackV;
using internal::VariantScratch;
using testing_util::FreeTreeShapes;
using testing_util::MustParse;
using testing_util::NamedTree;
using testing_util::SimdModeGuard;

/// The kFreeTree per-tree fold — the level sweep reading `tree` as a
/// free tree — through `scratch`, in canonical order.
std::vector<CousinPairItem> MineFreeSweep(const Tree& tree,
                                          const MiningOptions& options,
                                          MiningScratch* scratch) {
  EXPECT_TRUE(MineSingleTreeScratch(tree, options, MiningContext::Unlimited(),
                                    scratch, SweepShape::kFree)
                  .ok());
  std::vector<CousinPairItem> items = scratch->items;
  CanonicalizeItems(&items);
  return items;
}

constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();

TEST(OverflowTest, SaturatingSubBoundaries) {
  EXPECT_EQ(SaturatingSub(5, 3), 2);
  EXPECT_EQ(SaturatingSub(-5, -3), -2);
  EXPECT_EQ(SaturatingSub(kMin64, 1), kMin64);
  EXPECT_EQ(SaturatingSub(kMax64, -1), kMax64);
  EXPECT_EQ(SaturatingSub(0, kMin64), kMax64);
}

TEST(OverflowTest, SaturatingMulBoundaries) {
  EXPECT_EQ(SaturatingMul(6, 7), 42);
  EXPECT_EQ(SaturatingMul(-6, 7), -42);
  EXPECT_EQ(SaturatingMul(kMax64, 2), kMax64);
  EXPECT_EQ(SaturatingMul(kMin64, 2), kMin64);
  EXPECT_EQ(SaturatingMul(kMax64, -2), kMin64);
  EXPECT_EQ(SaturatingMul(kMin64, -1), kMax64);
  EXPECT_EQ(SaturatingMul(kMax64, 0), 0);
}

TEST(VariantPackingTest, HvRoundTrip) {
  for (int32_t h : {0, 1, 7, 0xFFFF}) {
    for (int32_t v : {0, 1, 255, 0xFFFF}) {
      const uint32_t aux = PackHV(h, v);
      EXPECT_EQ(UnpackH(aux), h);
      EXPECT_EQ(UnpackV(aux), v);
    }
  }
}

TEST(VariantPackingTest, BucketRoundTripIsBitExact) {
  for (int32_t bucket : {0, 1, -1, 12345, -12345,
                         std::numeric_limits<int32_t>::max(),
                         std::numeric_limits<int32_t>::min()}) {
    EXPECT_EQ(UnpackBucket(PackBucket(bucket)), bucket);
  }
}

TEST(AuxTallyMapTest, AuxWordSeparatesEntries) {
  AuxTallyMap map;
  EXPECT_TRUE(map.Add({42, 1}, 1, 10));
  EXPECT_TRUE(map.Add({42, 2}, 1, 20));   // same key, new aux: fresh
  EXPECT_FALSE(map.Add({42, 1}, 1, 5));   // existing composite: folded
  EXPECT_EQ(map.size(), 2u);
  int64_t occ_aux1 = 0, occ_aux2 = 0;
  int32_t sup_aux1 = 0;
  map.ForEach([&](AuxKey key, int32_t support, int64_t occurrences) {
    EXPECT_EQ(key.pair, 42u);
    if (key.aux == 1) {
      occ_aux1 = occurrences;
      sup_aux1 = support;
    } else {
      EXPECT_EQ(key.aux, 2u);
      occ_aux2 = occurrences;
    }
  });
  EXPECT_EQ(occ_aux1, 15);
  EXPECT_EQ(sup_aux1, 2);
  EXPECT_EQ(occ_aux2, 20);
}

TEST(AuxTallyMapTest, AddSaturates) {
  AuxTallyMap map;
  map.Add({7, 0}, std::numeric_limits<int32_t>::max(), kMax64);
  map.Add({7, 0}, 1, 1);
  map.ForEach([&](AuxKey, int32_t support, int64_t occurrences) {
    EXPECT_EQ(support, std::numeric_limits<int32_t>::max());
    EXPECT_EQ(occurrences, kMax64);
  });
}

TEST(AuxTallyMapTest, ClearKeepsCapacity) {
  AuxTallyMap map;
  for (uint64_t k = 0; k < 200; ++k) map.Add({k, 0}, 1, 1);
  const size_t capacity = map.capacity();
  EXPECT_GT(capacity, 64u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  // Refilling the same keys must not grow again.
  const int64_t grows = map.stats().grows;
  for (uint64_t k = 0; k < 200; ++k) map.Add({k, 0}, 1, 1);
  EXPECT_EQ(map.stats().grows, grows);
}

TEST(AuxTallyMapTest, GrowPreservesEntries) {
  AuxTallyMap map;
  for (uint64_t k = 0; k < 1000; ++k) {
    map.Add({k, static_cast<uint32_t>(k)}, 1, int64_t{2} * k);
  }
  EXPECT_EQ(map.size(), 1000u);
  size_t seen = 0;
  map.ForEach([&](AuxKey key, int32_t support, int64_t occurrences) {
    ++seen;
    EXPECT_EQ(key.aux, static_cast<uint32_t>(key.pair));
    EXPECT_EQ(support, 1);
    EXPECT_EQ(occurrences, static_cast<int64_t>(2 * key.pair));
  });
  EXPECT_EQ(seen, 1000u);
}

// The free-tree fold over a rooted tree must agree with the §6
// reference (path-length BFS over the explicit FreeTree) across random
// shapes — this is the contract that lets the forest pipeline run the
// free variant on rooted inputs directly.
TEST(FreeVariantTest, MatchesFreeTreeBfsReference) {
  UniformTreeOptions opts;
  opts.tree_size = 28;
  opts.alphabet_size = 4;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    Tree t = GenerateUniformTree(opts, rng);
    for (int twice_maxdist : {0, 3, 6}) {
      MiningOptions mopt;
      mopt.twice_maxdist = twice_maxdist;
      MiningScratch scratch;
      EXPECT_EQ(MineFreeSweep(t, mopt, &scratch),
                MineFreeTreeBfs(FreeTree::FromRootedTree(t), mopt))
          << "seed " << seed << " twice_maxdist " << twice_maxdist;
    }
  }
}

// MineFreeTree (the paper's root-at-an-edge reduction) must agree with
// the BFS reference whichever root edge is picked, and both with the
// pipeline fold — the three-way §6 equivalence.
TEST(FreeVariantTest, EveryRootEdgeAgreesWithTheFold) {
  UniformTreeOptions opts;
  opts.tree_size = 18;
  opts.alphabet_size = 3;
  Rng rng(99);
  Tree t = GenerateUniformTree(opts, rng);
  FreeTree g = FreeTree::FromRootedTree(t);
  MiningOptions mopt;
  mopt.twice_maxdist = 5;
  MiningScratch scratch;
  const std::vector<CousinPairItem> reference = MineFreeTreeBfs(g, mopt);
  EXPECT_EQ(MineFreeSweep(t, mopt, &scratch), reference);
  for (int32_t e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(MineFreeTree(g, mopt, e), reference) << "root edge " << e;
  }
}

// The kFreeTree fold against the BFS oracle over the whole shape and
// option grid, under the scalar (hash) and auto (dense where the labels
// fit) tiers, all through one warm scratch.
TEST(FreeSweepTest, MatchesBfsOracleAcrossShapesAndOptions) {
  SimdModeGuard guard;
  const std::vector<NamedTree> shapes = FreeTreeShapes();
  EXPECT_GT(testing_util::DistinctLabels(shapes.back().tree), 1024);
  MiningScratch scratch;
  for (const NamedTree& shape : shapes) {
    const FreeTree g = FreeTree::FromRootedTree(shape.tree);
    for (int twice_maxdist : testing_util::kFreeTwiceMaxdists) {
      for (int64_t min_occur : {1, 2}) {
        MiningOptions mopt;
        mopt.twice_maxdist = twice_maxdist;
        mopt.min_occur = min_occur;
        const std::vector<CousinPairItem> oracle = MineFreeTreeBfs(g, mopt);
        for (SimdMode mode : testing_util::kFreeSimdModes) {
          SetSimdMode(mode);
          EXPECT_EQ(MineFreeSweep(shape.tree, mopt, &scratch), oracle)
              << shape.name << " twice_maxdist " << twice_maxdist
              << " min_occur " << min_occur << " mode "
              << SimdModeName(mode);
        }
      }
    }
  }
}

// The fold mines the unordered tree: shuffling every node's children
// (which renumbers the nodes and reorders every level set) leaves the
// items unchanged.
TEST(FreeSweepTest, ChildOrderDoesNotChangeTheItems) {
  SimdModeGuard guard;
  Rng rng(7);
  MiningScratch scratch;
  for (const NamedTree& shape : FreeTreeShapes()) {
    const Tree shuffled = testing_util::ShuffleChildren(shape.tree, rng);
    for (int twice_maxdist : {0, 3, 8}) {
      MiningOptions mopt;
      mopt.twice_maxdist = twice_maxdist;
      for (SimdMode mode : testing_util::kFreeSimdModes) {
        SetSimdMode(mode);
        EXPECT_EQ(MineFreeSweep(shuffled, mopt, &scratch),
                  MineFreeSweep(shape.tree, mopt, &scratch))
            << shape.name << " twice_maxdist " << twice_maxdist << " mode "
            << SimdModeName(mode);
      }
    }
  }
}

// A governance trip partway through a free tree leaves un-emitted
// accumulator cells behind — under the dense tier, cells holding the
// +-2 off-diagonal contributions. The next tree through the same
// scratch (free, or rooted on the rebuilt plan) must still get exactly
// a fresh scratch's items.
TEST(FreeSweepTest, TripLeavesNoResidueForTheNextTree) {
  SimdModeGuard guard;
  auto labels = std::make_shared<LabelTable>();
  UniformTreeOptions opts;
  opts.tree_size = 300;
  opts.alphabet_size = 40;
  Rng rng(5);
  const Tree first = GenerateUniformTree(opts, rng, labels);
  const Tree second = GenerateUniformTree(opts, rng, labels);
  MiningOptions mopt;
  mopt.twice_maxdist = 5;
  for (SimdMode mode : testing_util::kFreeSimdModes) {
    SetSimdMode(mode);
    MiningScratch fresh;
    const std::vector<CousinPairItem> first_items =
        MineFreeSweep(first, mopt, &fresh);
    const std::vector<CousinPairItem> second_items =
        MineFreeSweep(second, mopt, &fresh);
    ASSERT_GT(first_items.size(), 100u);
    ResourceBudget item_cap;
    item_cap.max_items = static_cast<int64_t>(first_items.size() / 2);
    ResourceBudget entry_cap;
    entry_cap.max_pair_map_entries = 16;
    for (const ResourceBudget& budget : {item_cap, entry_cap}) {
      MiningContext context;
      context.set_budget(budget);
      MiningScratch scratch;
      EXPECT_EQ(MineSingleTreeScratch(first, mopt, context, &scratch,
                                      SweepShape::kFree)
                    .code(),
                StatusCode::kResourceExhausted);
      EXPECT_EQ(MineFreeSweep(second, mopt, &scratch), second_items)
          << SimdModeName(mode);
      ASSERT_EQ(MineSingleTreeScratch(first, mopt, context, &scratch,
                                      SweepShape::kFree)
                    .code(),
                StatusCode::kResourceExhausted);
      ASSERT_TRUE(MineSingleTreeScratch(second, mopt,
                                        MiningContext::Unlimited(), &scratch)
                      .ok());
      std::vector<CousinPairItem> rooted = scratch.items;
      CanonicalizeItems(&rooted);
      EXPECT_EQ(rooted, MineSingleTree(second, mopt)) << SimdModeName(mode);
      EXPECT_EQ(MineFreeSweep(first, mopt, &scratch), first_items)
          << SimdModeName(mode);
    }
  }
}

// Fast generalized miner vs the all-pairs oracle across random trees
// and cap combinations. The fast path now routes through the shared
// governed fold, so this also pins MineGeneralizedScratch.
TEST(GeneralizedVariantTest, FastMatchesNaiveSweep) {
  UniformTreeOptions opts;
  opts.tree_size = 24;
  opts.alphabet_size = 3;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    Tree t = GenerateUniformTree(opts, rng);
    for (auto [h, v] : {std::pair<int32_t, int32_t>{0, 0},
                        {1, 2},
                        {3, 1},
                        {4, 4}}) {
      GeneralizedMiningOptions gopt;
      gopt.max_horizontal = h;
      gopt.max_vertical = v;
      EXPECT_EQ(MineGeneralized(t, gopt), MineGeneralizedNaive(t, gopt))
          << "seed " << seed << " caps (" << h << ", " << v << ")";
    }
  }
}

TEST(GeneralizedVariantTest, ScratchFoldMatchesPublicEntryPoint) {
  Tree t = testing_util::FamilyTree();
  GeneralizedMiningOptions gopt;
  gopt.max_horizontal = 2;
  gopt.max_vertical = 2;
  MiningOptions mopt;
  mopt.min_occur = 1;
  GeneralizedVariantOptions caps;
  caps.max_horizontal = 2;
  caps.max_vertical = 2;
  VariantScratch scratch;
  ASSERT_TRUE(MineGeneralizedScratch(t, mopt, caps,
                                     MiningContext::Unlimited(), &scratch)
                  .ok());
  EXPECT_EQ(scratch.gen_items, MineGeneralized(t, gopt));
}

// Regression (was UB): cx*cy - same_child in the generalized counters
// used raw signed arithmetic. A single node with many identically
// labeled children drives cx*cy toward n² — with saturating math the
// counts stay clamped and finite instead of overflowing.
TEST(GeneralizedVariantTest, HighMultiplicityCountsStayFinite) {
  TreeBuilder b;
  NodeId root = b.AddRoot("r");
  for (int i = 0; i < 300; ++i) b.AddChild(root, "x");
  Tree t = std::move(b).Build();
  GeneralizedMiningOptions gopt;
  gopt.max_horizontal = 0;
  gopt.max_vertical = 0;
  auto items = MineGeneralized(t, gopt);
  ASSERT_EQ(items.size(), 1u);
  // C(300, 2) sibling pairs of (x, x): exact, no wraparound.
  EXPECT_EQ(items[0].occurrences, 300 * 299 / 2);
  EXPECT_EQ(items[0], MineGeneralizedNaive(t, gopt)[0]);
}

}  // namespace
}  // namespace cousins
