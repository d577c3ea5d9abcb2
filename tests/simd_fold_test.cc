// Kernel-dispatch and SIMD fold-kernel tests: mode parsing and
// resolution, and the cross-tier identity contract — the scalar and
// AVX2 kernels must produce identical accumulator *layouts* (not just
// contents), because downstream item emission walks tables in slot
// order. The randomized property tests pit the tiers against each
// other over duplicate-label runs, saturation-boundary counts, and
// every vector-remainder tail length.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/mining_scratch.h"
#include "core/multi_tree_mining.h"
#include "core/pair_count_map.h"
#include "core/simd_fold.h"
#include "core/single_tree_mining.h"
#include "gen/fanout_generator.h"
#include "test_util.h"
#include "util/rng.h"

namespace cousins {
namespace {

using internal::ActiveKernels;
using internal::Avx2KernelsIfSupported;
using internal::FlatCounts;
using internal::FoldBuffer;
using internal::FoldKernels;
using internal::PackLabelPair;
using internal::PairCountMap;
using internal::ScalarKernels;

/// Restores the auto dispatch mode when a test scope ends, so a forced
/// mode never leaks into sibling tests.
struct SimdModeGuard {
  ~SimdModeGuard() { SetSimdMode(SimdMode::kAuto); }
};

/// The full observable state of an accumulator, in slot (ForEach)
/// order — equal vectors mean byte-identical table layouts.
std::vector<std::pair<uint64_t, int64_t>> Layout(const PairCountMap& m) {
  std::vector<std::pair<uint64_t, int64_t>> out;
  m.ForEach([&](uint64_t key, int64_t count) { out.push_back({key, count}); });
  return out;
}

TEST(SimdDispatchTest, ParsesModeNames) {
  SimdMode mode = SimdMode::kAvx2;
  EXPECT_TRUE(ParseSimdMode("auto", &mode));
  EXPECT_EQ(mode, SimdMode::kAuto);
  EXPECT_TRUE(ParseSimdMode("avx2", &mode));
  EXPECT_EQ(mode, SimdMode::kAvx2);
  EXPECT_TRUE(ParseSimdMode("scalar", &mode));
  EXPECT_EQ(mode, SimdMode::kScalar);
  EXPECT_FALSE(ParseSimdMode("", &mode));
  EXPECT_FALSE(ParseSimdMode("sse", &mode));
  EXPECT_FALSE(ParseSimdMode("AVX2", &mode));
}

TEST(SimdDispatchTest, NamesRoundTrip) {
  for (SimdMode mode :
       {SimdMode::kAuto, SimdMode::kAvx2, SimdMode::kScalar}) {
    SimdMode parsed = SimdMode::kAuto;
    EXPECT_TRUE(ParseSimdMode(SimdModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
}

TEST(SimdDispatchTest, ForcedScalarAlwaysResolvesScalar) {
  SimdModeGuard guard;
  SetSimdMode(SimdMode::kScalar);
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  EXPECT_EQ(ActiveKernels().tier, SimdTier::kScalar);
}

TEST(SimdDispatchTest, AutoMatchesCpuCapability) {
  SimdModeGuard guard;
  SetSimdMode(SimdMode::kAuto);
  EXPECT_EQ(ActiveSimdTier(),
            CpuSupportsAvx2() ? SimdTier::kAvx2 : SimdTier::kScalar);
}

TEST(SimdDispatchTest, ForcedAvx2FallsBackWhenUnsupported) {
  SimdModeGuard guard;
  SetSimdMode(SimdMode::kAvx2);
  // Supported: the forced tier runs. Unsupported: the library demotes
  // to scalar (with a one-time notice) instead of crashing.
  EXPECT_EQ(ActiveSimdTier(),
            CpuSupportsAvx2() ? SimdTier::kAvx2 : SimdTier::kScalar);
}

TEST(SimdDispatchTest, KernelTablesAreConsistent) {
  const FoldKernels& scalar = ScalarKernels();
  EXPECT_EQ(scalar.tier, SimdTier::kScalar);
  EXPECT_NE(scalar.add_product, nullptr);
  EXPECT_NE(scalar.normalize, nullptr);
  const FoldKernels* avx2 = Avx2KernelsIfSupported();
  EXPECT_EQ(avx2 != nullptr, CpuSupportsAvx2());
  if (avx2 != nullptr) {
    EXPECT_EQ(avx2->tier, SimdTier::kAvx2);
    EXPECT_NE(avx2->add_product, scalar.add_product);
  }
}

TEST(SimdDispatchTest, ScalarKernelCountsFallbacks) {
  FlatCounts a = {{1, 2}};
  FlatCounts b = {{2, 3}};
  PairCountMap acc;
  FoldBuffer buf;
  ScalarKernels().add_product(a, b, +1, &acc, &buf);
  EXPECT_EQ(buf.scalar_fallbacks, 1);
  EXPECT_EQ(buf.simd_batches, 0);
}

/// Random label multiset: labels drawn from a small alphabet (forcing
/// duplicate-label runs), counts from a mix of small values and
/// near-saturation magnitudes.
FlatCounts RandomCounts(Rng& rng, size_t size, int32_t alphabet,
                        bool huge_counts) {
  FlatCounts out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const auto label =
        static_cast<LabelId>(rng.Uniform(static_cast<uint64_t>(alphabet)));
    int64_t count;
    if (huge_counts && rng.Uniform(4) == 0) {
      // Large enough that a few products saturate the accumulator
      // (2^31 * 2^31 = 2^62; two of those overflow int64 and clamp),
      // small enough that a single product never overflows the
      // multiply itself.
      count = int64_t{1} << 31;
    } else {
      count = static_cast<int64_t>(rng.Uniform(16)) + 1;
    }
    out.push_back({label, count});
  }
  return out;
}

TEST(SimdFoldPropertyTest, AddProductMatchesScalarLayoutExactly) {
  const FoldKernels* avx2 = Avx2KernelsIfSupported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    // Sizes sweep the remainder tails 0–7 and past the 4-lane width;
    // occasional large b rows cross the flush threshold.
    const size_t na = rng.Uniform(12);
    size_t nb = rng.Uniform(12);
    if (round % 17 == 0) nb = 600;  // 8 rows x 600 > 4096: forces a flush
    const bool huge = round % 3 == 0;
    const FlatCounts a = RandomCounts(rng, na, 8, huge);
    const FlatCounts b = RandomCounts(rng, nb, 8, huge);
    const int64_t sign = rng.Uniform(2) == 0 ? 1 : -1;

    PairCountMap scalar_acc;
    PairCountMap avx2_acc;
    FoldBuffer scalar_buf;
    FoldBuffer avx2_buf;
    // Two passes per round so the second lands on a warm, partly
    // saturated table.
    for (int pass = 0; pass < 2; ++pass) {
      ScalarKernels().add_product(a, b, sign, &scalar_acc, &scalar_buf);
      avx2->add_product(a, b, sign, &avx2_acc, &avx2_buf);
    }
    ASSERT_EQ(Layout(scalar_acc), Layout(avx2_acc))
        << "round " << round << " na=" << na << " nb=" << nb;
    ASSERT_EQ(scalar_acc.size(), avx2_acc.size());
  }
}

TEST(SimdFoldPropertyTest, Avx2CountsBatchesAndFallbacks) {
  const FoldKernels* avx2 = Avx2KernelsIfSupported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this machine";
  FoldBuffer buf;
  PairCountMap acc;
  const FlatCounts a = {{1, 1}, {2, 1}};
  const FlatCounts wide = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}};
  avx2->add_product(a, wide, +1, &acc, &buf);
  EXPECT_EQ(buf.simd_batches, 2);  // two rows x one 4-lane batch
  EXPECT_EQ(buf.scalar_fallbacks, 0);
  const FlatCounts narrow = {{1, 1}, {2, 1}, {3, 1}};
  avx2->add_product(a, narrow, +1, &acc, &buf);  // nb < 4: scalar path
  EXPECT_EQ(buf.simd_batches, 2);
  EXPECT_EQ(buf.scalar_fallbacks, 1);
}

TEST(SimdFoldPropertyTest, NormalizeMatchesScalarOnRandomInputs) {
  const FoldKernels* avx2 = Avx2KernelsIfSupported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(424242);
  FoldBuffer buf;
  for (int round = 0; round < 300; ++round) {
    // Small sizes hit the insertion path and the tails; > 24 hits the
    // packed-sort path. A tiny alphabet forces long duplicate runs.
    const size_t n =
        round % 5 == 0 ? 25 + rng.Uniform(200) : rng.Uniform(12);
    const int32_t alphabet = 1 + static_cast<int32_t>(rng.Uniform(6));
    FlatCounts scalar_counts = RandomCounts(rng, n, alphabet, false);
    FlatCounts avx2_counts = scalar_counts;
    ScalarKernels().normalize(&scalar_counts, nullptr);
    avx2->normalize(&avx2_counts, &buf);
    ASSERT_EQ(scalar_counts, avx2_counts) << "round " << round;
  }
}

TEST(SimdFoldPropertyTest, NormalizeHandlesDegenerateSizes) {
  const FoldKernels* avx2 = Avx2KernelsIfSupported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 on this machine";
  FoldBuffer buf;
  FlatCounts empty;
  avx2->normalize(&empty, &buf);
  EXPECT_TRUE(empty.empty());
  FlatCounts one = {{7, 3}};
  avx2->normalize(&one, &buf);
  EXPECT_EQ(one, (FlatCounts{{7, 3}}));
  // All-equal labels collapse to a single summed entry.
  FlatCounts runs(40, {5, 2});
  avx2->normalize(&runs, &buf);
  EXPECT_EQ(runs, (FlatCounts{{5, 80}}));
}

TEST(SimdFoldPropertyTest, MinedItemsIdenticalAcrossTiers) {
  if (Avx2KernelsIfSupported() == nullptr) {
    GTEST_SKIP() << "no AVX2 on this machine";
  }
  SimdModeGuard guard;
  Rng rng(99);
  FanoutTreeOptions gen;
  gen.tree_size = 150;
  gen.fanout = 4;
  gen.alphabet_size = 30;
  MiningOptions options;
  options.twice_maxdist = 3;
  options.min_occur = 1;
  for (int round = 0; round < 10; ++round) {
    const Tree tree = GenerateFanoutTree(gen, rng);
    SetSimdMode(SimdMode::kScalar);
    const std::vector<CousinPairItem> scalar_items =
        MineSingleTree(tree, options);
    SetSimdMode(SimdMode::kAvx2);
    const std::vector<CousinPairItem> avx2_items =
        MineSingleTree(tree, options);
    ASSERT_EQ(scalar_items.size(), avx2_items.size()) << "round " << round;
    for (size_t i = 0; i < scalar_items.size(); ++i) {
      EXPECT_EQ(scalar_items[i].label1, avx2_items[i].label1);
      EXPECT_EQ(scalar_items[i].label2, avx2_items[i].label2);
      EXPECT_EQ(scalar_items[i].twice_distance,
                avx2_items[i].twice_distance);
      EXPECT_EQ(scalar_items[i].occurrences, avx2_items[i].occurrences);
    }
  }
}

/// Frequent pairs of a forest of two identical stars whose 520 leaves
/// carry distinct labels, mined under `mode`. The 134,940 sibling
/// pairs overflow the presized distance-0 tally mid-fold, so the fold
/// must survive a grow part-way through one tree's items.
std::vector<FrequentCousinPair> MineTwoStars(SimdMode mode) {
  std::string newick = "(";
  for (int i = 0; i < 520; ++i) {
    if (i > 0) newick += ",";
    newick += "leaf" + std::to_string(i);
  }
  newick += ");";
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> forest = {testing_util::MustParse(newick, labels),
                                    testing_util::MustParse(newick, labels)};
  MultiTreeMiningOptions options;
  options.per_tree.twice_maxdist = 3;
  options.per_tree.min_occur = 1;
  options.min_support = 2;
  SetSimdMode(mode);
  return MineMultipleTrees(forest, options);
}

TEST(SimdFoldPropertyTest, ForestFoldKeepsEveryTallyAcrossMidFoldGrow) {
  if (Avx2KernelsIfSupported() == nullptr) {
    GTEST_SKIP() << "no AVX2 on this machine";
  }
  SimdModeGuard guard;
  const std::vector<FrequentCousinPair> avx2 = MineTwoStars(SimdMode::kAvx2);
  const std::vector<FrequentCousinPair> scalar =
      MineTwoStars(SimdMode::kScalar);
  ASSERT_EQ(avx2.size(), size_t{520 * 519 / 2});
  for (const FrequentCousinPair& pair : avx2) {
    ASSERT_EQ(pair.support, 2);
    ASSERT_EQ(pair.twice_distance, 0);
    ASSERT_EQ(pair.total_occurrences, 2);
  }
  EXPECT_TRUE(avx2 == scalar) << "tiers disagree on the two-star forest";
}

}  // namespace
}  // namespace cousins
