// TallyMap unit tests plus the accumulator regression suite: the
// forest-wide tables must never grow reactively on a Table 3-shaped
// workload (label-cardinality presizing), and the reusable per-tree
// scratch must stop rehashing once warm (steady-state allocation-free
// mining).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/multi_tree_mining.h"
#include "core/pair_count_map.h"
#include "core/tally_map.h"
#include "gen/fanout_generator.h"
#include "tree/label_table.h"
#include "util/rng.h"

namespace cousins {
namespace {

using internal::PackLabelPair;
using internal::TallyMap;

TEST(TallyMap, DefaultConstructionAllocatesNothing) {
  TallyMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
}

TEST(TallyMap, AddInsertsAndAccumulates) {
  TallyMap map;
  EXPECT_TRUE(map.Add(42, 1, 10));
  EXPECT_FALSE(map.Add(42, 2, 5));
  EXPECT_TRUE(map.Add(7, 1, 1));
  EXPECT_EQ(map.size(), 2u);

  int32_t support_42 = 0;
  int64_t occ_42 = 0;
  int entries = 0;
  map.ForEach([&](uint64_t key, int32_t support, int64_t occ) {
    ++entries;
    if (key == 42) {
      support_42 = support;
      occ_42 = occ;
    }
  });
  EXPECT_EQ(entries, 2);
  EXPECT_EQ(support_42, 3);
  EXPECT_EQ(occ_42, 15);
}

TEST(TallyMap, GrowthPreservesEveryEntry) {
  TallyMap map;
  constexpr int kEntries = 10000;  // far past several doublings
  for (int i = 0; i < kEntries; ++i) {
    map.Add(PackLabelPair(i, i + 1), 1, i);
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kEntries));
  EXPECT_GT(map.stats().grows, 0);
  std::vector<bool> seen(kEntries, false);
  map.ForEach([&](uint64_t key, int32_t support, int64_t occ) {
    const auto i = static_cast<int>(internal::UnpackFirst(key));
    ASSERT_GE(i, 0);
    ASSERT_LT(i, kEntries);
    EXPECT_FALSE(seen[i]) << "duplicate key after rehash";
    seen[i] = true;
    EXPECT_EQ(support, 1);
    EXPECT_EQ(occ, i);
  });
  for (int i = 0; i < kEntries; ++i) EXPECT_TRUE(seen[i]) << i;
}

TEST(TallyMap, ReserveLivePreventsReactiveGrowth) {
  TallyMap map;
  constexpr int kEntries = 5000;
  map.ReserveLive(kEntries);
  const size_t presized = map.capacity();
  for (int i = 0; i < kEntries; ++i) {
    map.Add(PackLabelPair(i, i), 1, 1);
  }
  EXPECT_EQ(map.stats().grows, 0);
  EXPECT_EQ(map.capacity(), presized);
  // The promised load factor: live entries stay under 0.7 of capacity.
  EXPECT_LT(map.size() * 10, map.capacity() * 7);
}

TEST(TallyMap, ReserveLiveOnWarmTableKeepsEntries) {
  TallyMap map;
  for (int i = 0; i < 100; ++i) map.Add(PackLabelPair(i, i), 2, 3);
  const int64_t grows_before = map.stats().grows;
  map.ReserveLive(100000);
  EXPECT_EQ(map.stats().grows, grows_before) << "presize counted as grow";
  EXPECT_EQ(map.size(), 100u);
  int entries = 0;
  map.ForEach([&](uint64_t, int32_t support, int64_t occ) {
    ++entries;
    EXPECT_EQ(support, 2);
    EXPECT_EQ(occ, 3);
  });
  EXPECT_EQ(entries, 100);
}

TEST(TallyMap, SaturatesInsteadOfWrapping) {
  TallyMap map;
  map.Add(1, INT32_MAX, INT64_MAX);
  map.Add(1, 1, 1);
  map.ForEach([&](uint64_t, int32_t support, int64_t occ) {
    EXPECT_EQ(support, INT32_MAX);
    EXPECT_EQ(occ, INT64_MAX);
  });
}

TEST(TallyMap, SubtractToZeroHidesEntryAndShrinksLive) {
  TallyMap map;
  EXPECT_EQ(map.Add(42, 2, 10), 1);
  EXPECT_EQ(map.Add(7, 1, 1), 1);
  EXPECT_EQ(map.live(), 2u);
  // Partial subtraction: entry stays visible, no live change.
  EXPECT_EQ(map.Subtract(42, 1, 4), 0);
  int entries = 0;
  map.ForEach([&](uint64_t key, int32_t support, int64_t occ) {
    ++entries;
    if (key == 42) {
      EXPECT_EQ(support, 1);
      EXPECT_EQ(occ, 6);
    }
  });
  EXPECT_EQ(entries, 2);
  // Subtraction to zero-net: hidden from ForEach, live shrinks, the
  // slot itself stays occupied until the next rehash purges it.
  EXPECT_EQ(map.Subtract(42, 1, 6), -1);
  EXPECT_EQ(map.live(), 1u);
  EXPECT_EQ(map.size(), 2u);
  entries = 0;
  map.ForEach([&](uint64_t key, int32_t, int64_t) {
    ++entries;
    EXPECT_EQ(key, 7u);
  });
  EXPECT_EQ(entries, 1);
}

TEST(TallyMap, SubtractClampsAndIgnoresMissingKeys) {
  TallyMap map;
  map.Add(42, 1, 3);
  // Over-subtraction clamps at zero and reports the single transition.
  EXPECT_EQ(map.Subtract(42, 100, 100), -1);
  // Subtracting an already-dead entry is a no-op, not a second -1.
  EXPECT_EQ(map.Subtract(42, 1, 1), 0);
  // A key that was never added is a no-op (and must not insert).
  EXPECT_EQ(map.Subtract(999, 1, 1), 0);
  EXPECT_EQ(map.live(), 0u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(TallyMap, ReAddRevivesZeroNetEntry) {
  TallyMap map;
  map.Add(42, 1, 5);
  map.Subtract(42, 1, 5);
  EXPECT_EQ(map.live(), 0u);
  // Reviving a dead slot is a fresh insert from the caller's
  // perspective: counts restart, live grows back.
  EXPECT_EQ(map.Add(42, 3, 7), 1);
  EXPECT_EQ(map.live(), 1u);
  map.ForEach([&](uint64_t, int32_t support, int64_t occ) {
    EXPECT_EQ(support, 3);
    EXPECT_EQ(occ, 7);
  });
}

TEST(TallyMap, PurgeBeforeGrowDropsZeroNetSlots) {
  // An add/subtract churn workload must not balloon capacity: when the
  // occupied slots would trigger a grow but most are zero-net, the
  // rehash purges in place instead of doubling.
  TallyMap map;
  constexpr int kChurn = 20000;
  for (int i = 0; i < kChurn; ++i) {
    map.Add(PackLabelPair(i, i + 1), 1, 1);
    if (i >= 16) {
      // Keep a 16-entry live window; everything older goes zero-net.
      map.Subtract(PackLabelPair(i - 16, i - 15), 1, 1);
    }
  }
  EXPECT_EQ(map.live(), 16u);
  // Capacity stays bounded by the live set, not the churn volume
  // (kChurn entries at 0.7 load would need 32Ki slots without purging).
  EXPECT_LE(map.capacity(), 4096u);
  int entries = 0;
  map.ForEach([&](uint64_t, int32_t support, int64_t occ) {
    ++entries;
    EXPECT_EQ(support, 1);
    EXPECT_EQ(occ, 1);
  });
  EXPECT_EQ(entries, 16);
}

TEST(AuxTallyMap, SubtractMirrorsTallyMapSemantics) {
  internal::AuxTallyMap map;
  EXPECT_EQ(map.Add({42, 9}, 2, 10), 1);
  EXPECT_EQ(map.Subtract({42, 9}, 1, 4), 0);
  EXPECT_EQ(map.Subtract({42, 9}, 1, 6), -1);
  EXPECT_EQ(map.live(), 0u);
  int entries = 0;
  map.ForEach([&](internal::AuxKey, int32_t, int64_t) { ++entries; });
  EXPECT_EQ(entries, 0);
  // Distinct aux under the same key is a distinct entry.
  EXPECT_EQ(map.Add({42, 8}, 1, 1), 1);
  EXPECT_EQ(map.Subtract({42, 9}, 1, 1), 0) << "wrong aux must not match";
  EXPECT_EQ(map.live(), 1u);
}

/// Streams `num_trees` of a Table 3-shaped corpus (200-node fanout-5
/// trees over a 200-label alphabet — the Figure 6 workload) into the
/// miner; rng/labels carry across calls so the stream is one corpus.
void StreamFig6Forest(MultiTreeMiner* miner, int num_trees, Rng* rng,
                      const std::shared_ptr<LabelTable>& labels) {
  const FanoutTreeOptions gen;  // defaults are the Table 3 values
  for (int i = 0; i < num_trees; ++i) {
    miner->AddTree(GenerateFanoutTree(gen, *rng, labels));
  }
}

TEST(AccumulatorRegression, NoTallyGrowthOnFig6Workload) {
  // The 200-label alphabet bounds distinct pairs at 20,100 — well under
  // the presize cap — so EnsureTallyCapacity must make every reactive
  // grow unnecessary, however many trees stream through.
  MultiTreeMiner miner;
  Rng rng(6000);
  auto labels = std::make_shared<LabelTable>();
  StreamFig6Forest(&miner, 200, &rng, labels);
  const MultiTreeMiner::AccumulatorStats stats = miner.accumulator_stats();
  EXPECT_EQ(stats.tally_grows, 0)
      << "forest tally tables grew reactively despite presizing";
  EXPECT_GT(stats.tally_entries, 0);
}

TEST(AccumulatorRegression, ScratchRehashesStopOnceWarm) {
  // The per-tree scratch accumulators grow only while discovering the
  // workload's working-set size; identically-shaped trees afterwards
  // must mine allocation-free.
  MultiTreeMiner miner;
  Rng rng(6000);
  auto labels = std::make_shared<LabelTable>();
  StreamFig6Forest(&miner, 50, &rng, labels);
  const int64_t warm = miner.accumulator_stats().scratch_rehashes;
  StreamFig6Forest(&miner, 50, &rng, labels);  // 50 more, same shape
  EXPECT_EQ(miner.accumulator_stats().scratch_rehashes, warm)
      << "warm scratch kept rehashing on a steady-state workload";
}

TEST(LabelTable, HeterogeneousLookupFindsInternedNames) {
  LabelTable table;
  const LabelId id = table.Intern("Homo sapiens");
  // Probe with a string_view into a larger buffer — no std::string may
  // be required (and none is constructed by the transparent index).
  const std::string text = "xxHomo sapiensyy";
  const std::string_view probe(text.data() + 2, 12);
  EXPECT_EQ(table.Find(probe), id);
  EXPECT_EQ(table.Intern(probe), id) << "re-intern must dedupe";
  EXPECT_EQ(table.Find("Pan troglodytes"), kNoLabel);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LabelTable, ReserveKeepsIdsAndNamesStable) {
  LabelTable table;
  const LabelId a = table.Intern("a");
  table.Reserve(10000);
  EXPECT_EQ(table.Find("a"), a);
  EXPECT_EQ(table.Name(a), "a");
  const LabelId b = table.Intern("b");
  EXPECT_EQ(b, a + 1);
}

}  // namespace
}  // namespace cousins
