// Reusable per-shard scratch for the single-tree miner.
//
// Mining one tree needs a per-node level structure (label multisets at
// each relative depth), one pair accumulator per distance value, and an
// output item buffer. Allocating these per tree dominated the
// multi-tree hot path: a 200-node tree costs hundreds of small vector
// allocations that are immediately torn down again. A MiningScratch
// owns all of those buffers and is recycled across the forest — each
// worker shard (and each MultiTreeMiner) keeps exactly one, so in
// steady state AddTree performs no allocation at all: vectors are
// cleared (capacity kept) and the accumulators are wiped in place.
//
// The scratch is an implementation vehicle, not a results carrier: a
// fresh scratch and a warm one produce bit-identical items for the
// same (tree, options) input.

#ifndef COUSINS_CORE_MINING_SCRATCH_H_
#define COUSINS_CORE_MINING_SCRATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cousin_pair.h"
#include "core/pair_count_map.h"

namespace cousins {
namespace internal {

/// Label multiset at one relative depth, as a label-sorted flat vector —
/// cache-friendly for the cross-product loops, no hashing.
using FlatCounts = std::vector<std::pair<LabelId, int64_t>>;

/// Batch scratch + telemetry for the dispatched fold kernels
/// (simd_fold.h). Owned by the per-shard scratch structs and recycled
/// across trees, so steady-state vector mining allocates nothing. The
/// scalar kernels only touch the counters.
struct FoldBuffer {
  /// Sort-key scratch for the vector Normalize.
  std::vector<uint64_t> sort_keys;
  std::vector<std::pair<LabelId, int64_t>> tmp_counts;

  /// 4-at-a-time key-pack batches executed (accum.simd_batches).
  int64_t simd_batches = 0;
  /// Kernel invocations that fell back to the scalar loop — inputs too
  /// short for a vector batch, or a scalar-tier call
  /// (accum.scalar_fallbacks).
  int64_t scalar_fallbacks = 0;

  void ResetStats() {
    simd_batches = 0;
    scalar_fallbacks = 0;
  }
};

/// Flat per-tree accumulator for the dense vector-tier fold
/// (single_tree_mining.cc): after the per-tree labels are remapped to
/// dense ids in [0, L), cell [lo * L + hi] holds the running count of
/// the unordered dense pair (lo, hi) — a plain array store instead of
/// a hash probe. `dirty` records each cell index at first touch, so
/// emit and clear both walk only touched cells. Invariant between
/// runs: every cell is zero (emit zeroes cells as it drains them;
/// ResetScratch wipes the residue of truncated runs via `dirty`).
struct DensePairAccumulator {
  std::vector<int64_t> cells;
  std::vector<uint32_t> dirty;
};

/// How the level sweep reads the tree's edges.
enum class SweepShape : uint8_t {
  /// §3 cousin pairs: Eq. (1)-(3) level pairs at each exact LCA.
  kRooted,
  /// §6: the tree read as a free tree — every pair whose path has
  /// 2..twice_maxdist+2 edges, Eq. (7).
  kFree,
  /// kFree on a tree whose root subdivides an edge of the free tree
  /// (Fig. 11): paths through the root are one edge shorter, Eq. (10).
  kFreeEdgeRoot,
};

/// One level combination of the per-LCA kernel: labels `m` and `n`
/// levels below the LCA, folded with `weight` (and the same-child
/// products with -weight) into the twice_d table. m == 0 pairs the
/// LCA's own label, which lies in no child subtree.
struct LevelCombo {
  int32_t m = 0;
  int32_t n = 0;
  int64_t weight = 1;
  int32_t twice_d = 0;
};

/// The combination table of one (shape, twice_maxdist), built once and
/// reused by every tree mined with the same options.
struct SweepPlan {
  SweepShape shape = SweepShape::kRooted;
  int twice_maxdist = -1;
  /// Deepest level below a node the sweep keeps.
  int32_t max_level = 0;
  /// Folded at every LCA, or at every LCA but the root under
  /// kFreeEdgeRoot.
  std::vector<LevelCombo> combos;
  /// Folded at the root under kFreeEdgeRoot; empty otherwise.
  std::vector<LevelCombo> root_combos;
};

/// All buffers MineSingleTreeScratch reuses across trees. Treat as
/// opaque outside single_tree_mining.cc except for `items`, which holds
/// the mined items of the most recent call.
struct MiningScratch {
  /// levels[v][k] = labels of v's descendants at depth k below v.
  /// Every FlatCounts is empty between runs (capacity retained).
  std::vector<std::vector<FlatCounts>> levels;
  /// One accumulator per distance value (index = twice-distance);
  /// cleared between runs, capacity retained so steady-state mining
  /// never re-grows them.
  std::vector<PairCountMap> acc;
  /// Output of the most recent MineSingleTreeScratch call.
  std::vector<CousinPairItem> items;
  /// Batch buffer + tier telemetry for the dispatched fold kernels;
  /// stats are zeroed per run and flushed to accum.* counters.
  FoldBuffer fold;
  /// Dense-tier accumulators (one per distance value) and the per-tree
  /// label remap backing them. dense_of_global maps global label id ->
  /// dense id and is -1 everywhere between runs (entries are unwound
  /// through dense_to_global after each tree); dense_to_global maps a
  /// dense id back to the global label it was assigned from, in
  /// first-encounter node order. Only the vector tiers touch these.
  std::vector<DensePairAccumulator> dense_acc;
  std::vector<int32_t> dense_of_global;
  std::vector<LabelId> dense_to_global;
  /// Level combinations of the most recent (shape, twice_maxdist).
  SweepPlan plan;

  /// Reactive accumulator rehashes across all distance maps — the
  /// steady-state-no-growth regression signal (see PairCountMap::Stats).
  int64_t AccumulatorRehashes() const {
    int64_t total = 0;
    for (const PairCountMap& m : acc) total += m.stats().rehashes;
    return total;
  }
};

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_MINING_SCRATCH_H_
