// Governed per-tree folds for the generalized (§2 caps) and weighted
// (§7 future work (i)) miner variants (core/miner_variant.h):
// reductions of one tree to pair items with the same contract as
// internal::MineSingleTreeScratch — reusable scratch, cooperative
// MiningContext checkpoints, bit-identical items whether governed or
// not, and a half-mined tree discarded on a trip. The cousin and
// free-tree (§6) variants run MineSingleTreeScratch itself. The forest
// pipeline (MultiTreeMiner) dispatches on its variant to exactly one
// fold per tree.
//
// All occurrence arithmetic here is saturating (util/overflow.h):
// the legacy variant miners' raw ++/*/- on counts were signed-overflow
// UB on adversarial high-multiplicity inputs.

#ifndef COUSINS_CORE_VARIANT_MINING_H_
#define COUSINS_CORE_VARIANT_MINING_H_

#include <cstdint>
#include <vector>

#include "core/cousin_pair.h"
#include "core/generalized_mining.h"
#include "core/miner_variant.h"
#include "core/tally_map.h"
#include "core/weighted_mining.h"
#include "tree/tree.h"
#include "util/governance.h"
#include "util/result.h"

namespace cousins {
namespace internal {

/// Packs the generalized (horizontal, vertical) kinship into the
/// AuxTallyMap aux word. Requires 0 <= h, v <= 0xFFFF
/// (ValidateVariantOptions enforces the caps).
inline uint32_t PackHV(int32_t horizontal, int32_t vertical) {
  return (static_cast<uint32_t>(horizontal) << 16) |
         (static_cast<uint32_t>(vertical) & 0xFFFFu);
}
inline int32_t UnpackH(uint32_t aux) {
  return static_cast<int32_t>(aux >> 16);
}
inline int32_t UnpackV(uint32_t aux) {
  return static_cast<int32_t>(aux & 0xFFFFu);
}

/// Bit-exact int32 <-> uint32 bridge for the weighted bucket in the
/// aux word (buckets may be negative under negative branch lengths).
inline uint32_t PackBucket(int32_t bucket) {
  return static_cast<uint32_t>(bucket);
}
inline int32_t UnpackBucket(uint32_t aux) {
  return static_cast<int32_t>(aux);
}

/// floor(weighted_path / bucket_width) clamped into int32. The raw
/// static_cast the legacy miner used is UB whenever the quotient is
/// non-finite or outside int32 range (huge branch lengths overflow the
/// weighted depth to +inf even when every individual length is finite,
/// and inf − inf yields NaN); here every input maps deterministically:
/// quotients at or beyond the int32 limits saturate, and a NaN path
/// saturates high (it only arises from +inf depths).
int32_t ClampWeightBucket(double weighted_path, double bucket_width);

/// All buffers the variant folds reuse across trees (the analog of
/// MiningScratch). Treat as opaque outside variant_mining.cc except
/// for the *_items vectors, which hold the most recent call's output.
struct VariantScratch {
  // Generalized fold: one (pair, aux=(h,v)) accumulator.
  AuxTallyMap gen_acc;
  std::vector<GeneralizedPairItem> gen_items;

  // Weighted fold: weighted depths plus one (pair, aux=bucket)
  // accumulator per twice-distance.
  std::vector<double> weighted_depth;
  std::vector<AuxTallyMap> weighted_acc;
  std::vector<WeightedPairItem> weighted_items;

  /// Reactive accumulator rehashes across all variant accumulators —
  /// the steady-state-no-growth regression signal, mirroring
  /// MiningScratch::AccumulatorRehashes.
  int64_t AccumulatorRehashes() const {
    int64_t total = gen_acc.stats().grows;
    for (const AuxTallyMap& m : weighted_acc) total += m.stats().grows;
    return total;
  }
};

/// Generalized cousin mining of `tree` under the (h, v) caps; items in
/// canonical order in scratch->gen_items, filtered by
/// options.min_occur. Equivalent to MineGeneralized with the same caps.
Status MineGeneralizedScratch(const Tree& tree, const MiningOptions& options,
                              const GeneralizedVariantOptions& generalized,
                              const MiningContext& context,
                              VariantScratch* scratch);

/// Weighted cousin mining of `tree`; items in canonical order in
/// scratch->weighted_items. Non-finite branch lengths are rejected
/// with kInvalidArgument (a hard per-tree failure — quarantinable
/// under lenient mode, never UB).
Status MineWeightedScratch(const Tree& tree, const MiningOptions& options,
                           const WeightedVariantOptions& weighted,
                           const MiningContext& context,
                           VariantScratch* scratch);

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_VARIANT_MINING_H_
