// Single_Tree_Mining (paper §3, Fig. 3): all cousin pair items of one
// tree with distance <= maxdist and occurrence count >= minoccur.
//
// This is the production implementation. It enumerates pairs by their
// exact LCA with per-level label multisets and inclusion–exclusion over
// child subtrees, so — unlike the paper's Fig. 3 transcription
// (paper_mining.h) — it needs no duplicate-suppression set. Output is
// identical (property-tested against both reference miners) and the
// worst case matches the paper's O(|T|²) bound. The same sweep mines
// free trees (§6) by folding (up, down) level combinations in place of
// Eq. (1)–(3)'s pairs (internal::SweepShape).

#ifndef COUSINS_CORE_SINGLE_TREE_MINING_H_
#define COUSINS_CORE_SINGLE_TREE_MINING_H_

#include <vector>

#include "core/cousin_pair.h"
#include "core/mining_scratch.h"
#include "tree/tree.h"
#include "util/governance.h"

namespace cousins {

/// Mines all cousin pair items of `tree` under `options`. Items are
/// canonical: label1 <= label2, sorted ascending.
std::vector<CousinPairItem> MineSingleTree(const Tree& tree,
                                           const MiningOptions& options = {});

/// Same items in unspecified order (label1 <= label2 still holds).
/// Forest mining aggregates items into hash tables and does not pay for
/// the canonical sort; prefer MineSingleTree everywhere else.
std::vector<CousinPairItem> MineSingleTreeUnordered(
    const Tree& tree, const MiningOptions& options = {});

/// Outcome of a governed single-tree mining run. `termination` is OK
/// when the run completed (items are exactly the ungoverned miner's
/// output); on a governance trip (kCancelled / kDeadlineExceeded /
/// kResourceExhausted) `truncated` is true and `items` holds the
/// partial tally accumulated up to the trip point — a subset-with-
/// undercounts of the full result, still canonically ordered.
struct SingleTreeMiningRun {
  std::vector<CousinPairItem> items;
  bool truncated = false;
  Status termination;
};

/// MineSingleTree under a resource-governance context. The context is
/// checked per source node (amortized over a small stride), so governed
/// ungoverned-equivalent runs stay within noise of MineSingleTree and
/// produce bit-identical items.
SingleTreeMiningRun MineSingleTreeGoverned(const Tree& tree,
                                           const MiningOptions& options,
                                           const MiningContext& context);

/// Unordered-output variant of MineSingleTreeGoverned (the multi-tree
/// miner's building block; skips the canonical sort).
SingleTreeMiningRun MineSingleTreeGovernedUnordered(
    const Tree& tree, const MiningOptions& options,
    const MiningContext& context);

namespace internal {

/// The allocation-free hot path: mines `tree` into `scratch->items`
/// (unordered, label1 <= label2), reusing every buffer the scratch
/// already holds — in steady state a forest fold performs no heap
/// allocation per tree. Returns OK when mining completed, in which
/// case scratch->items is exactly MineSingleTreeUnordered's item set;
/// a non-OK status is the governance trip (or item-budget exhaustion)
/// that truncated the run — forest folds must then discard the partial
/// items. Warm and cold scratches produce identical item sets; only
/// the unspecified order may differ.
///
/// `shape` selects the edges the sweep reads: kFree mines `tree` as a
/// free tree (§6, Eq. (7) distances; the forest pipeline's kFreeTree
/// variant), and kFreeEdgeRoot additionally takes the unlabeled root
/// as the subdivision of a free-tree edge (Fig. 11, Eq. (10)). Both
/// equal MineFreeTreeBfs on the free tree they read.
Status MineSingleTreeScratch(const Tree& tree, const MiningOptions& options,
                             const MiningContext& context,
                             MiningScratch* scratch,
                             SweepShape shape = SweepShape::kRooted);

}  // namespace internal

}  // namespace cousins

#endif  // COUSINS_CORE_SINGLE_TREE_MINING_H_
