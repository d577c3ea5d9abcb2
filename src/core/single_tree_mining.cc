#include "core/single_tree_mining.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/kernel_dispatch.h"
#include "core/pair_count_map.h"
#include "obs/governance_events.h"
#include "obs/metrics.h"

namespace cousins {
namespace {

using internal::DensePairAccumulator;
using internal::FlatCounts;
using internal::LevelCombo;
using internal::MiningScratch;
using internal::PackLabelPair;
using internal::PairCountMap;
using internal::SweepPlan;
using internal::SweepShape;
using internal::UnpackFirst;
using internal::UnpackSecond;

/// Per-tree distinct-label ceiling for the dense-tier accumulator:
/// above this the flat cells array (L * L * 8 bytes per distance
/// value) stops paying for itself and the hash kernels take over.
/// Must keep kDenseMaxLabels^2 within uint32_t (dirty-index width).
constexpr int32_t kDenseMaxLabels = 1024;

/// Assigns dense ids (first-encounter node order, deterministic) to
/// every distinct label in the tree via scratch->dense_of_global /
/// dense_to_global. Returns the distinct-label count L, or -1 when the
/// tree exceeds kDenseMaxLabels (assignments unwound — the caller must
/// fall back to the hash kernels). On success the assignments stay in
/// place for the rest of the run; the next run's ResetScratch unwinds
/// them through dense_to_global. Requires a clean map on entry (every
/// dense_of_global entry -1), which ResetScratch guarantees.
int32_t BuildDenseLabelRemap(const Tree& tree, MiningScratch* scratch) {
  std::vector<int32_t>& dense_of = scratch->dense_of_global;
  std::vector<LabelId>& to_global = scratch->dense_to_global;
  to_global.clear();
  for (NodeId a = 0; a < static_cast<NodeId>(tree.size()); ++a) {
    if (!tree.has_label(a)) continue;
    const LabelId g = tree.label(a);
    if (static_cast<size_t>(g) >= dense_of.size()) {
      dense_of.resize(static_cast<size_t>(g) + 1, -1);
    }
    if (dense_of[g] < 0) {
      if (static_cast<int32_t>(to_global.size()) >= kDenseMaxLabels) {
        for (LabelId assigned : to_global) dense_of[assigned] = -1;
        to_global.clear();
        return -1;
      }
      dense_of[g] = static_cast<int32_t>(to_global.size());
      to_global.push_back(g);
    }
  }
  return static_cast<int32_t>(to_global.size());
}

// Normalize and AddProduct live behind the runtime SIMD dispatch now
// (kernel_dispatch.h / simd_fold.cc); the scalar kernels there are the
// pre-dispatch code verbatim.

/// Readies the scratch for one run: every per-node FlatCounts empty
/// (capacity kept), one cleared accumulator per distance value. A
/// truncated previous run may have left residue anywhere, so the wipe
/// covers the whole scratch — clears of trivially-destructible
/// vectors, no deallocation.
void ResetScratch(MiningScratch* scratch, size_t tree_size,
                  int twice_maxdist) {
  for (std::vector<FlatCounts>& node_levels : scratch->levels) {
    for (FlatCounts& counts : node_levels) counts.clear();
  }
  if (scratch->levels.size() < tree_size) scratch->levels.resize(tree_size);
  const size_t num_acc = static_cast<size_t>(twice_maxdist) + 1;
  if (scratch->acc.size() != num_acc) scratch->acc.resize(num_acc);
  for (PairCountMap& m : scratch->acc) m.Clear();
  // Dense-tier residue: a truncated run leaves un-emitted cells
  // nonzero and a partially-unwound label remap; the dirty lists and
  // dense_to_global record exactly what to undo.
  for (DensePairAccumulator& d : scratch->dense_acc) {
    for (uint32_t idx : d.dirty) d.cells[idx] = 0;
    d.dirty.clear();
  }
  for (LabelId g : scratch->dense_to_global) {
    scratch->dense_of_global[g] = -1;
  }
  scratch->dense_to_global.clear();
  scratch->items.clear();
  scratch->fold.ResetStats();
}

/// Rebuilds scratch->plan when (shape, twice_maxdist) differs from the
/// previous tree's, so a forest fold builds its table once.
void PreparePlan(SweepShape shape, int twice_maxdist, SweepPlan* plan) {
  if (plan->shape == shape && plan->twice_maxdist == twice_maxdist) return;
  plan->shape = shape;
  plan->twice_maxdist = twice_maxdist;
  plan->combos.clear();
  plan->root_combos.clear();
  if (shape == SweepShape::kRooted) {
    // Eq. (1)-(3): one (my_level, mycousin_level) pair per distance.
    plan->max_level = MyLevel(twice_maxdist);
    for (int twice_d = 0; twice_d <= twice_maxdist; ++twice_d) {
      plan->combos.push_back(
          {MyLevel(twice_d), MyCousinLevel(twice_d), 1, twice_d});
    }
    return;
  }
  // §6: a pair `up` and `down` edges below its exact LCA has a path of
  // up + down edges, so Eq. (7) gives twice_d = up + down - 2. A
  // combination with up < down counts each pair once and one with
  // up == down counts it in both orders, so the former add twice and
  // every table is halved at emit. up == 0 is the LCA itself.
  plan->max_level = twice_maxdist + 2;
  for (int32_t edges = 2; edges <= twice_maxdist + 2; ++edges) {
    for (int32_t up = 0; 2 * up <= edges; ++up) {
      plan->combos.push_back(
          {up, edges - up, 2 * up == edges ? 1 : 2, edges - 2});
    }
  }
  if (shape != SweepShape::kFreeEdgeRoot) return;
  // Eq. (10): a path across the unlabeled root crosses the subdivided
  // edge, one edge of the free tree but two here.
  for (int32_t edges = 3; edges <= twice_maxdist + 3; ++edges) {
    for (int32_t up = 1; 2 * up <= edges; ++up) {
      plan->root_combos.push_back(
          {up, edges - up, 2 * up == edges ? 1 : 2, edges - 3});
    }
  }
}

/// The governed core: the exact-LCA inclusion–exclusion miner with
/// cooperative checkpoints, writing items into scratch->items. `shape`
/// picks the level combinations folded at each LCA (SweepPlan).
/// `context` is consulted once per small batch of source nodes (stride
/// 64, amortizing the clock read), so an ungoverned context costs one
/// predictable branch per node and the item stream is bit-identical to
/// the pre-governance miner.
Status MineCore(const Tree& tree, const MiningOptions& options,
                SweepShape shape, const MiningContext& context,
                MiningScratch* scratch) {
  if (tree.empty() || options.twice_maxdist < 0) {
    scratch->items.clear();
    return Status::OK();
  }
  ResetScratch(scratch, tree.size(), options.twice_maxdist);
  PreparePlan(shape, options.twice_maxdist, &scratch->plan);
  const SweepPlan& plan = scratch->plan;
  std::vector<CousinPairItem>& items = scratch->items;

  const int32_t max_level = plan.max_level;
  // The node whose LCA pairs take plan.root_combos (none when rooted).
  const NodeId edge_root =
      shape == SweepShape::kFreeEdgeRoot ? tree.root() : -1;
  // levels[v][k] = labels of v's descendants at depth k below v.
  std::vector<std::vector<FlatCounts>>& levels = scratch->levels;
  // One accumulator per distance value; tables that collect ordered
  // pairs are halved at the end.
  std::vector<PairCountMap>& acc = scratch->acc;
#if COUSINS_METRICS_ENABLED
  // Stats are cumulative over the scratch's lifetime; snapshot so the
  // per-call counters below report this tree's work only.
  int64_t probes_before = 0;
  int64_t rehashes_before = 0;
  for (const PairCountMap& m : acc) {
    probes_before += m.stats().probes;
    rehashes_before += m.stats().rehashes;
  }
#endif

  // One dispatch read per tree; every kernel call below goes through
  // this table so the whole tree runs a single tier.
  const internal::FoldKernels& kernels = internal::ActiveKernels();
  // Vector tiers accumulate into the dense per-tree array (no hash
  // probes) when the tree's distinct-label count fits; the item
  // multiset is identical to the hash path's, in a different order
  // that the canonical item sort downstream erases. Scalar stays on
  // the hash path so a scalar run is bit-for-bit the legacy miner.
  const int32_t dense_labels = kernels.tier != SimdTier::kScalar
                                   ? BuildDenseLabelRemap(tree, scratch)
                                   : -1;
  const bool dense = dense_labels >= 0;
  std::vector<DensePairAccumulator>& dense_acc = scratch->dense_acc;
  // Stride is dense_labels rounded up to a power of two: the kernels
  // see an ordinary stride, but emit can unpack cell indices with a
  // shift and a mask instead of two integer divisions per item. Cells
  // are sized L * stride (max index (L-1) * stride + (L-1)), so the
  // rounding costs at most 2x-of-L*L, not stride * stride.
  int32_t dense_stride = 1;
  int dense_shift = 0;
  if (dense) {
    while (dense_stride < dense_labels) {
      dense_stride <<= 1;
      ++dense_shift;
    }
    const size_t num_acc =
        static_cast<size_t>(options.twice_maxdist) + 1;
    if (dense_acc.size() < num_acc) dense_acc.resize(num_acc);
    const size_t cells_needed = static_cast<size_t>(dense_labels)
                                << dense_shift;
    for (size_t d = 0; d < num_acc; ++d) {
      // Grown cells are zero-filled; existing cells are already all
      // zero (the between-runs invariant), so no wipe is needed here.
      if (dense_acc[d].cells.size() < cells_needed) {
        dense_acc[d].cells.resize(cells_needed, 0);
      }
    }
  }
  const bool governed = context.governed();
  uint32_t node_tick = 0;
  Status termination;

  // Preorder ids make descending order a valid postorder.
  for (NodeId a = tree.size() - 1; a >= 0; --a) {
    if (governed && (node_tick++ & 63u) == 0) {
      Status st = context.Check();
      if (st.ok() && !context.budget().unlimited()) {
        // Approximate working set: the per-distance accumulators (the
        // O(|T|²) part). 16 bytes per slot (key + count). A warm
        // scratch counts its retained capacity — memory budgets see
        // what is actually resident.
        int64_t entries = 0;
        int64_t bytes = 0;
        if (dense) {
          // Dense equivalents: touched cells stand in for hash
          // entries, and the resident flat arrays (8-byte cells plus
          // 4-byte dirty indices) for table capacity.
          for (const DensePairAccumulator& d : dense_acc) {
            entries += static_cast<int64_t>(d.dirty.size());
            bytes += static_cast<int64_t>(d.cells.capacity()) * 8 +
                     static_cast<int64_t>(d.dirty.capacity()) * 4;
          }
        } else {
          for (const PairCountMap& m : acc) {
            entries += static_cast<int64_t>(m.size());
            bytes += static_cast<int64_t>(m.capacity()) * 16;
          }
        }
        st = context.CheckWork(entries, bytes, 0);
      }
      if (!st.ok()) {
        termination = std::move(st);
        break;
      }
    }
    std::vector<FlatCounts>& mine = levels[a];
    mine.resize(max_level + 1);
    if (tree.has_label(a)) {
      const LabelId label = tree.label(a);
      mine[0].push_back(
          {dense ? static_cast<LabelId>(scratch->dense_of_global[label])
                 : label,
           1});
    }
    const std::vector<NodeId>& kids = tree.children(a);
    // Children's vectors are still needed below for the same-child
    // subtraction, so aggregate by copy.
    for (NodeId c : kids) {
      for (int32_t level = 1; level <= max_level; ++level) {
        const FlatCounts& child = levels[c][level - 1];
        mine[level].insert(mine[level].end(), child.begin(), child.end());
      }
    }
    for (int32_t level = 1; level <= max_level; ++level) {
      kernels.normalize(&mine[level], &scratch->fold);
    }

    if (!kids.empty()) {
      const std::vector<LevelCombo>& combos =
          a == edge_root ? plan.root_combos : plan.combos;
      for (const LevelCombo& combo : combos) {
        const int32_t m = combo.m;
        const int32_t n = combo.n;
        const FlatCounts& at_m = mine[m];
        const FlatCounts& at_n = mine[n];
        if (at_m.empty() || at_n.empty()) continue;
        // Exact-LCA inclusion–exclusion: aggregate product minus
        // same-child products. For m == n this counts ordered pairs
        // and the diagonal cancels; halved at finalize.
        if (dense) {
          DensePairAccumulator& d = dense_acc[combo.twice_d];
          kernels.add_product_dense(at_m, at_n, combo.weight, dense_stride,
                                    d.cells.data(), &d.dirty,
                                    &scratch->fold);
          if (m == 0) continue;
          for (NodeId c : kids) {
            const FlatCounts& cm = levels[c][m - 1];
            if (cm.empty()) continue;
            const FlatCounts& cn = levels[c][n - 1];
            if (cn.empty()) continue;
            kernels.add_product_dense(cm, cn, -combo.weight, dense_stride,
                                      d.cells.data(), &d.dirty,
                                      &scratch->fold);
          }
          continue;
        }
        PairCountMap* table = &acc[combo.twice_d];
        kernels.add_product(at_m, at_n, combo.weight, table, &scratch->fold);
        if (m == 0) continue;
        for (NodeId c : kids) {
          const FlatCounts& cm = levels[c][m - 1];
          if (cm.empty()) continue;
          const FlatCounts& cn = levels[c][n - 1];
          if (cn.empty()) continue;
          kernels.add_product(cm, cn, -combo.weight, table, &scratch->fold);
        }
      }
    }
    // Consumed: empty the children's level sets but keep their
    // capacity — the next tree through this scratch reuses it.
    for (NodeId c : kids) {
      for (FlatCounts& counts : levels[c]) counts.clear();
    }
  }

  const int64_t max_items = context.budget().max_items;
  bool item_cap_hit = false;
  size_t total = 0;
  if (dense) {
    for (const DensePairAccumulator& d : dense_acc) total += d.dirty.size();
  } else {
    for (const PairCountMap& m : acc) total += m.size();
  }
  items.reserve(std::min<size_t>(
      total, max_items == ResourceBudget::kUnlimited
                 ? total
                 : static_cast<size_t>(std::max<int64_t>(max_items, 0))));
  int64_t emit_tables_scanned = 0;
  // A tripped item cap also short-circuits the outer loop: the
  // remaining per-distance accumulators can contribute nothing, so
  // scanning them is pure wasted work on capped trees.
  for (int twice_d = 0;
       twice_d <= options.twice_maxdist && !item_cap_hit; ++twice_d) {
    // Rooted tables hold ordered pairs at even distances (m == n); free
    // ones at every distance (PreparePlan).
    const bool ordered = shape != SweepShape::kRooted || twice_d % 2 == 0;
    ++emit_tables_scanned;
    if (dense) {
      // Drain the touched cells in first-touch order, zeroing each as
      // it is read: the zeroing restores the between-runs invariant
      // AND skips duplicate dirty entries (a cell cancelled to zero
      // and re-touched is listed twice). Cells a capped scan never
      // reaches stay nonzero with their dirty entries intact, and the
      // next ResetScratch wipes them.
      DensePairAccumulator& d = dense_acc[twice_d];
      for (uint32_t idx : d.dirty) {
        int64_t count = d.cells[idx];
        if (count == 0) continue;
        d.cells[idx] = 0;
        if (ordered) count /= 2;
        if (count >= options.min_occur && count > 0) {
          if (static_cast<int64_t>(items.size()) >= max_items) {
            item_cap_hit = true;
            break;
          }
          const LabelId g1 = scratch->dense_to_global[idx >> dense_shift];
          const LabelId g2 =
              scratch->dense_to_global[idx &
                                       static_cast<uint32_t>(dense_stride - 1)];
          items.push_back(CousinPairItem{std::min(g1, g2), std::max(g1, g2),
                                         twice_d, count});
        }
      }
      if (!item_cap_hit) d.dirty.clear();
      continue;
    }
    acc[twice_d].ForEach([&](uint64_t key, int64_t count) {
      if (ordered) count /= 2;
      if (count >= options.min_occur && count > 0) {
        if (static_cast<int64_t>(items.size()) >= max_items) {
          item_cap_hit = true;
          return;
        }
        items.push_back(CousinPairItem{UnpackFirst(key), UnpackSecond(key),
                                       twice_d, count});
      }
    });
  }
  if (item_cap_hit && termination.ok()) {
    termination = Status::ResourceExhausted(
        "mined-item budget exceeded (" + std::to_string(max_items) +
        " items)");
  }

#if COUSINS_METRICS_ENABLED
  int64_t probes = -probes_before;
  int64_t rehashes = -rehashes_before;
  for (const PairCountMap& m : acc) {
    probes += m.stats().probes;
    rehashes += m.stats().rehashes;
  }
  COUSINS_METRIC_COUNTER_ADD("mine.single.calls", 1);
  COUSINS_METRIC_COUNTER_ADD("mine.single.nodes", tree.size());
  COUSINS_METRIC_COUNTER_ADD("mine.single.items_emitted", items.size());
  COUSINS_METRIC_COUNTER_ADD("mine.single.accumulator_probes", probes);
  COUSINS_METRIC_COUNTER_ADD("mine.single.accumulator_rehashes", rehashes);
  COUSINS_METRIC_COUNTER_ADD("mine.single.emit_tables_scanned",
                             emit_tables_scanned);
  COUSINS_METRIC_COUNTER_ADD("accum.simd_batches",
                             scratch->fold.simd_batches);
  COUSINS_METRIC_COUNTER_ADD("accum.scalar_fallbacks",
                             scratch->fold.scalar_fallbacks);
#else
  (void)emit_tables_scanned;
#endif
  return termination;
}

}  // namespace

namespace internal {

Status MineSingleTreeScratch(const Tree& tree, const MiningOptions& options,
                             const MiningContext& context,
                             MiningScratch* scratch, SweepShape shape) {
  return MineCore(tree, options, shape, context, scratch);
}

Status MineOneShot(const Tree& tree, const MiningOptions& options,
                   const MiningContext& context, SweepShape shape,
                   std::vector<CousinPairItem>* items) {
  thread_local MiningScratch scratch;
  Status termination = MineCore(tree, options, shape, context, &scratch);
  *items = std::move(scratch.items);
  return termination;
}

}  // namespace internal

std::vector<CousinPairItem> MineSingleTreeUnordered(
    const Tree& tree, const MiningOptions& options) {
  std::vector<CousinPairItem> items;
  internal::MineOneShot(tree, options, MiningContext::Unlimited(),
                        SweepShape::kRooted, &items);
  return items;
}

std::vector<CousinPairItem> MineSingleTree(const Tree& tree,
                                           const MiningOptions& options) {
  std::vector<CousinPairItem> items = MineSingleTreeUnordered(tree, options);
  CanonicalizeItems(&items);
  return items;
}

SingleTreeMiningRun MineSingleTreeGovernedUnordered(
    const Tree& tree, const MiningOptions& options,
    const MiningContext& context) {
  SingleTreeMiningRun run;
  run.termination = internal::MineOneShot(tree, options, context,
                                          SweepShape::kRooted, &run.items);
  run.truncated = !run.termination.ok();
  return run;
}

SingleTreeMiningRun MineSingleTreeGoverned(const Tree& tree,
                                           const MiningOptions& options,
                                           const MiningContext& context) {
  SingleTreeMiningRun run = MineSingleTreeGovernedUnordered(tree, options,
                                                            context);
  CanonicalizeItems(&run.items);
  obs::RecordGovernanceEvent(run.termination);
  return run;
}

}  // namespace cousins
