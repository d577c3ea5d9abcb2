#include "core/variant_mining.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "core/cousin_distance.h"
#include "core/level_sweep.h"
#include "core/pair_count_map.h"
#include "tree/lca.h"
#include "util/overflow.h"

namespace cousins {

std::string MinerVariantName(MinerVariant variant) {
  switch (variant) {
    case MinerVariant::kCousin:
      return "cousin";
    case MinerVariant::kFreeTree:
      return "free";
    case MinerVariant::kGeneralized:
      return "generalized";
    case MinerVariant::kWeighted:
      return "weighted";
  }
  return "cousin";
}

bool ParseMinerVariant(const std::string& name, MinerVariant* out) {
  if (name == "cousin") {
    *out = MinerVariant::kCousin;
  } else if (name == "free") {
    *out = MinerVariant::kFreeTree;
  } else if (name == "generalized") {
    *out = MinerVariant::kGeneralized;
  } else if (name == "weighted") {
    *out = MinerVariant::kWeighted;
  } else {
    return false;
  }
  return true;
}

namespace internal {
namespace {

/// Shared cooperative checkpoint: cancellation/deadline plus an
/// approximate accumulator budget (`entries` live, `bytes` resident).
Status CheckGovernance(const MiningContext& context, int64_t entries,
                       int64_t bytes) {
  Status st = context.Check();
  if (st.ok() && !context.budget().unlimited()) {
    st = context.CheckWork(entries, bytes, 0);
  }
  return st;
}

/// Mirrors MineCore's mined-item cap: stop emitting at the budget and
/// convert the overflow into a kResourceExhausted trip.
Status ItemCapStatus(int64_t max_items) {
  return Status::ResourceExhausted("mined-item budget exceeded (" +
                                   std::to_string(max_items) + " items)");
}

}  // namespace

int32_t ClampWeightBucket(double weighted_path, double bucket_width) {
  const double q = std::floor(weighted_path / bucket_width);
  // NaN only arises from +inf weighted depths (inf − inf): individual
  // branch lengths are validated finite, but their running sum can
  // overflow. Saturate high, like the +inf quotient it came from.
  if (std::isnan(q) || q >= 2147483648.0) {
    return std::numeric_limits<int32_t>::max();
  }
  if (q < -2147483648.0) return std::numeric_limits<int32_t>::min();
  return static_cast<int32_t>(q);
}

Status MineGeneralizedScratch(const Tree& tree, const MiningOptions& options,
                              const GeneralizedVariantOptions& generalized,
                              const MiningContext& context,
                              VariantScratch* scratch) {
  std::vector<GeneralizedPairItem>& items = scratch->gen_items;
  items.clear();
  if (tree.empty() || generalized.max_horizontal < 0 ||
      generalized.max_vertical < 0) {
    return Status::OK();
  }
  AuxTallyMap& acc = scratch->gen_acc;
  acc.Clear();

  const int32_t max_level =
      generalized.max_horizontal + 1 + generalized.max_vertical;
  const bool governed = context.governed();
  uint32_t node_tick = 0;
  Status termination;

  // Counts exact-LCA pairs at depths (m, n) below `a` with the same
  // inclusion–exclusion as the legacy miner, but with saturating
  // products/differences — the raw cx * cy − same_child arithmetic was
  // signed-overflow UB on adversarial multiplicities — folding into
  // the packed-key accumulator.
  const auto count_pairs_at_levels = [&](NodeId a,
                                         const std::vector<NodeLevels>& maps,
                                         int32_t m, int32_t n) {
    const NodeLevels& mine = maps[a];
    const LabelCounts& at_m = mine[m];
    const LabelCounts& at_n = mine[n];
    if (at_m.empty() || at_n.empty()) return;
    const std::vector<NodeId>& kids = tree.children(a);
    const uint32_t aux = PackHV(n - 1, m - n);

    if (m == n) {
      for (const auto& [x, cx] : at_m) {
        for (const auto& [y, cy] : at_m) {
          if (x > y) continue;
          int64_t same_child = 0;
          for (NodeId c : kids) {
            const LabelCounts& cm = maps[c][m - 1];
            auto ix = cm.find(x);
            if (ix == cm.end()) continue;
            auto iy = x == y ? ix : cm.find(y);
            if (iy == cm.end()) continue;
            same_child = SaturatingAdd(same_child,
                                       SaturatingMul(ix->second, iy->second));
          }
          int64_t cross =
              SaturatingSub(SaturatingMul(cx, cy), same_child);
          if (x == y) cross /= 2;
          if (cross > 0) acc.Add({PackLabelPair(x, y), aux}, 0, cross);
        }
      }
      return;
    }

    for (const auto& [x, cx] : at_m) {
      for (const auto& [y, cy] : at_n) {
        int64_t same_child = 0;
        for (NodeId c : kids) {
          const LabelCounts& cm = maps[c][m - 1];
          const LabelCounts& cn = maps[c][n - 1];
          auto ix = cm.find(x);
          if (ix == cm.end()) continue;
          auto iy = cn.find(y);
          if (iy == cn.end()) continue;
          same_child = SaturatingAdd(same_child,
                                     SaturatingMul(ix->second, iy->second));
        }
        const int64_t cross =
            SaturatingSub(SaturatingMul(cx, cy), same_child);
        if (cross > 0) acc.Add({PackLabelPair(x, y), aux}, 0, cross);
      }
    }
  };

  // The sweep visitor cannot abort the walk (void return), so a trip
  // latches `termination` and later visits return immediately — the
  // remaining sweep is map bookkeeping only, no pair counting.
  SweepDescendantLevels(
      tree, max_level, [&](NodeId a, const std::vector<NodeLevels>& maps) {
        if (!termination.ok()) return;
        if (governed && (node_tick++ & 63u) == 0) {
          Status st = CheckGovernance(
              context, static_cast<int64_t>(acc.size()),
              static_cast<int64_t>(acc.capacity() * AuxTallyMap::kSlotBytes));
          if (!st.ok()) {
            termination = std::move(st);
            return;
          }
        }
        for (int32_t n = 1; n <= generalized.max_horizontal + 1; ++n) {
          for (int32_t m = n; m <= n + generalized.max_vertical; ++m) {
            count_pairs_at_levels(a, maps, m, n);
          }
        }
      });

  const int64_t max_items = context.budget().max_items;
  bool item_cap_hit = false;
  acc.ForEach([&](AuxKey key, int32_t /*support*/, int64_t occurrences) {
    if (occurrences >= options.min_occur && occurrences > 0) {
      if (static_cast<int64_t>(items.size()) >= max_items) {
        item_cap_hit = true;
        return;
      }
      items.push_back(GeneralizedPairItem{UnpackFirst(key.pair),
                                          UnpackSecond(key.pair),
                                          UnpackH(key.aux), UnpackV(key.aux),
                                          occurrences});
    }
  });
  if (item_cap_hit && termination.ok()) {
    termination = ItemCapStatus(max_items);
  }
  std::sort(items.begin(), items.end());
  return termination;
}

Status MineWeightedScratch(const Tree& tree, const MiningOptions& options,
                           const WeightedVariantOptions& weighted,
                           const MiningContext& context,
                           VariantScratch* scratch) {
  std::vector<WeightedPairItem>& items = scratch->weighted_items;
  items.clear();
  if (!(weighted.bucket_width > 0) || !std::isfinite(weighted.bucket_width)) {
    return Status::InvalidArgument(
        "weighted mining needs a finite bucket width > 0");
  }
  if (tree.empty() || options.twice_maxdist < 0) return Status::OK();

  // Reject non-finite branch lengths up front: they would make every
  // downstream bucket meaningless, and the legacy float-to-int cast on
  // their quotients was UB.
  for (NodeId v = 1; v < tree.size(); ++v) {
    if (!std::isfinite(tree.branch_length(v))) {
      return Status::InvalidArgument(
          "non-finite branch length on the edge above node " +
          std::to_string(v));
    }
  }

  const size_t num_acc = static_cast<size_t>(options.twice_maxdist) + 1;
  if (scratch->weighted_acc.size() != num_acc) {
    scratch->weighted_acc.resize(num_acc);
  }
  for (AuxTallyMap& m : scratch->weighted_acc) m.Clear();

  std::vector<double>& weighted_depth = scratch->weighted_depth;
  weighted_depth.assign(tree.size(), 0.0);
  for (NodeId v = 1; v < tree.size(); ++v) {
    weighted_depth[v] =
        weighted_depth[tree.parent(v)] + tree.branch_length(v);
  }

  LcaIndex lca(tree);
  const bool governed = context.governed();
  uint32_t node_tick = 0;
  Status termination;
  for (NodeId u = 0; u < tree.size(); ++u) {
    if (!tree.has_label(u)) continue;
    if (governed && (node_tick++ & 15u) == 0) {
      int64_t entries = 0;
      int64_t bytes = 0;
      for (const AuxTallyMap& m : scratch->weighted_acc) {
        entries += static_cast<int64_t>(m.size());
        bytes += static_cast<int64_t>(m.capacity() * AuxTallyMap::kSlotBytes);
      }
      Status st = CheckGovernance(context, entries, bytes);
      if (!st.ok()) {
        termination = std::move(st);
        break;
      }
    }
    for (NodeId v = u + 1; v < tree.size(); ++v) {
      if (!tree.has_label(v)) continue;
      const int twice_d = TwiceCousinDistance(tree, lca, u, v);
      if (twice_d == kUndefinedDistance ||
          twice_d > options.twice_maxdist) {
        continue;
      }
      const NodeId a = lca.Lca(u, v);
      const double weighted_path = (weighted_depth[u] - weighted_depth[a]) +
                                   (weighted_depth[v] - weighted_depth[a]);
      const int32_t bucket =
          ClampWeightBucket(weighted_path, weighted.bucket_width);
      scratch->weighted_acc[twice_d].Add(
          {PackLabelPair(tree.label(u), tree.label(v)), PackBucket(bucket)},
          0, 1);
    }
  }

  const int64_t max_items = context.budget().max_items;
  bool item_cap_hit = false;
  for (int twice_d = 0; twice_d <= options.twice_maxdist; ++twice_d) {
    scratch->weighted_acc[twice_d].ForEach(
        [&](AuxKey key, int32_t /*support*/, int64_t occurrences) {
          if (occurrences >= options.min_occur && occurrences > 0) {
            if (static_cast<int64_t>(items.size()) >= max_items) {
              item_cap_hit = true;
              return;
            }
            items.push_back(WeightedPairItem{
                UnpackFirst(key.pair), UnpackSecond(key.pair), twice_d,
                UnpackBucket(key.aux), occurrences});
          }
        });
  }
  if (item_cap_hit && termination.ok()) {
    termination = ItemCapStatus(max_items);
  }
  std::sort(items.begin(), items.end());
  return termination;
}

}  // namespace internal
}  // namespace cousins
