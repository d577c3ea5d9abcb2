#include "core/multi_tree_mining.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/pair_count_map.h"
#include "obs/governance_events.h"
#include "obs/metrics.h"
#include "obs/sched_events.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace cousins {

using internal::PackLabelPair;
using internal::UnpackFirst;
using internal::UnpackSecond;

namespace {

/// Live-entry presize hint for one distance table: the number of
/// distinct unordered pairs over `labels` interned names, capped so
/// huge alphabets (TreeBASE: 18,870 taxa) do not pre-commit gigabytes
/// — beyond the cap, reactive growth takes over.
size_t TallyPresizeHint(size_t labels) {
  constexpr size_t kMaxPresizeLive = size_t{1} << 16;
  if (labels >= 512) return kMaxPresizeLive;  // labels² would overflow care
  const size_t pairs = labels * (labels + 1) / 2;
  return std::min(pairs, kMaxPresizeLive);
}

}  // namespace

Status ValidateVariantOptions(const MultiTreeMiningOptions& options) {
  switch (options.variant) {
    case MinerVariant::kCousin:
    case MinerVariant::kFreeTree:
      return Status::OK();
    case MinerVariant::kGeneralized:
      if (options.ignore_distance) {
        return Status::InvalidArgument(
            "the generalized variant has no \"@\" distance abstraction "
            "(items are keyed by (h, v), not a distance)");
      }
      if (options.generalized.max_horizontal < 0 ||
          options.generalized.max_vertical < 0) {
        return Status::InvalidArgument(
            "generalized kinship caps must be non-negative");
      }
      if (options.generalized.max_horizontal > 0xFFFF ||
          options.generalized.max_vertical > 0xFFFF) {
        return Status::InvalidArgument(
            "generalized kinship caps must fit 16 bits (<= 65535)");
      }
      return Status::OK();
    case MinerVariant::kWeighted:
      if (options.ignore_distance) {
        return Status::InvalidArgument(
            "the weighted variant has no \"@\" distance abstraction "
            "(items are keyed by (distance, bucket))");
      }
      if (!std::isfinite(options.weighted.bucket_width) ||
          options.weighted.bucket_width <= 0.0) {
        return Status::InvalidArgument(
            "weighted mining needs a finite bucket width > 0");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown miner variant");
}

MultiTreeMiner::MultiTreeMiner(MultiTreeMiningOptions options)
    : options_(options) {
  const size_t num_distances =
      static_cast<size_t>(std::max(options_.per_tree.twice_maxdist, 0)) + 1;
  switch (options_.variant) {
    case MinerVariant::kCousin:
    case MinerVariant::kFreeTree:
      tables_.resize(options_.ignore_distance ? 1 : num_distances);
      break;
    case MinerVariant::kGeneralized:
      // One table: item identity is (pair, (h, v)), no distance axis.
      aux_tables_.resize(1);
      break;
    case MinerVariant::kWeighted:
      aux_tables_.resize(num_distances);
      break;
  }
}

size_t MultiTreeMiner::TableIndex(int twice_distance) const {
  if (options_.ignore_distance) return 0;
  return static_cast<size_t>(twice_distance);
}

int MultiTreeMiner::TableDistance(size_t index) const {
  if (options_.ignore_distance) return kAnyDistance;
  return static_cast<int>(index);
}

void MultiTreeMiner::EnsureTallyCapacity() {
  if (labels_ == nullptr) return;
  const size_t cardinality = labels_->size();
  if (cardinality <= sized_for_labels_) return;
  sized_for_labels_ = cardinality;
  const size_t live = TallyPresizeHint(cardinality);
  for (internal::TallyMap& table : tables_) table.ReserveLive(live);
  for (internal::AuxTallyMap& table : aux_tables_) table.ReserveLive(live);
}

void MultiTreeMiner::FoldItems(const std::vector<CousinPairItem>& items) {
  // Tally-table growth is the miner's allocation hot spot across a big
  // forest; a fault here exercises mid-ingestion failure containment.
  COUSINS_FAULT_POINT("multiminer.fold");
  EnsureTallyCapacity();
#if COUSINS_METRICS_ENABLED
  int64_t probes_before = 0;
  for (const internal::TallyMap& t : tables_) {
    probes_before += t.stats().probes;
  }
#endif
  // Items arrive grouped by distance (the single-tree extractor's
  // outer loop is the distance), so prefetching a few items ahead
  // almost always targets the table currently being probed.
  constexpr size_t kPrefetchAhead = 8;
  if (!options_.ignore_distance) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i + kPrefetchAhead < items.size()) {
        const CousinPairItem& ahead = items[i + kPrefetchAhead];
        tables_[TableIndex(ahead.twice_distance)].PrefetchKey(
            PackLabelPair(ahead.label1, ahead.label2));
      }
      const CousinPairItem& item = items[i];
      total_tallies_ +=
          tables_[TableIndex(item.twice_distance)].Add(
              PackLabelPair(item.label1, item.label2), 1,
              item.occurrences);
    }
  } else {
    // Distance-ignored support: a tree supports (a, b, @) once no
    // matter how many distinct distances realize the pair in it. The
    // reusable scratch counter collapses distances within the tree
    // before the single fold into the @ table.
    fold_scratch_.Clear();
    for (const CousinPairItem& item : items) {
      fold_scratch_.Add(PackLabelPair(item.label1, item.label2),
                        item.occurrences);
    }
    fold_scratch_.ForEach([&](uint64_t key, int64_t occurrences) {
      total_tallies_ += tables_[0].Add(key, 1, occurrences);
    });
  }
#if COUSINS_METRICS_ENABLED
  int64_t probes_after = 0;
  for (const internal::TallyMap& t : tables_) {
    probes_after += t.stats().probes;
  }
  obs::RecordAccumProbeLen(probes_after - probes_before,
                           static_cast<int64_t>(items.size()));
#endif
}

void MultiTreeMiner::FoldGeneralized(
    const std::vector<GeneralizedPairItem>& items) {
  COUSINS_FAULT_POINT("multiminer.fold");
  EnsureTallyCapacity();
  constexpr size_t kPrefetchAhead = 8;
  internal::AuxTallyMap& table = aux_tables_[0];
  for (size_t i = 0; i < items.size(); ++i) {
    if (i + kPrefetchAhead < items.size()) {
      const GeneralizedPairItem& ahead = items[i + kPrefetchAhead];
      table.PrefetchKey(
          {PackLabelPair(ahead.label1, ahead.label2),
           internal::PackHV(ahead.horizontal, ahead.vertical)});
    }
    const GeneralizedPairItem& item = items[i];
    total_tallies_ += table.Add(
        {PackLabelPair(item.label1, item.label2),
         internal::PackHV(item.horizontal, item.vertical)},
        1, item.occurrences);
  }
}

void MultiTreeMiner::FoldWeighted(
    const std::vector<WeightedPairItem>& items) {
  COUSINS_FAULT_POINT("multiminer.fold");
  EnsureTallyCapacity();
  // Items arrive grouped by distance (the extractor's outer loop), so
  // the ahead-prefetch almost always targets the table being probed.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i + kPrefetchAhead < items.size()) {
      const WeightedPairItem& ahead = items[i + kPrefetchAhead];
      aux_tables_[static_cast<size_t>(ahead.twice_distance)].PrefetchKey(
          {PackLabelPair(ahead.label1, ahead.label2),
           internal::PackBucket(ahead.weight_bucket)});
    }
    const WeightedPairItem& item = items[i];
    total_tallies_ +=
        aux_tables_[static_cast<size_t>(item.twice_distance)].Add(
            {PackLabelPair(item.label1, item.label2),
             internal::PackBucket(item.weight_bucket)},
            1, item.occurrences);
  }
}

Status MultiTreeMiner::MineAndFoldTree(const Tree& tree,
                                       const MiningContext& context) {
  switch (options_.variant) {
    case MinerVariant::kCousin: {
      COUSINS_RETURN_IF_ERROR(internal::MineSingleTreeScratch(
          tree, options_.per_tree, context, &scratch_));
      FoldItems(scratch_.items);
      return Status::OK();
    }
    case MinerVariant::kFreeTree: {
      COUSINS_RETURN_IF_ERROR(internal::MineFreeVariantScratch(
          tree, options_.per_tree, context, &variant_scratch_));
      FoldItems(variant_scratch_.free_items);
      return Status::OK();
    }
    case MinerVariant::kGeneralized: {
      COUSINS_RETURN_IF_ERROR(internal::MineGeneralizedScratch(
          tree, options_.per_tree, options_.generalized, context,
          &variant_scratch_));
      FoldGeneralized(variant_scratch_.gen_items);
      return Status::OK();
    }
    case MinerVariant::kWeighted: {
      COUSINS_RETURN_IF_ERROR(internal::MineWeightedScratch(
          tree, options_.per_tree, options_.weighted, context,
          &variant_scratch_));
      FoldWeighted(variant_scratch_.weighted_items);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown miner variant");
}

void MultiTreeMiner::BindLabels(std::shared_ptr<LabelTable> labels) {
  COUSINS_CHECK(labels != nullptr && "BindLabels requires a table");
  if (labels_ == nullptr) {
    labels_ = std::move(labels);
  } else {
    COUSINS_CHECK(labels_ == labels &&
                  "BindLabels: a different table is already bound");
  }
}

void MultiTreeMiner::AddTree(const Tree& tree) {
  COUSINS_METRIC_SCOPED_TIMER("mine.multi.add_tree");
  if (labels_ == nullptr) {
    labels_ = tree.labels_ptr();
  } else {
    COUSINS_CHECK(labels_ == tree.labels_ptr() &&
                  "all trees in a forest must share one LabelTable");
  }
  ++tree_count_;

  // Ungoverned mining cannot trip governance; the only other per-tree
  // failure (a non-finite branch length under kWeighted) is a caller
  // contract violation here — the governed APIs surface it as a Status.
  const Status mined = MineAndFoldTree(tree, MiningContext::Unlimited());
  COUSINS_CHECK(mined.ok() && "ungoverned per-tree mining cannot fail");
  COUSINS_METRIC_COUNTER_ADD("mine.multi.trees_added", 1);
  COUSINS_METRIC_HISTOGRAM_RECORD("mine.multi.tally_size", total_tallies_);
}

Status MultiTreeMiner::AddTreeGoverned(const Tree& tree,
                                       const MiningContext& context) {
  COUSINS_METRIC_SCOPED_TIMER("mine.multi.add_tree");
  if (labels_ == nullptr) {
    labels_ = tree.labels_ptr();
  } else if (labels_ != tree.labels_ptr()) {
    return Status::InvalidArgument(
        "all trees in a forest must share one LabelTable");
  }
  COUSINS_RETURN_IF_ERROR(context.Check());

  const Status mined = MineAndFoldTree(tree, context);
  if (!mined.ok()) {
    // Discard the half-mined tree: tallies must only ever reflect
    // fully-mined trees so a truncated run is a valid prefix tally.
    return mined;
  }
  ++tree_count_;
  COUSINS_METRIC_COUNTER_ADD("mine.multi.trees_added", 1);
  COUSINS_METRIC_HISTOGRAM_RECORD("mine.multi.tally_size", total_tallies_);
  if (context.governed() &&
      total_tallies_ > context.budget().max_pair_map_entries) {
    return Status::ResourceExhausted(
        "support-tally budget exceeded (" +
        std::to_string(total_tallies_) + " entries > " +
        std::to_string(context.budget().max_pair_map_entries) + ")");
  }
  return Status::OK();
}

Status MultiTreeMiner::AddTreeDegraded(const Tree& tree,
                                       int64_t source_index,
                                       const MiningContext& context,
                                       const DegradedModeConfig& degraded) {
  Status st = AddTreeGoverned(tree, context);
  if (st.ok() || !degraded.lenient || IsGovernanceTrip(st)) return st;
  COUSINS_CHECK(degraded.ledger != nullptr &&
                "lenient mode requires a quarantine ledger");
  QuarantineEntry entry;
  entry.tree_index = source_index;
  entry.source = degraded.source_name;
  entry.code = st.code();
  entry.message = st.message();
  entry.stage = QuarantineStage::kMine;
  degraded.ledger->Add(std::move(entry));
  // The skipped tree still advances the stream cursor: a checkpointed
  // resume must not re-mine (and re-quarantine) it, and re-running
  // from scratch re-creates the same entry deterministically.
  ++tree_count_;
  COUSINS_METRIC_COUNTER_ADD("degraded.trees_skipped", 1);
  return Status::OK();
}

void MultiTreeMiner::MergeFrom(const MultiTreeMiner& other) {
  // Full option equality: any divergence between shards would silently
  // merge tallies mined under different parameters.
  COUSINS_CHECK(options_ == other.options_ &&
                "MergeFrom requires identical mining options");
  COUSINS_METRIC_SCOPED_TIMER("mine.multi.merge");
  COUSINS_FAULT_POINT("multiminer.merge");
  COUSINS_METRIC_COUNTER_ADD("mine.multi.merges", 1);
  COUSINS_METRIC_COUNTER_ADD("mine.multi.merged_tallies",
                             other.total_tallies_);
  if (other.labels_ != nullptr) {
    if (labels_ == nullptr) {
      labels_ = other.labels_;
    } else {
      COUSINS_CHECK(labels_ == other.labels_);
    }
  }
  tree_count_ += other.tree_count_;
  EnsureTallyCapacity();
  // Reserve each target for the sum of both sides before folding, so a
  // large merge rehashes at most once instead of growing step by step.
  // The sum is capped at the number of unordered label pairs: when both
  // sides hold the same complete pair universe (a small alphabet) the
  // table already has room and must not double for nothing.
  const size_t cardinality = labels_ == nullptr ? 0 : labels_->size();
  const size_t pair_universe = cardinality * (cardinality + 1) / 2;
  const auto reserve_for = [&](auto& mine, const auto& theirs) {
    mine.ReserveLive(std::min(mine.live() + theirs.live(), pair_universe));
  };
  // Identical options imply identical table counts; per-distance
  // merging is a straight SoA-to-SoA fold, no key re-derivation.
  COUSINS_CHECK(tables_.size() == other.tables_.size());
  for (size_t d = 0; d < tables_.size(); ++d) {
    internal::TallyMap& mine = tables_[d];
    reserve_for(mine, other.tables_[d]);
    other.tables_[d].ForEach(
        [&](uint64_t key, int32_t support, int64_t occurrences) {
          total_tallies_ += mine.Add(key, support, occurrences);
        });
  }
  COUSINS_CHECK(aux_tables_.size() == other.aux_tables_.size());
  for (size_t d = 0; d < aux_tables_.size(); ++d) {
    internal::AuxTallyMap& mine = aux_tables_[d];
    reserve_for(mine, other.aux_tables_[d]);
    other.aux_tables_[d].ForEach(
        [&](internal::AuxKey key, int32_t support, int64_t occurrences) {
          total_tallies_ += mine.Add(key, support, occurrences);
        });
  }
}

void MultiTreeMiner::SubtractFrom(const MultiTreeMiner& other) {
  COUSINS_CHECK(options_ == other.options_ &&
                "SubtractFrom requires identical mining options");
  COUSINS_CHECK((labels_ == nullptr || other.labels_ == nullptr ||
                 labels_ == other.labels_) &&
                "SubtractFrom requires a shared label table");
  COUSINS_METRIC_SCOPED_TIMER("mine.multi.subtract");
  COUSINS_METRIC_COUNTER_ADD("mine.multi.subtracts", 1);
  COUSINS_METRIC_COUNTER_ADD("mine.multi.subtracted_tallies",
                             other.total_tallies_);
  tree_count_ -= other.tree_count_;
  if (tree_count_ < 0) tree_count_ = 0;
  COUSINS_CHECK(tables_.size() == other.tables_.size());
  for (size_t d = 0; d < tables_.size(); ++d) {
    internal::TallyMap& mine = tables_[d];
    other.tables_[d].ForEach(
        [&](uint64_t key, int32_t support, int64_t occurrences) {
          total_tallies_ += mine.Subtract(key, support, occurrences);
        });
  }
  COUSINS_CHECK(aux_tables_.size() == other.aux_tables_.size());
  for (size_t d = 0; d < aux_tables_.size(); ++d) {
    internal::AuxTallyMap& mine = aux_tables_[d];
    other.aux_tables_[d].ForEach(
        [&](internal::AuxKey key, int32_t support, int64_t occurrences) {
          total_tallies_ += mine.Subtract(key, support, occurrences);
        });
  }
}

MultiTreeMiner::AccumulatorStats MultiTreeMiner::accumulator_stats()
    const {
  AccumulatorStats stats;
  for (const internal::TallyMap& t : tables_) {
    stats.tally_grows += t.stats().grows;
    stats.tally_probes += t.stats().probes;
  }
  for (const internal::AuxTallyMap& t : aux_tables_) {
    stats.tally_grows += t.stats().grows;
    stats.tally_probes += t.stats().probes;
  }
  stats.tally_entries = total_tallies_;
  stats.scratch_rehashes = scratch_.AccumulatorRehashes() +
                           fold_scratch_.stats().rehashes +
                           variant_scratch_.AccumulatorRehashes();
  return stats;
}

std::vector<FrequentCousinPair> MultiTreeMiner::FrequentPairs() const {
  std::vector<FrequentCousinPair> out;
  for (size_t d = 0; d < tables_.size(); ++d) {
    const int twice_distance = TableDistance(d);
    tables_[d].ForEach(
        [&](uint64_t key, int32_t support, int64_t occurrences) {
          if (support >= options_.min_support) {
            out.push_back(FrequentCousinPair{UnpackFirst(key),
                                             UnpackSecond(key),
                                             twice_distance, support,
                                             occurrences});
          }
        });
  }
  std::sort(out.begin(), out.end(),
            [](const FrequentCousinPair& a, const FrequentCousinPair& b) {
              if (a.support != b.support) return a.support > b.support;
              return std::tie(a.label1, a.label2, a.twice_distance) <
                     std::tie(b.label1, b.label2, b.twice_distance);
            });
  return out;
}

std::vector<FrequentCousinPair> MultiTreeMiner::AllTallies() const {
  std::vector<FrequentCousinPair> out;
  out.reserve(static_cast<size_t>(total_tallies_));
  for (size_t d = 0; d < tables_.size(); ++d) {
    const int twice_distance = TableDistance(d);
    tables_[d].ForEach(
        [&](uint64_t key, int32_t support, int64_t occurrences) {
          out.push_back(FrequentCousinPair{UnpackFirst(key),
                                           UnpackSecond(key),
                                           twice_distance, support,
                                           occurrences});
        });
  }
  std::sort(out.begin(), out.end(),
            [](const FrequentCousinPair& a, const FrequentCousinPair& b) {
              return std::tie(a.label1, a.label2, a.twice_distance) <
                     std::tie(b.label1, b.label2, b.twice_distance);
            });
  return out;
}

std::vector<FrequentGeneralizedPair> MultiTreeMiner::AllGeneralizedTallies()
    const {
  std::vector<FrequentGeneralizedPair> out;
  if (aux_tables_.empty()) return out;
  out.reserve(static_cast<size_t>(total_tallies_));
  aux_tables_[0].ForEach(
      [&](internal::AuxKey key, int32_t support, int64_t occurrences) {
        out.push_back(FrequentGeneralizedPair{
            UnpackFirst(key.pair), UnpackSecond(key.pair),
            internal::UnpackH(key.aux), internal::UnpackV(key.aux), support,
            occurrences});
      });
  std::sort(out.begin(), out.end(),
            [](const FrequentGeneralizedPair& a,
               const FrequentGeneralizedPair& b) {
              return std::tie(a.label1, a.label2, a.horizontal, a.vertical) <
                     std::tie(b.label1, b.label2, b.horizontal, b.vertical);
            });
  return out;
}

std::vector<FrequentGeneralizedPair> MultiTreeMiner::FrequentGeneralizedPairs()
    const {
  std::vector<FrequentGeneralizedPair> out = AllGeneralizedTallies();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const FrequentGeneralizedPair& p) {
                             return p.support < options_.min_support;
                           }),
            out.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const FrequentGeneralizedPair& a,
                      const FrequentGeneralizedPair& b) {
                     return a.support > b.support;
                   });
  return out;
}

std::vector<FrequentWeightedPair> MultiTreeMiner::AllWeightedTallies() const {
  std::vector<FrequentWeightedPair> out;
  out.reserve(static_cast<size_t>(total_tallies_));
  for (size_t d = 0; d < aux_tables_.size(); ++d) {
    const int twice_distance = static_cast<int>(d);
    aux_tables_[d].ForEach(
        [&](internal::AuxKey key, int32_t support, int64_t occurrences) {
          out.push_back(FrequentWeightedPair{
              UnpackFirst(key.pair), UnpackSecond(key.pair), twice_distance,
              internal::UnpackBucket(key.aux), support, occurrences});
        });
  }
  std::sort(out.begin(), out.end(),
            [](const FrequentWeightedPair& a, const FrequentWeightedPair& b) {
              return std::tie(a.label1, a.label2, a.twice_distance,
                              a.weight_bucket) <
                     std::tie(b.label1, b.label2, b.twice_distance,
                              b.weight_bucket);
            });
  return out;
}

std::vector<FrequentWeightedPair> MultiTreeMiner::FrequentWeightedPairs()
    const {
  std::vector<FrequentWeightedPair> out = AllWeightedTallies();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const FrequentWeightedPair& p) {
                             return p.support < options_.min_support;
                           }),
            out.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const FrequentWeightedPair& a,
                      const FrequentWeightedPair& b) {
                     return a.support > b.support;
                   });
  return out;
}

void MultiTreeMiner::ExtractResults(MultiTreeMiningRun* run) const {
  switch (options_.variant) {
    case MinerVariant::kCousin:
    case MinerVariant::kFreeTree:
      run->pairs = FrequentPairs();
      break;
    case MinerVariant::kGeneralized:
      run->generalized = FrequentGeneralizedPairs();
      break;
    case MinerVariant::kWeighted:
      run->weighted = FrequentWeightedPairs();
      break;
  }
}

std::vector<FrequentCousinPair> MineMultipleTrees(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options) {
  COUSINS_CHECK(ValidateVariantOptions(options).ok());
  MultiTreeMiner miner(options);
  for (const Tree& tree : trees) miner.AddTree(tree);
  return miner.FrequentPairs();
}

Result<MultiTreeMiningRun> MineMultipleTreesGoverned(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context) {
  COUSINS_RETURN_IF_ERROR(ValidateVariantOptions(options));
  MultiTreeMiner miner(options);
  MultiTreeMiningRun run;
  for (const Tree& tree : trees) {
    Status st = miner.AddTreeGoverned(tree, context);
    if (!st.ok()) {
      obs::RecordGovernanceEvent(st);
      if (!IsGovernanceTrip(st)) return st;  // hard error: no result
      run.truncated = true;
      run.termination = std::move(st);
      break;
    }
  }
  run.trees_processed = miner.tree_count();
  miner.ExtractResults(&run);
  return run;
}

std::string FormatFrequentPair(const LabelTable& labels,
                               const FrequentCousinPair& pair) {
  std::string out = "(";
  out += labels.Name(pair.label1);
  out += ", ";
  out += labels.Name(pair.label2);
  out += ", ";
  out += pair.twice_distance == kAnyDistance
             ? "@"
             : FormatHalfDistance(pair.twice_distance);
  out += ") support=" + std::to_string(pair.support);
  out += " occ=" + std::to_string(pair.total_occurrences);
  return out;
}

std::string FormatFrequentGeneralizedPair(const LabelTable& labels,
                                          const FrequentGeneralizedPair& pair) {
  std::string out = "(";
  out += labels.Name(pair.label1);
  out += ", ";
  out += labels.Name(pair.label2);
  out += ", h=" + std::to_string(pair.horizontal);
  out += ", v=" + std::to_string(pair.vertical);
  out += ") support=" + std::to_string(pair.support);
  out += " occ=" + std::to_string(pair.total_occurrences);
  return out;
}

std::string FormatFrequentWeightedPair(const LabelTable& labels,
                                       const FrequentWeightedPair& pair) {
  std::string out = "(";
  out += labels.Name(pair.label1);
  out += ", ";
  out += labels.Name(pair.label2);
  out += ", ";
  out += FormatHalfDistance(pair.twice_distance);
  out += ", w" + std::to_string(pair.weight_bucket);
  out += ") support=" + std::to_string(pair.support);
  out += " occ=" + std::to_string(pair.total_occurrences);
  return out;
}

}  // namespace cousins
