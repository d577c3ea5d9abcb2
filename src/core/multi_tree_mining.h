// Multiple_Tree_Mining (paper §3): frequent cousin pairs across a forest.
//
// A cousin pair (with a distance value d, or with distance ignored — the
// paper's "@") is frequent if at least `min_support` trees contain it
// with at least `min_occur` occurrences. Complexity O(N²_total) where
// N_total = Σ|Tᵢ|, i.e. linear in the number of trees for bounded tree
// size — the shape Figure 6/7 demonstrates.
//
// MultiTreeMiner is incremental (AddTree streams trees through without
// retaining them), which is how the 10⁶-tree experiment of Figure 6 runs
// in constant memory.

#ifndef COUSINS_CORE_MULTI_TREE_MINING_H_
#define COUSINS_CORE_MULTI_TREE_MINING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cousin_pair.h"
#include "core/miner_variant.h"
#include "core/mining_scratch.h"
#include "core/quarantine.h"
#include "core/single_tree_mining.h"
#include "core/tally_map.h"
#include "core/variant_mining.h"
#include "tree/tree.h"
#include "util/governance.h"
#include "util/result.h"

namespace cousins {

struct MultiTreeMiningOptions {
  /// Per-tree mining parameters (maxdist, minoccur; Table 2 defaults).
  /// Every variant honors min_occur; twice_maxdist governs the cousin,
  /// free-tree and weighted variants (the generalized variant's reach
  /// comes from its own caps below).
  MiningOptions per_tree;
  /// minsup: minimum number of trees containing the pair. Default 2,
  /// the paper's Table 2 value.
  int min_support = 2;
  /// When true, support is counted per label pair regardless of the
  /// cousin distance (the paper's "@" abstraction). Cousin and
  /// free-tree variants only; ValidateVariantOptions rejects it for
  /// the generalized/weighted variants, whose item identity is not a
  /// (pair, distance).
  bool ignore_distance = false;
  /// Which per-tree fold this forest runs (core/miner_variant.h).
  MinerVariant variant = MinerVariant::kCousin;
  /// Extra knobs of the generalized / weighted variants; ignored (but
  /// still part of option equality) for the others.
  GeneralizedVariantOptions generalized;
  WeightedVariantOptions weighted;

  /// Memberwise; MergeFrom requires full option equality between
  /// shards, so new fields are covered automatically.
  friend bool operator==(const MultiTreeMiningOptions&,
                         const MultiTreeMiningOptions&) = default;
};

/// Validates the variant-specific option surface: the generalized and
/// weighted variants reject ignore_distance, the generalized caps must
/// be non-negative and fit the packed 16-bit aux halves, and the
/// weighted bucket width must be finite and > 0. The forest drivers
/// call this up front so misconfiguration is a kInvalidArgument, never
/// a silent empty result.
Status ValidateVariantOptions(const MultiTreeMiningOptions& options);

/// A frequent cousin pair with its support (number of containing trees)
/// and the total occurrence count summed over all containing trees.
struct FrequentCousinPair {
  LabelId label1 = kNoLabel;
  LabelId label2 = kNoLabel;
  /// 2·d, or kAnyDistance under ignore_distance.
  int twice_distance = kUndefinedDistance;
  int support = 0;
  int64_t total_occurrences = 0;

  friend bool operator==(const FrequentCousinPair&,
                         const FrequentCousinPair&) = default;
};

/// A frequent generalized cousin pair (the kGeneralized variant's
/// result row): unordered label pair with its (horizontal, vertical)
/// kinship, support and summed occurrences.
struct FrequentGeneralizedPair {
  LabelId label1 = kNoLabel;
  LabelId label2 = kNoLabel;
  int32_t horizontal = 0;
  int32_t vertical = 0;
  int support = 0;
  int64_t total_occurrences = 0;

  friend bool operator==(const FrequentGeneralizedPair&,
                         const FrequentGeneralizedPair&) = default;
};

/// A frequent weighted cousin pair (the kWeighted variant's result
/// row): the unweighted key plus the weighted-path bucket.
struct FrequentWeightedPair {
  LabelId label1 = kNoLabel;
  LabelId label2 = kNoLabel;
  int twice_distance = kUndefinedDistance;
  int32_t weight_bucket = 0;
  int support = 0;
  int64_t total_occurrences = 0;

  friend bool operator==(const FrequentWeightedPair&,
                         const FrequentWeightedPair&) = default;
};

struct MultiTreeMiningRun;

/// Incremental frequent-pair counter over a stream of trees. All trees
/// must share one LabelTable. The per-tree reduction is selected by
/// options.variant; accessors are per-variant (FrequentPairs for the
/// cousin/free variants, FrequentGeneralizedPairs / FrequentWeightedPairs
/// for the others) and ExtractResults fills the matching field of a
/// MultiTreeMiningRun.
class MultiTreeMiner {
 public:
  explicit MultiTreeMiner(MultiTreeMiningOptions options = {});

  /// Binds the forest label table up front, before any tree is added.
  /// AddTree adopts the first tree's table automatically; binding
  /// explicitly matters when the miner may see zero trees but its
  /// serialized snapshot must still carry the table — a lenient shard
  /// whose entries all failed to parse still interned labels before
  /// each failure, and downstream label IDs depend on them. No-op when
  /// the same table is already bound; a different table is a
  /// programming error.
  void BindLabels(std::shared_ptr<LabelTable> labels);

  /// Mines one tree and folds its items into the support counts. The
  /// tree is not retained.
  void AddTree(const Tree& tree);

  /// Governed AddTree. Returns OK when the tree was fully mined and
  /// folded. On a governance trip (kCancelled / kDeadlineExceeded /
  /// kResourceExhausted) the half-mined tree is discarded — tallies
  /// only ever cover completely-mined trees, so a partial result is a
  /// well-formed tally over a prefix of the stream. A label-table
  /// mismatch comes back as kInvalidArgument instead of aborting.
  Status AddTreeGoverned(const Tree& tree, const MiningContext& context);

  /// AddTreeGoverned with per-tree error isolation. Governance trips
  /// still propagate (the whole run is being stopped). Any other
  /// failure — e.g. a label-table mismatch — is, in lenient mode,
  /// recorded in `degraded.ledger` as a mining-stage quarantine under
  /// `source_index` and swallowed: the tree still advances
  /// tree_count() (the stream cursor covers skipped trees, so a
  /// checkpointed resume does not re-mine them) but contributes no
  /// tallies. In strict mode this is exactly AddTreeGoverned.
  Status AddTreeDegraded(const Tree& tree, int64_t source_index,
                         const MiningContext& context,
                         const DegradedModeConfig& degraded);

  /// Number of trees added so far.
  int tree_count() const { return tree_count_; }

  /// Folds another miner's tallies into this one (used by the parallel
  /// sharded miner). Both must have identical options and label tables.
  void MergeFrom(const MultiTreeMiner& other);

  /// Inverse of MergeFrom: counted subtraction of another miner's
  /// tallies (the daemon's RETRACT primitive — the retracted batch is
  /// re-mined into a staging miner and subtracted here). Supports and
  /// occurrences clamp at zero; entries netting out to zero leave the
  /// live tally count (and ForEach/FrequentPairs visibility) exactly as
  /// if the batch had never been ingested. Both miners must have
  /// identical options and label tables.
  void SubtractFrom(const MultiTreeMiner& other);

  /// All pairs with support >= min_support, sorted by descending
  /// support, then canonical label/distance order.
  std::vector<FrequentCousinPair> FrequentPairs() const;

  /// Every tally regardless of min_support, sorted by canonical key
  /// order — the deterministic basis of checkpoint serialization.
  std::vector<FrequentCousinPair> AllTallies() const;

  /// kGeneralized-variant results: pairs with support >= min_support,
  /// sorted by descending support then canonical (labels, h, v) order;
  /// AllGeneralizedTallies is every tally in canonical key order.
  std::vector<FrequentGeneralizedPair> FrequentGeneralizedPairs() const;
  std::vector<FrequentGeneralizedPair> AllGeneralizedTallies() const;

  /// kWeighted-variant results, mirroring the generalized accessors.
  std::vector<FrequentWeightedPair> FrequentWeightedPairs() const;
  std::vector<FrequentWeightedPair> AllWeightedTallies() const;

  /// Fills the variant-matching result field of `run` (pairs /
  /// generalized / weighted) from the current tallies — the single
  /// dispatch point the forest drivers use, so they stay
  /// variant-agnostic.
  void ExtractResults(MultiTreeMiningRun* run) const;

  const MultiTreeMiningOptions& options() const { return options_; }

  /// Cumulative hash-table accounting across the miner's fold path and
  /// its reusable per-tree scratch. `tally_grows` / `scratch_rehashes`
  /// count reactive (load-factor) rehashes and are maintained in every
  /// build; they back the regression test that label-cardinality
  /// presizing plus scratch reuse makes steady-state mining
  /// allocation-free. `tally_probes` is telemetry-only (zero with
  /// COUSINS_METRICS=OFF).
  struct AccumulatorStats {
    int64_t tally_grows = 0;
    int64_t tally_probes = 0;
    int64_t tally_entries = 0;
    int64_t scratch_rehashes = 0;
  };
  AccumulatorStats accumulator_stats() const;

  /// Serializes the full miner state (options, label names, tallies,
  /// tree cursor) into the checkpoint format documented in
  /// core/checkpoint.h, together with the run's quarantine ledger
  /// (empty section when `ledger` is null or empty). Defined in
  /// checkpoint.cc.
  std::string SerializeCheckpoint(
      const QuarantineLedger* ledger = nullptr) const;

  /// Validates and decodes a checkpoint: magic, version, length, CRC
  /// and options-equality each fail with a distinct error; nothing is
  /// partially loaded on failure. Tally labels are re-interned into
  /// `labels` (the forest's shared table) by name, so the restored
  /// miner accepts AddTree for trees over that table and resuming at
  /// tree_count() reproduces an uninterrupted run's tallies exactly.
  /// A checkpoint carrying a non-empty quarantine ledger was written
  /// by a lenient run and needs `ledger` to restore into (entries are
  /// merged; exact duplicates of already-recorded entries are
  /// dropped); passing null for such a checkpoint is a
  /// kFailedPrecondition — a strict resume must not silently drop the
  /// quarantine record. Defined in checkpoint.cc.
  static Result<MultiTreeMiner> RestoreFromCheckpoint(
      const std::string& bytes,
      const MultiTreeMiningOptions& expected_options,
      std::shared_ptr<LabelTable> labels,
      QuarantineLedger* ledger = nullptr);

 private:
  /// RestoreFromCheckpoint's decoding body; the public wrapper adds the
  /// checkpoint.restores / checkpoint.restore_failures telemetry.
  static Result<MultiTreeMiner> RestoreFromCheckpointImpl(
      const std::string& bytes,
      const MultiTreeMiningOptions& expected_options,
      std::shared_ptr<LabelTable> labels, QuarantineLedger* ledger);

  /// Folds one fully-mined tree's items into the tallies (saturating).
  void FoldItems(const std::vector<CousinPairItem>& items);

  /// Variant folds into the aux tables (saturating): generalized items
  /// into aux_tables_[0] keyed (pair, (h, v)); weighted items into
  /// aux_tables_[twice_distance] keyed (pair, bucket).
  void FoldGeneralized(const std::vector<GeneralizedPairItem>& items);
  void FoldWeighted(const std::vector<WeightedPairItem>& items);

  /// Runs the variant-selected per-tree fold and folds its items;
  /// the body of AddTreeGoverned after the shared label/governance
  /// preamble.
  Status MineAndFoldTree(const Tree& tree, const MiningContext& context);

  /// Table index for an item's twice-distance: the distance itself,
  /// or 0 for the single kAnyDistance table under ignore_distance.
  size_t TableIndex(int twice_distance) const;

  /// Rendered twice-distance of table `index` (inverse of TableIndex).
  int TableDistance(size_t index) const;

  /// Presizes every distance table from the forest label-table
  /// cardinality (distinct unordered pairs over the interned alphabet,
  /// capped), so workloads with a bounded alphabet never trigger a
  /// reactive grow mid-fold. Re-run whenever the cardinality has grown
  /// past the last presize.
  void EnsureTallyCapacity();

  MultiTreeMiningOptions options_;
  std::shared_ptr<LabelTable> labels_;  // identity check across trees
  /// Flat SoA support tables, one per twice-distance value (a single
  /// table under ignore_distance); keys are packed label pairs. The
  /// cousin and free-tree variants tally here.
  std::vector<internal::TallyMap> tables_;
  /// Aux-keyed support tables for the generalized variant (one table,
  /// aux = packed (h, v)) and the weighted variant (one table per
  /// twice-distance, aux = bucket). Empty for the other variants.
  std::vector<internal::AuxTallyMap> aux_tables_;
  /// Live tallies across all tables (== the old tallies_.size()).
  int64_t total_tallies_ = 0;
  /// Label cardinality the tables were last presized for.
  size_t sized_for_labels_ = 0;
  /// Reusable per-tree buffers (mining levels, accumulators, items)
  /// and the per-tree distance-collapse counter for ignore_distance.
  internal::MiningScratch scratch_;
  internal::PairCountMap fold_scratch_;
  /// Reusable per-tree buffers of the non-cousin variant folds.
  internal::VariantScratch variant_scratch_;
  int tree_count_ = 0;
};

/// Convenience wrapper: mines a whole forest at once.
std::vector<FrequentCousinPair> MineMultipleTrees(
    const std::vector<Tree>& trees,
    const MultiTreeMiningOptions& options = {});

/// Outcome of a governed forest mining run. Exactly one of the result
/// vectors is populated, matching the run's variant: `pairs` for the
/// cousin and free-tree variants, `generalized` / `weighted` for the
/// others. On a trip the populated vector is the frequent tally over
/// the first `trees_processed` trees (`truncated` set, `termination`
/// holding the trip status); when the run completes it is
/// bit-identical to the sequential leg.
struct MultiTreeMiningRun {
  std::vector<FrequentCousinPair> pairs;
  std::vector<FrequentGeneralizedPair> generalized;
  std::vector<FrequentWeightedPair> weighted;
  int32_t trees_processed = 0;
  bool truncated = false;
  Status termination;
};

/// MineMultipleTrees under a resource-governance context. Hard input
/// errors (e.g. trees over different label tables) come back as an
/// error Result; governance trips come back OK with a partial,
/// truncated-flagged run.
Result<MultiTreeMiningRun> MineMultipleTreesGoverned(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context);

/// "(a, b, 1.5) support=2 occ=5" rendering for reports.
std::string FormatFrequentPair(const LabelTable& labels,
                               const FrequentCousinPair& pair);

/// "(a, b, h=0, v=1) support=2 occ=5" rendering.
std::string FormatFrequentGeneralizedPair(const LabelTable& labels,
                                          const FrequentGeneralizedPair& pair);

/// "(a, b, 1.5, w7) support=2 occ=5" rendering.
std::string FormatFrequentWeightedPair(const LabelTable& labels,
                                       const FrequentWeightedPair& pair);

}  // namespace cousins

#endif  // COUSINS_CORE_MULTI_TREE_MINING_H_
