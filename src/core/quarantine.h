// Quarantine ledger: the record of every tree a degraded-mode
// (lenient) run dropped, and the knob that opts a driver into
// degraded execution.
//
// Production TreeBASE-style corpora are dirty; strict mode (the
// default) aborts at the first malformed tree, while lenient mode
// isolates each failure — parse errors, per-tree mining failures, bad
// consensus inputs, failed bootstrap replicates — into a
// QuarantineEntry carrying the tree's stable index, source, error
// position, Status, and an input snippet, then continues on the
// healthy subset. The ledger is serialized into the checkpoint format
// (core/checkpoint.h, version 2) so a crash→resume of a lenient run
// reproduces a bit-identical ledger alongside bit-identical tallies.
//
// Quarantining is deterministic: re-running the same input re-creates
// the same entries, and Add() drops exact duplicates so a resumed or
// re-tripped batch never double-records a tree.

#ifndef COUSINS_CORE_QUARANTINE_H_
#define COUSINS_CORE_QUARANTINE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tree/newick.h"
#include "util/retry.h"
#include "util/status.h"

namespace cousins {

/// Pipeline stage at which a tree was quarantined.
enum class QuarantineStage : uint8_t {
  kParse = 0,
  kMine = 1,
  kConsensus = 2,
  kBootstrap = 3,
};

/// Stable lowercase name ("parse", "mine", ...) for reports.
std::string_view QuarantineStageName(QuarantineStage stage);

/// One quarantined tree: everything a health report needs to name the
/// bad input and why it was dropped.
struct QuarantineEntry {
  /// Stable index of the tree in its source (forest entry number,
  /// replicate number, ...), not its position in any filtered vector.
  int64_t tree_index = 0;
  /// Source file or logical source name ("-" for stdin, "" unknown).
  std::string source;
  /// Error position in the source text; line/column are 1-based and 0
  /// when unknown (non-parse stages).
  uint64_t byte_offset = 0;
  uint64_t line = 0;
  uint64_t column = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// Truncated text of the offending entry (parse stage only).
  std::string snippet;
  QuarantineStage stage = QuarantineStage::kParse;

  friend bool operator==(const QuarantineEntry&,
                         const QuarantineEntry&) = default;
};

/// Thread-safe, deterministic ledger of quarantined trees. Workers of a
/// parallel lenient run Add() concurrently; Entries() returns a
/// canonical ordering so serialization and reports are byte-stable
/// regardless of arrival order.
class QuarantineLedger {
 public:
  /// Records one quarantined tree; exact duplicates (all fields equal)
  /// are dropped, so deterministic re-quarantining on a resumed or
  /// re-mined batch cannot double-record.
  void Add(QuarantineEntry entry);

  size_t size() const;
  bool empty() const;

  /// Entries sorted by (tree_index, stage, source, message) — the
  /// canonical order used by checkpoint serialization and reports.
  std::vector<QuarantineEntry> Entries() const;

  /// Count of entries per status-code name, for the health report's
  /// per-error-code histogram.
  std::map<std::string, int64_t> CodeHistogram() const;

  void Clear();

  /// Replaces the contents wholesale (checkpoint restore).
  void Replace(std::vector<QuarantineEntry> entries);

 private:
  mutable std::mutex mu_;
  std::vector<QuarantineEntry> entries_;
};

/// Records one lenient forest-parse failure in `ledger` as a
/// kParse-stage entry naming `source`. The CLI loader and the
/// multi-process shard workers both record entries through here, so a
/// sharded lenient run's ledger is byte-identical to the sequential
/// run's on the same input.
void QuarantineParseError(const std::string& source,
                          const ForestEntryError& error,
                          QuarantineLedger* ledger);

/// Shard scheduling policy of the parallel forest miner. Defaults give
/// work-stealing with a deterministic seed; results are bit-identical
/// to sequential mining under every setting (tallies merge
/// commutatively and outputs are canonically sorted), so these knobs
/// trade only throughput and telemetry, never answers.
struct ShardSchedulerOptions {
  /// Steal from other workers' deques when the own deque drains. Off =
  /// static chunked partitioning (each worker mines only its initially
  /// dealt chunks).
  bool work_stealing = true;
  /// Trees per scheduling chunk (the unit dealt to deques and stolen).
  /// <= 0 picks a heuristic from batch size and worker count.
  int32_t chunk_trees = 0;
  /// Seed of the per-worker victim visit order, so a hung run's steal
  /// pattern can be replayed exactly.
  uint64_t steal_seed = 0x9E3779B97F4A7C15ull;

  friend bool operator==(const ShardSchedulerOptions&,
                         const ShardSchedulerOptions&) = default;
};

/// Degraded-mode execution knob threaded through the mining drivers
/// and the phylo facades. Default-constructed = strict: today's
/// fail-fast behavior, no ledger, no retry, no watchdog.
struct DegradedModeConfig {
  /// Opt in to per-tree error isolation: non-trip per-tree failures
  /// are quarantined and skipped instead of aborting the run.
  bool lenient = false;
  /// Destination ledger; must be non-null when `lenient` is true.
  QuarantineLedger* ledger = nullptr;
  /// Optional map from a tree's position in the mined vector to its
  /// stable source index (forest entry number) — supplied by lenient
  /// parsing, where some entries never became trees. Null = identity.
  const std::vector<int64_t>* source_indices = nullptr;
  /// Recorded as QuarantineEntry::source for mining-stage entries.
  std::string source_name;
  /// Retry policy for the run's transient I/O (checkpoint reads and
  /// writes). Strict default: a single attempt, no retry.
  RetryPolicy retry = RetryPolicy::None();
  /// Worker stall watchdog: a shard making no progress for a full
  /// interval trips kDeadlineExceeded and cancels its siblings.
  /// Zero (the default) disables the watchdog.
  std::chrono::milliseconds watchdog_interval{0};
  /// Shard scheduling policy (execution-only, like watchdog_interval:
  /// it cannot change mining results).
  ShardSchedulerOptions scheduler;
};

}  // namespace cousins

#endif  // COUSINS_CORE_QUARANTINE_H_
