// Parallel Multiple_Tree_Mining: shards a forest across worker threads,
// each running the single-tree miner with thread-local tallies. The
// shard with the most live tallies is adopted as the batch result; the
// others merge into it once, into a target reserved up to the pair
// universe, and a fresh run's accumulator adopts its first batch.
// Results are bit-identical to the sequential MineMultipleTrees
// (merging is commutative integer addition).
//
// The checkpointed driver additionally snapshots the accumulated tally
// at batch boundaries (core/checkpoint.h), so a crashed or governance-
// tripped run can resume at the last boundary and still produce
// bit-identical final output.

#ifndef COUSINS_CORE_PARALLEL_MINING_H_
#define COUSINS_CORE_PARALLEL_MINING_H_

#include <cstdint>
#include <vector>

#include "core/checkpoint.h"
#include "core/multi_tree_mining.h"
#include "util/governance.h"
#include "util/result.h"

namespace cousins {

/// Like MineMultipleTrees but mining trees on `num_threads` workers
/// (0 = std::thread::hardware_concurrency). Deterministic output.
std::vector<FrequentCousinPair> MineMultipleTreesParallel(
    const std::vector<Tree>& trees,
    const MultiTreeMiningOptions& options = {}, int32_t num_threads = 0);

/// Governed parallel mining with fault containment:
///  - Worker exceptions (including injected faults at the
///    `parallel.worker` site) are caught per shard and surfaced as a
///    single kInternal error Status after every worker has joined —
///    never std::terminate. This holds for one worker too: unlike the
///    sequential miner, a single-threaded governed run is contained.
///  - Workers run under a child of the caller's cancellation token; a
///    fault or budget trip in one shard cancels the child so sibling
///    shards stop early, without cancelling the caller's own token.
///  - Budgets (`max_items`, `max_pair_map_entries`) are enforced per
///    shard; half-mined trees are discarded, so on a trip the returned
///    run is a well-formed tally over the trees that completed
///    (`truncated` set, `termination` holding the first meaningful trip).
/// Governed-but-untripped runs are bit-identical to the sequential
/// miner. Governance outcomes are recorded in the metrics registry
/// (governance.* counters).
Result<MultiTreeMiningRun> MineMultipleTreesParallelGoverned(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, int32_t num_threads = 0);

/// MineMultipleTreesParallelGoverned under a degraded-mode policy
/// (core/quarantine.h):
///  - With `degraded.lenient` set, per-tree mining failures that are
///    not governance trips are quarantined into `degraded.ledger`
///    (stage kMine) instead of aborting the run; the quarantined tree
///    advances the stream cursor but contributes no tallies. Ledger
///    entries carry the tree's original forest index — when the caller
///    already dropped parse-failed trees, `degraded.source_indices`
///    (parallel to `trees`) maps positions back to original indices.
///  - With `degraded.watchdog_interval > 0`, a watchdog thread samples
///    per-shard heartbeats (one beat per fully-mined tree). A shard
///    making no progress for a full interval is declared stalled: its
///    siblings are cancelled via the shared child token and the run
///    terminates as a kDeadlineExceeded governance trip naming the
///    stalled shard and its last-known tree cursor — a hung worker
///    degrades into a truncated partial result instead of hanging the
///    caller forever. The watchdog forces the threaded path even for
///    one worker. Fault site `watchdog.stall` (only active while the
///    watchdog is on) simulates a worker wedging mid-shard.
/// A default-constructed DegradedModeConfig reproduces the strict
/// overload above exactly.
Result<MultiTreeMiningRun> MineMultipleTreesParallelGoverned(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, const DegradedModeConfig& degraded,
    int32_t num_threads = 0);

/// MineMultipleTreesParallelGoverned with crash-safe checkpointing.
/// With `config.path` set, the forest is mined in batches of
/// `config.every_trees` trees and the accumulated tally is atomically
/// checkpointed at every batch boundary, on governance trips, and on
/// completion (cursor == forest size). With `config.resume` set, an
/// existing checkpoint is validated (version / CRC / options equality —
/// each failure is a distinct error, never a silent re-mine) and
/// ingestion restarts at its cursor; a missing file is a fresh start.
/// Resuming produces tallies bit-identical to an uninterrupted run.
/// Checkpoint write failures are hard errors; the previous checkpoint
/// file, if any, is always left intact.
Result<MultiTreeMiningRun> MineMultipleTreesCheckpointed(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, const MiningCheckpointConfig& config,
    int32_t num_threads = 0);

/// MineMultipleTreesCheckpointed under a degraded-mode policy. On top
/// of the lenient / watchdog semantics documented on the governed
/// overload:
///  - Checkpoint reads and atomic writes are transient surfaces
///    (kUnavailable): they are retried under `degraded.retry` with
///    deterministic exponential backoff before the failure is
///    surfaced. Permanent failures (NotFound, corruption, version or
///    options mismatch) are never retried. The default
///    RetryPolicy::None() fails fast, preserving strict semantics.
///  - `degraded.ledger`, when set, is serialized into every
///    checkpoint (format v2) and merged back on resume, so a killed
///    lenient run resumes with both its tallies and its quarantine
///    record intact — the final ledger is byte-identical to an
///    uninterrupted run's.
Result<MultiTreeMiningRun> MineMultipleTreesCheckpointed(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, const MiningCheckpointConfig& config,
    const DegradedModeConfig& degraded, int32_t num_threads = 0);

}  // namespace cousins

#endif  // COUSINS_CORE_PARALLEL_MINING_H_
