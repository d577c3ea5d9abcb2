#include "core/parallel_mining.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/governance_events.h"
#include "obs/metrics.h"
#include "obs/sched_events.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/retry.h"
#include "util/stopwatch.h"

namespace cousins {
namespace {

/// A contiguous run of tree indices, the unit of scheduling: dealt to
/// worker deques up front, stolen in bulk when a worker runs dry.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
};

/// Mutex-guarded chunk deque. The owner pops from the front (preserving
/// ingestion order within its initial deal); thieves take half from the
/// back, so an owner mid-corpus keeps the work nearest its cursor and
/// contention stays at the opposite end.
class ChunkDeque {
 public:
  void Push(Chunk chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    chunks_.push_back(chunk);
  }

  bool PopFront(Chunk* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (chunks_.empty()) return false;
    *out = chunks_.front();
    chunks_.pop_front();
    return true;
  }

  /// Moves the back half (at least one chunk) of this deque into
  /// `thief`. Returns the number of chunks transferred (0 = nothing to
  /// steal). Only this deque's mutex is held while extracting, so
  /// thief-side pushes cannot deadlock against concurrent steals.
  size_t StealHalfInto(ChunkDeque* thief) {
    std::vector<Chunk> taken;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t take = (chunks_.size() + 1) / 2;
      for (size_t i = 0; i < take; ++i) {
        taken.push_back(chunks_.back());
        chunks_.pop_back();
      }
    }
    // Front-of-thief in ascending index order: the stolen run was
    // popped back-to-front, so reverse-iterate to keep mining order
    // monotone within the haul.
    for (size_t i = taken.size(); i > 0; --i) thief->Push(taken[i - 1]);
    return taken.size();
  }

 private:
  std::mutex mu_;
  std::deque<Chunk> chunks_;
};

/// splitmix64 — the same mix PairCountMap keys with; used here to
/// derive each worker's deterministic starting victim from the
/// scheduler seed.
uint64_t MixSeed(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Scheduling chunk size: explicit knob, or a heuristic giving each
/// worker several chunks to deal and a meaningful back half to steal.
size_t ChunkSize(const ShardSchedulerOptions& sched, size_t batch,
                 int32_t workers) {
  if (sched.chunk_trees > 0) return static_cast<size_t>(sched.chunk_trees);
  const size_t target = batch / (static_cast<size_t>(workers) * 8);
  return std::clamp<size_t>(target, 1, 1024);
}

/// Original forest index for position `i` of the (possibly already
/// parse-filtered) tree vector.
int64_t SourceIndexAt(const DegradedModeConfig& degraded, size_t i) {
  if (degraded.source_indices != nullptr &&
      i < degraded.source_indices->size()) {
    return (*degraded.source_indices)[i];
  }
  return static_cast<int64_t>(i);
}

/// Outcome of mining one batch [begin, end) of the forest. `partial`
/// holds the batch's own tallies only (never the accumulated prefix).
struct BatchOutcome {
  MultiTreeMiner partial;
  /// OK on a clean batch, otherwise the governance trip that ended it.
  Status termination;
  /// True when `partial` covers an exact prefix of the batch even under
  /// a trip (single-worker ingestion is in order; chunk-scheduled
  /// multi-worker shards are not).
  bool prefix_exact = false;
};

/// Mines trees[begin, end) with containment. Hard failures (worker
/// exceptions, label-table mismatches, merge faults) come back as an
/// error Result with governance.worker_faults recorded; governance
/// trips come back OK with `termination` set.
Result<BatchOutcome> MineBatchGoverned(const std::vector<Tree>& trees,
                                       size_t begin, size_t end,
                                       const MultiTreeMiningOptions& options,
                                       const MiningContext& context,
                                       const DegradedModeConfig& degraded,
                                       int32_t num_threads) {
  const int32_t workers = std::min<int32_t>(
      std::max<int32_t>(1, num_threads), static_cast<int32_t>(end - begin));
  // The watchdog observes heartbeats from outside the shard, so it
  // needs the threaded path even when there is only one worker (the
  // inline path could not be watched without watching ourselves).
  const bool watchdog_enabled = degraded.watchdog_interval.count() > 0;

  if (workers <= 1 && !watchdog_enabled) {
    BatchOutcome outcome{MultiTreeMiner(options), Status::OK(), true};
    Status st;
    // Contain anything the miner throws — injected faults included — so
    // single-threaded governed runs degrade to a Status exactly like
    // multi-worker ones.
    try {
      fault::InjectionPoint("parallel.worker");
      for (size_t i = begin; i < end; ++i) {
        st = outcome.partial.AddTreeDegraded(trees[i],
                                             SourceIndexAt(degraded, i),
                                             context, degraded);
        if (!st.ok()) break;
      }
    } catch (const std::exception& e) {
      st = Status::Internal("worker 0 faulted: " + std::string(e.what()));
    } catch (...) {
      st = Status::Internal("worker 0 faulted with a non-standard exception");
    }
    if (!st.ok()) {
      if (!IsGovernanceTrip(st)) {
        obs::RecordWorkerFault();
        obs::RecordGovernanceEvent(st);
        return st;
      }
      outcome.termination = std::move(st);
    }
    return outcome;
  }

  // Workers check a child of the caller's token: cancelling the child
  // stops sibling shards early (on a fault or budget trip) without
  // cancelling the token the caller holds.
  CancellationToken stop =
      CancellationToken::ChildOf(context.cancellation());
  const MiningContext worker_context = context.WithCancellation(stop);

  std::vector<MultiTreeMiner> shards(workers, MultiTreeMiner(options));
  std::vector<Status> shard_status(workers);
  std::vector<double> shard_seconds(workers, 0.0);

  // Chunked deal: chunk k to deque k mod workers, ascending, so each
  // worker's own deque is a monotone subsequence of the batch and the
  // no-stealing configuration is a deterministic static partition.
  const ShardSchedulerOptions& sched = degraded.scheduler;
  const size_t chunk_size = ChunkSize(sched, end - begin, workers);
  std::vector<ChunkDeque> deques(workers);
  {
    size_t k = 0;
    for (size_t b = begin; b < end; b += chunk_size, ++k) {
      deques[k % workers].Push({b, std::min(end, b + chunk_size)});
    }
  }

  // Watchdog state. Heartbeats count fully-mined trees per shard;
  // `done` tells the watchdog a quiet shard has finished rather than
  // stalled; `last_index` is the tree a shard most recently started
  // (the stall cursor — under stealing there is no closed-form cursor
  // to derive from the beat count). Plain vectors of atomics: sized
  // once, never reallocated while threads run.
  std::vector<std::atomic<uint64_t>> heartbeats(workers);
  std::vector<std::atomic<bool>> shard_done(workers);
  std::vector<std::atomic<size_t>> last_index(workers);
  for (int32_t w = 0; w < workers; ++w) {
    heartbeats[w].store(0, std::memory_order_relaxed);
    shard_done[w].store(false, std::memory_order_relaxed);
    last_index[w].store(begin, std::memory_order_relaxed);
  }
  Status watchdog_trip;
  {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int32_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w]() {
        Stopwatch shard_sw;
        Status st;
        // Contain anything a worker throws: a raised exception must
        // become a Status after join, never std::terminate.
        try {
          fault::InjectionPoint("parallel.worker");
          // A wedged worker for the watchdog drill: spin without
          // beating until a sibling (the watchdog) cancels us. Guarded
          // by watchdog_enabled so the site never registers — and the
          // full-enumeration fault sweep never arms it — outside
          // watchdog runs, where firing would hang forever.
          if (watchdog_enabled && fault::Fired("watchdog.stall")) {
            while (!stop.cancelled()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            st = Status::Cancelled(
                "cancelled after injected stall at watchdog.stall");
          } else {
            // Drain the own deque front-to-back; when it runs dry,
            // steal half of a sibling's remaining chunks. The visit
            // order starts at a seed-derived victim and walks
            // cyclically, so steal patterns replay exactly under the
            // same seed. Results cannot depend on who mines what:
            // tallies merge commutatively and outputs are canonically
            // sorted.
            int64_t steals = 0;
            int64_t idle_ns = 0;
            for (;;) {
              Chunk chunk;
              if (!deques[w].PopFront(&chunk)) {
                if (!sched.work_stealing || workers <= 1) break;
                Stopwatch idle_sw;
                size_t got = 0;
                const int32_t first_victim = static_cast<int32_t>(
                    MixSeed(sched.steal_seed ^
                            static_cast<uint64_t>(w)) %
                    static_cast<uint64_t>(workers));
                for (int32_t step = 0; step < workers && got == 0; ++step) {
                  const int32_t victim = (first_victim + step) % workers;
                  if (victim == w) continue;
                  got = deques[victim].StealHalfInto(&deques[w]);
                }
                idle_ns +=
                    static_cast<int64_t>(idle_sw.ElapsedSeconds() * 1e9);
                if (got == 0) break;  // every deque is dry: batch done
                ++steals;
                continue;
              }
              for (size_t i = chunk.begin; i < chunk.end; ++i) {
                last_index[w].store(i, std::memory_order_relaxed);
                st = shards[w].AddTreeDegraded(trees[i],
                                               SourceIndexAt(degraded, i),
                                               worker_context, degraded);
                if (!st.ok()) break;
                heartbeats[w].fetch_add(1, std::memory_order_relaxed);
              }
              if (!st.ok()) break;
            }
            obs::RecordSchedSteals(steals);
            obs::RecordSchedIdleNs(idle_ns);
          }
        } catch (const std::exception& e) {
          st = Status::Internal("worker " + std::to_string(w) +
                                " faulted: " + e.what());
        } catch (...) {
          st = Status::Internal("worker " + std::to_string(w) +
                                " faulted with a non-standard exception");
        }
        if (!st.ok()) stop.Cancel();
        shard_status[w] = std::move(st);
        shard_seconds[w] = shard_sw.ElapsedSeconds();
        shard_done[w].store(true, std::memory_order_release);
      });
    }

    std::thread watchdog;
    std::atomic<bool> watchdog_exit{false};
    if (watchdog_enabled) {
      watchdog = std::thread([&]() {
        using Clock = std::chrono::steady_clock;
        const auto interval = degraded.watchdog_interval;
        // Sample a few times per interval so a stall is caught within
        // roughly one interval; the cap keeps shutdown prompt when the
        // interval is long.
        const auto period =
            std::clamp(interval / 4, std::chrono::milliseconds(1),
                       std::chrono::milliseconds(50));
        std::vector<uint64_t> last_beat(workers, 0);
        std::vector<Clock::time_point> last_change(workers, Clock::now());
        while (!watchdog_exit.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(period);
          COUSINS_METRIC_COUNTER_ADD("watchdog.checks", 1);
          const Clock::time_point now = Clock::now();
          bool all_done = true;
          for (int32_t w = 0; w < workers; ++w) {
            if (shard_done[w].load(std::memory_order_acquire)) continue;
            all_done = false;
            const uint64_t beat =
                heartbeats[w].load(std::memory_order_relaxed);
            if (beat != last_beat[w]) {
              last_beat[w] = beat;
              last_change[w] = now;
              continue;
            }
            if (now - last_change[w] < interval) continue;
            // Stalled: cancel the siblings and surface a deadline trip
            // naming the shard and its last-known cursor so the caller
            // can see exactly where the run wedged. The cursor is the
            // tree the shard most recently started (published by the
            // worker), valid under any steal pattern.
            const size_t cursor =
                last_index[w].load(std::memory_order_relaxed);
            watchdog_trip = Status::DeadlineExceeded(
                "watchdog: shard " + std::to_string(w) +
                " made no progress for " +
                std::to_string(interval.count()) +
                "ms (stalled at tree index " + std::to_string(cursor) +
                ")");
            COUSINS_METRIC_COUNTER_ADD("watchdog.stalls", 1);
            stop.Cancel();
            return;
          }
          if (all_done) return;
        }
      });
    }

    // Join everyone before inspecting any status: no worker may outlive
    // this frame, even when a sibling failed.
    for (std::thread& thread : threads) thread.join();
    if (watchdog.joinable()) {
      watchdog_exit.store(true, std::memory_order_release);
      watchdog.join();
    }
  }

#if COUSINS_METRICS_ENABLED
  // Per-shard telemetry exposes load balance: shard wall times should
  // be near-equal when stealing is on (idle workers rebalance
  // themselves); a spread here with sched.steals at zero means the
  // static deal went lopsided.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("mine.parallel.runs").Add(1);
  registry.GetCounter("mine.parallel.threads").Add(workers);
  for (int32_t w = 0; w < workers; ++w) {
    const int64_t wall_us = static_cast<int64_t>(shard_seconds[w] * 1e6);
    const std::string prefix =
        "mine.parallel.shard." + std::to_string(w);
    registry.GetCounter(prefix + ".trees").Add(shards[w].tree_count());
    registry.GetCounter(prefix + ".wall_us").Add(wall_us);
    registry.GetHistogram("mine.parallel.shard_wall_us").Record(wall_us);
    registry.GetHistogram("mine.parallel.shard_trees")
        .Record(shards[w].tree_count());
  }
#endif

  // A hard failure (anything non-OK that is not a governance trip) wins
  // over trips: the result may be missing arbitrary trees for reasons
  // the caller never asked for, so no partial tally is returned.
  for (const Status& st : shard_status) {
    if (!st.ok() && !IsGovernanceTrip(st)) {
      obs::RecordWorkerFault();
      obs::RecordGovernanceEvent(st);
      return st;
    }
  }
  // Among trips, prefer the originating one: siblings stopped by
  // stop.Cancel() report kCancelled, which is only the real termination
  // when the caller itself cancelled.
  Status termination;
  for (const Status& st : shard_status) {
    if (!st.ok() && st.code() != StatusCode::kCancelled) {
      termination = st;
      break;
    }
  }
  if (termination.ok()) {
    for (const Status& st : shard_status) {
      if (!st.ok()) {
        termination = st;
        break;
      }
    }
  }
  // A watchdog stall is the originating trip when the only other
  // evidence is the kCancelled it provoked in the siblings; a shard's
  // own meaningful trip (budget, deadline) still wins.
  if (!watchdog_trip.ok() &&
      (termination.ok() || termination.code() == StatusCode::kCancelled)) {
    termination = watchdog_trip;
  }

  Stopwatch merge_sw;
  // The shard with the most live tallies (lowest index on ties) becomes
  // the batch's partial, so its table is never re-hashed; only the
  // others merge into it. A single watched worker still ingests in
  // order, so its partial batch is an exact prefix even though it ran
  // on the threaded path.
  int32_t largest = 0;
  for (int32_t w = 1; w < workers; ++w) {
    if (shards[w].accumulator_stats().tally_entries >
        shards[largest].accumulator_stats().tally_entries) {
      largest = w;
    }
  }
  BatchOutcome outcome{std::move(shards[largest]), std::move(termination),
                       workers == 1};
  // Every shard's tallies cover only fully-mined trees, so merging all
  // shards — including tripped ones — yields a well-formed tally. A
  // merged shard is released at once so it holds no memory through the
  // rest of the merge. MergeFrom can throw at the multiminer.merge
  // fault site; contain it like a worker fault.
  try {
    for (int32_t w = 0; w < workers; ++w) {
      if (w == largest) continue;
      outcome.partial.MergeFrom(shards[w]);
      shards[w] = MultiTreeMiner(options);
    }
  } catch (const std::exception& e) {
    obs::RecordWorkerFault();
    Status st = Status::Internal("shard merge faulted: " +
                                 std::string(e.what()));
    obs::RecordGovernanceEvent(st);
    return st;
  }
  COUSINS_METRIC_COUNTER_ADD("mine.parallel.merge_us",
                             merge_sw.ElapsedSeconds() * 1e6);
  return outcome;
}

}  // namespace

Result<MultiTreeMiningRun> MineMultipleTreesCheckpointed(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, const MiningCheckpointConfig& config,
    const DegradedModeConfig& degraded, int32_t num_threads) {
  COUSINS_RETURN_IF_ERROR(ValidateVariantOptions(options));
  if (num_threads <= 0) {
    num_threads = static_cast<int32_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  const size_t n = trees.size();
  const bool checkpointing = !config.path.empty();
  if (config.resume && !checkpointing) {
    return Status::InvalidArgument(
        "resume requested without a checkpoint path");
  }

  MultiTreeMiner acc(options);
  size_t cursor = 0;
  // True until `acc` holds a restored checkpoint or a mined batch.
  bool acc_empty = true;
  if (config.resume) {
    // Checkpoint reads are a transient surface: retried under the
    // degraded policy (fail-fast None() by default).
    Result<std::string> bytes = RetryTransientValue(
        degraded.retry, "checkpoint.read",
        [&]() { return ReadFileToString(config.path); });
    if (!bytes.ok()) {
      // A missing checkpoint is a fresh start (first run of a job that
      // will checkpoint); any other read failure is surfaced — a run
      // must never silently re-mine past an unreadable checkpoint.
      if (bytes.status().code() != StatusCode::kNotFound) {
        return bytes.status();
      }
    } else {
      std::shared_ptr<LabelTable> labels =
          trees.empty() ? std::make_shared<LabelTable>()
                        : trees[0].labels_ptr();
      COUSINS_ASSIGN_OR_RETURN(
          acc, MultiTreeMiner::RestoreFromCheckpoint(*bytes, options,
                                                     std::move(labels),
                                                     degraded.ledger));
      cursor = static_cast<size_t>(acc.tree_count());
      acc_empty = false;
      COUSINS_METRIC_COUNTER_ADD("checkpoint.resumes", 1);
      if (cursor > n) {
        return Status::InvalidArgument(
            "checkpoint cursor " + std::to_string(cursor) +
            " is beyond the forest size " + std::to_string(n) +
            " — wrong checkpoint for this input?");
      }
    }
  }

  // Without a checkpoint path the whole forest is one batch, which
  // preserves the classic single-pass parallel driver exactly.
  const size_t every =
      checkpointing
          ? static_cast<size_t>(std::max<int32_t>(1, config.every_trees))
          : std::max<size_t>(1, n);

  // Atomic checkpoint writes are transient (kUnavailable): retried
  // whole under the degraded policy — WriteFileAtomic never leaves a
  // torn file, so a retry restarts the protocol cleanly. The run's
  // quarantine ledger rides in every snapshot.
  const auto write_checkpoint = [&]() -> Status {
    return RetryTransient(degraded.retry, "checkpoint.write", [&]() {
      return WriteFileAtomic(config.path,
                             acc.SerializeCheckpoint(degraded.ledger));
    });
  };
  // A fresh accumulator adopts its first batch outright: merging into
  // an empty miner is saturating addition onto zero, so the move is
  // exact and re-hashes nothing.
  const auto merge_into_acc = [&](MultiTreeMiner& partial) -> Status {
    if (acc_empty) {
      acc = std::move(partial);
      acc_empty = false;
      return Status::OK();
    }
    try {
      acc.MergeFrom(partial);
    } catch (const std::exception& e) {
      obs::RecordWorkerFault();
      Status st = Status::Internal("batch merge faulted: " +
                                   std::string(e.what()));
      obs::RecordGovernanceEvent(st);
      return st;
    }
    return Status::OK();
  };

  Status trip;
  bool checkpoint_current = false;
  while (cursor < n) {
    const size_t batch_end = std::min(n, cursor + every);
    BatchOutcome batch{MultiTreeMiner(options), Status::OK(), false};
    COUSINS_ASSIGN_OR_RETURN(
        batch, MineBatchGoverned(trees, cursor, batch_end, options, context,
                                 degraded, num_threads));
    if (!batch.termination.ok()) {
      trip = std::move(batch.termination);
      if (batch.prefix_exact) {
        // In-order ingestion: the partial batch is an exact prefix, so
        // the checkpoint may include it — resume loses nothing.
        COUSINS_RETURN_IF_ERROR(merge_into_acc(batch.partial));
        if (checkpointing) COUSINS_RETURN_IF_ERROR(write_checkpoint());
      } else {
        // Parallel shards stopped mid-batch: their union is a
        // well-formed tally but not a forest prefix. Checkpoint the
        // boundary state first so resume re-mines the batch whole, then
        // merge for the returned (truncated) partial result.
        if (checkpointing) COUSINS_RETURN_IF_ERROR(write_checkpoint());
        COUSINS_RETURN_IF_ERROR(merge_into_acc(batch.partial));
      }
      break;
    }
    COUSINS_RETURN_IF_ERROR(merge_into_acc(batch.partial));
    cursor = batch_end;
    if (checkpointing) {
      COUSINS_RETURN_IF_ERROR(write_checkpoint());
      checkpoint_current = cursor == n;
    }
  }
  // A resume that landed at (or a forest already of) size n runs zero
  // batches; still leave a completion checkpoint behind.
  if (checkpointing && trip.ok() && !checkpoint_current) {
    COUSINS_RETURN_IF_ERROR(write_checkpoint());
  }

  MultiTreeMiningRun run;
  run.trees_processed = acc.tree_count();
  acc.ExtractResults(&run);
  if (!trip.ok()) {
    obs::RecordGovernanceEvent(trip);
    run.truncated = true;
    run.termination = std::move(trip);
  }
  return run;
}

Result<MultiTreeMiningRun> MineMultipleTreesCheckpointed(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, const MiningCheckpointConfig& config,
    int32_t num_threads) {
  return MineMultipleTreesCheckpointed(trees, options, context, config,
                                       DegradedModeConfig{}, num_threads);
}

Result<MultiTreeMiningRun> MineMultipleTreesParallelGoverned(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, const DegradedModeConfig& degraded,
    int32_t num_threads) {
  return MineMultipleTreesCheckpointed(trees, options, context,
                                       MiningCheckpointConfig{}, degraded,
                                       num_threads);
}

Result<MultiTreeMiningRun> MineMultipleTreesParallelGoverned(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    const MiningContext& context, int32_t num_threads) {
  return MineMultipleTreesParallelGoverned(trees, options, context,
                                           DegradedModeConfig{},
                                           num_threads);
}

std::vector<FrequentCousinPair> MineMultipleTreesParallel(
    const std::vector<Tree>& trees, const MultiTreeMiningOptions& options,
    int32_t num_threads) {
  Result<MultiTreeMiningRun> run = MineMultipleTreesParallelGoverned(
      trees, options, MiningContext::Unlimited(), num_threads);
  COUSINS_CHECK(run.ok() && "ungoverned parallel mining cannot fail");
  return std::move(run->pairs);
}

}  // namespace cousins
