// The resident mining daemon (`cousinsd`): a long-lived CousinService
// keeping one MultiTreeMiner (any MinerVariant) warm across requests,
// with crash safety, retraction, admission control and graceful drain.
//
// Request handling (svc/protocol.h verbs):
//
//   INGEST  [deadline-ms=N]   payload = Newick batch text
//   RETRACT <batch-id> [deadline-ms=N]
//   QUERY   frequent-pairs | support <label1> <label2> <distance>
//   HEALTH
//   COMPACT
//   DRAIN
//
// Durability: an ingest batch is mined into a staging miner first (a
// failed or tripped batch leaves the resident tallies untouched), then
// appended to the segmented WAL (svc/wal_store.h) and fsync'd, then
// merged and published — so the WAL holds exactly the accepted
// mutations, every acknowledged request is durable, and a kill -9 at
// any point replays into a state whose query answers are
// byte-identical to a batch run over the acknowledged batches. A batch
// that reached the WAL but whose acknowledgement was lost (crash in
// the ack window, or an injected svc.swap fault) is the standard WAL
// ambiguity: it replays as accepted.
//
// Storage: the WAL is a directory of numbered segments anchored by a
// snapshot (svc/wal_store.h) — recovery loads the snapshot and replays
// only the tail, so restart cost tracks segment size, not uptime.
// COMPACT (or auto-compaction past wal_compact_bytes) folds the acked
// state into a fresh snapshot and retires the old segments. A failed
// fsync poisons its segment (durability indeterminate — never
// retry-fsync-then-ack); any errno-carrying storage failure flips the
// daemon READ-ONLY: mutations are shed kUnavailable with a
// retry-after while QUERY/HEALTH keep answering from the RCU
// snapshot, and a successful COMPACT (which discards the poisoned
// segment) is the way back out.
//
// Concurrency: INGEST/RETRACT/COMPACT/DRAIN serialize on one mutation
// mutex; QUERY and HEALTH read the RCU snapshot (svc/snapshot.h) and
// shared counters only, so they answer concurrently with an in-flight
// ingest and never block it. Admission (svc/admission.h) bounds
// in-flight mutations and queries; HEALTH and COMPACT bypass
// admission so the daemon stays observable and recoverable under
// overload.

#ifndef COUSINS_SVC_DAEMON_H_
#define COUSINS_SVC_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/multi_tree_mining.h"
#include "core/quarantine.h"
#include "svc/admission.h"
#include "svc/protocol.h"
#include "svc/snapshot.h"
#include "svc/wal.h"
#include "svc/wal_store.h"
#include "tree/parse_limits.h"
#include "util/governance.h"
#include "util/result.h"

namespace cousins::svc {

struct ServiceConfig {
  MultiTreeMiningOptions mining;
  /// Path of the write-ahead log (required): a v2 segment directory.
  /// A v1 single-file WAL at this path is migrated in place on Start.
  std::string wal_path;
  /// Rotate the active WAL segment once its acked bytes reach this.
  int64_t wal_segment_bytes = 4ll << 20;
  /// Auto-compact after a mutation once the sealed (non-active) WAL
  /// bytes reach this. 0 = only explicit COMPACT requests compact.
  int64_t wal_compact_bytes = 0;
  /// Retraction retention horizon: at compaction, only the N
  /// most-recent live batches keep their payloads (retractable);
  /// older batches stay tallied but RETRACT of one is
  /// kFailedPrecondition. 0 = retain every payload.
  int64_t retain_batches = 0;
  /// Optional final-checkpoint path, written by FinishDrain.
  std::string checkpoint_path;
  /// Optional final health-report path, written by FinishDrain.
  std::string health_report_path;
  /// Lenient ingest: malformed forest entries are quarantined (batch
  /// id recorded as the source) instead of rejecting the batch.
  bool lenient = false;
  /// Per-entry parse limits for ingest payloads.
  ParseLimits parse_limits;
  AdmissionConfig admission;
  /// Per-INGEST payload cap (admission watermark aside): a single
  /// batch larger than this is kInvalidArgument, not shed.
  int64_t max_batch_bytes = 64ll << 20;
  /// Server-side ceiling on any request's mining deadline, combined
  /// with the client's deadline-ms argument (the tighter one wins).
  /// 0 = no server ceiling.
  int64_t max_request_ms = 0;
  /// Server-side resource budget folded into every request's
  /// MiningContext.
  ResourceBudget budget;
};

/// The resident service. Thread-safe Handle; create via Start (which
/// replays or creates the WAL).
class CousinService {
 public:
  /// Opens/replays the WAL and builds the initial snapshot. Refuses a
  /// corrupt WAL (kCorruption) or one written under different mining
  /// options (kFailedPrecondition); a torn final record is trimmed.
  static Result<std::unique_ptr<CousinService>> Start(
      const ServiceConfig& config);

  /// Handles one parsed request; never throws. DRAIN flips the service
  /// into draining (subsequent mutations are refused kUnavailable) —
  /// the serve loop is responsible for stopping accepts and calling
  /// FinishDrain once in-flight requests are done.
  Response Handle(const Request& request);

  /// Writes the final checkpoint and health report (when configured)
  /// and marks the drain complete. Idempotent.
  Status FinishDrain();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }

  std::shared_ptr<const ServiceSnapshot> snapshot() const {
    return snapshot_cell_.Load();
  }
  int64_t replayed_batches() const { return replayed_batches_; }
  /// Tail records replayed from WAL segments at Start (batches +
  /// retracts, snapshot-restored batches excluded) — the measure of
  /// how well compaction bounds recovery.
  int64_t replayed_records() const { return replayed_records_; }
  /// True while storage is degraded: mutations are shed, QUERY/HEALTH
  /// keep serving. Cleared by a successful COMPACT.
  bool read_only() const {
    return read_only_.load(std::memory_order_relaxed);
  }
  const AdmissionController& admission() const { return admission_; }
  const ServiceConfig& config() const { return config_; }

 private:
  explicit CousinService(const ServiceConfig& config);

  Response HandleIngest(const Request& request);
  Response HandleRetract(const Request& request);
  Response HandleQuery(const Request& request) const;
  Response HandleHealth() const;
  Response HandleCompact();
  Response HandleDrain();

  /// Mines `payload` into a staging miner over the shared label table.
  /// On success *staging holds exactly the batch's contribution.
  Status MineBatch(int64_t batch_id, const std::string& payload,
                   const MiningContext& context, MultiTreeMiner* staging,
                   QuarantineLedger* quarantine);

  /// Applies one WAL record during Start (no WAL append, no deadline).
  Status ApplyReplayRecord(const SvcWalRecord& record);

  /// Collects the tallies and atomically publishes a fresh snapshot
  /// (svc/snapshot.h); renders no CSV. Fault site svc.swap simulates a
  /// failed publish (the mutation stays applied and durable; the
  /// snapshot catches up on the next publish).
  Status PublishSnapshot();

  /// MiningContext from the request's deadline-ms argument and the
  /// server's ceiling/budget; InvalidArgument when a deadline-ms value
  /// is not a plain decimal count.
  Result<MiningContext> ContextFor(const Request& request) const;

  std::string HealthJson() const;

  /// Serializes the acked service state (miner tallies + quarantine +
  /// live batches + next id) into an opaque snapshot blob for
  /// WalStore::Compact / MigrateFromV1. Caller holds mutate_mu_ (or is
  /// single-threaded Start).
  std::string SerializeServiceSnapshot() const;
  /// Inverse of SerializeServiceSnapshot, applied during Start before
  /// tail replay. kCorruption on damage, kFailedPrecondition on a
  /// fingerprint from different mining options.
  Status RestoreServiceSnapshot(const std::string& bytes);

  /// Compaction body (caller holds mutate_mu_): applies the retention
  /// horizon, folds the acked state into WalStore::Compact, and on
  /// success exits read-only mode.
  Status CompactLocked();
  /// Flips the daemon read-only with an operator-facing reason.
  void EnterReadOnly(const std::string& reason);
  std::string ReadOnlyReason() const;
  /// Refreshes the storage health atomics from store_ (caller holds
  /// mutate_mu_) so HEALTH stays lock-free.
  void UpdateStorageStats();

  const ServiceConfig config_;
  const uint32_t fingerprint_;

  /// Serializes all state mutation (miner, WAL, batches_, publish).
  std::mutex mutate_mu_;
  std::shared_ptr<LabelTable> labels_;
  /// Immutable copy of labels_ as of the last publish, shared by every
  /// snapshot published since; queries read it, never labels_.
  std::shared_ptr<const LabelTable> label_view_;
  MultiTreeMiner miner_;
  WalStore store_;
  QuarantineLedger quarantine_;
  /// Live (non-retracted) batches by id; RETRACT re-mines the stored
  /// payload to subtract exactly what the batch contributed. A batch
  /// compacted past the retention horizon keeps its tallies but drops
  /// its payload (retained=false) and can no longer be retracted.
  struct BatchInfo {
    std::string payload;
    int trees = 0;
    bool retained = true;
  };
  std::map<int64_t, BatchInfo> batches_;
  int64_t next_batch_id_ = 1;
  int64_t replayed_batches_ = 0;
  int64_t replayed_records_ = 0;
  int64_t recovery_ms_ = 0;

  SnapshotCell snapshot_cell_;
  std::atomic<int64_t> snapshot_version_{0};
  AdmissionController admission_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<int64_t> requests_{0};

  /// Storage health, mirrored into atomics by UpdateStorageStats so
  /// HandleHealth never takes mutate_mu_.
  std::atomic<bool> read_only_{false};
  std::atomic<int64_t> storage_segments_{0};
  std::atomic<int64_t> storage_wal_bytes_{0};
  std::atomic<int64_t> storage_sealed_bytes_{0};
  std::atomic<int64_t> storage_compaction_id_{0};
  mutable std::mutex reason_mu_;
  std::string read_only_reason_;
};

/// Serves one connection: reads frames, handles requests, writes
/// responses, until EOF, a stream error, or a served DRAIN (which also
/// sets *stop when non-null). Read/write faults close the connection;
/// they never take the service down.
void ServeConnection(int in_fd, int out_fd, CousinService& service,
                     std::atomic<bool>* stop);

/// Unix-socket accept loop: binds `socket_path` (unlinking any stale
/// socket), serves each connection on its own thread, and returns once
/// `stop` is set (by DRAIN, or externally e.g. from a signal handler)
/// with all connection threads joined. Fault site svc.accept simulates
/// a transient accept failure (connection dropped, loop continues).
Status RunUnixServer(const std::string& socket_path,
                     CousinService& service, std::atomic<bool>* stop);

}  // namespace cousins::svc

#endif  // COUSINS_SVC_DAEMON_H_
