#include "svc/daemon.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/checkpoint.h"
#include "core/item_io.h"
#include "obs/metrics.h"
#include "tree/newick.h"
#include "util/fault_injection.h"
#include "util/fs_ops.h"
#include "util/strings.h"

namespace cousins::svc {
namespace {

constexpr std::string_view kDeadlineArgPrefix = "deadline-ms=";

/// How long a client should back off before retrying a mutation shed
/// by read-only mode — compaction (the exit) is operator-paced.
constexpr int64_t kReadOnlyRetryMs = 1000;

Response ErrorResponse(Status status) {
  Response response;
  response.status = std::move(status);
  return response;
}

Response ShedResponse(const AdmissionDecision& decision) {
  Response response;
  response.status = Status::Unavailable("request shed: " + decision.reason);
  response.retry_after_ms = decision.retry_after_ms;
  return response;
}

Response ReadOnlyResponse(const std::string& reason) {
  Response response;
  response.status = Status::Unavailable(
      "service is read-only (" + reason +
      "); mutations shed until compaction reclaims storage");
  response.retry_after_ms = kReadOnlyRetryMs;
  return response;
}

/// The lenient-mode quarantine source name of a batch — batch-local,
/// so replayed re-mining reproduces byte-identical ledger entries.
std::string BatchSource(int64_t batch_id) {
  return "batch:" + std::to_string(batch_id);
}

// --- service-snapshot codec ------------------------------------------
//
// The opaque blob WalStore anchors a compaction on: magic "SVCSNAP1",
// then little-endian fields
//   u32 fingerprint, i64 next_batch_id,
//   u64 miner-checkpoint length + bytes (core checkpoint codec,
//       quarantine ledger included),
//   u64 batch count, then per live batch
//     i64 id, u8 retained, i32 trees, [u64 payload length + bytes
//     when retained],
// and a trailing u32 CRC32 over everything before it.

constexpr std::string_view kSnapMagic = "SVCSNAP1";

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}
void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}
void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}
void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

/// Bounds-checked reader over the snapshot body (CRC already checked;
/// kept as defense in depth against codec bugs).
struct SnapReader {
  const char* data;
  size_t size;
  size_t pos = 0;

  Status Need(size_t n) {
    if (pos + n > size) {
      return Status::Corruption("truncated service snapshot body");
    }
    return Status::OK();
  }
  Status ReadU32(uint32_t* v) {
    COUSINS_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(data[pos + i]))
            << (8 * i);
    }
    pos += 4;
    return Status::OK();
  }
  Status ReadU64(uint64_t* v) {
    COUSINS_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(
                static_cast<unsigned char>(data[pos + i]))
            << (8 * i);
    }
    pos += 8;
    return Status::OK();
  }
  Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    COUSINS_RETURN_IF_ERROR(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }
  Status ReadI32(int32_t* v) {
    uint32_t u = 0;
    COUSINS_RETURN_IF_ERROR(ReadU32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }
  Status ReadU8(uint8_t* v) {
    COUSINS_RETURN_IF_ERROR(Need(1));
    *v = static_cast<unsigned char>(data[pos++]);
    return Status::OK();
  }
  Status ReadBytes(size_t n, std::string* out) {
    COUSINS_RETURN_IF_ERROR(Need(n));
    out->assign(data + pos, n);
    pos += n;
    return Status::OK();
  }
};

/// Minimal JSON string escape for the health report's read-only
/// reason (our own status messages: quotes and backslashes only).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

CousinService::CousinService(const ServiceConfig& config)
    : config_(config),
      // The lenient flag changes which entries of a batch tally, so it
      // is part of the WAL identity alongside the mining options.
      fingerprint_(MiningOptionsFingerprint(config.mining) ^
                   (config.lenient ? 0x5CACADAFu : 0u)),
      labels_(std::make_shared<LabelTable>()),
      miner_(config.mining),
      admission_(config.admission) {
  miner_.BindLabels(labels_);
}

Result<std::unique_ptr<CousinService>> CousinService::Start(
    const ServiceConfig& config) {
  if (config.wal_path.empty()) {
    return Status::InvalidArgument("service requires a WAL path");
  }
  COUSINS_RETURN_IF_ERROR(ValidateVariantOptions(config.mining));
  std::unique_ptr<CousinService> service(new CousinService(config));
  const auto recovery_start = std::chrono::steady_clock::now();

  WalStoreConfig wal_config;
  wal_config.segment_bytes = config.wal_segment_bytes;

  struct stat st;
  const bool v1_file = ::stat(config.wal_path.c_str(), &st) == 0 &&
                       S_ISREG(st.st_mode);
  if (v1_file) {
    // A v1 single-file WAL from an older build: replay it fully (it
    // has no snapshot anchor), then migrate it in place into the
    // segmented layout — its replayed state becomes the first
    // snapshot, and the v1 file is retired only once the new store is
    // durable.
    COUSINS_ASSIGN_OR_RETURN(
        std::vector<SvcWalRecord> replay,
        ReplaySvcWal(config.wal_path, service->fingerprint_));
    for (const SvcWalRecord& record : replay) {
      COUSINS_RETURN_IF_ERROR(service->ApplyReplayRecord(record));
    }
    service->replayed_records_ = static_cast<int64_t>(replay.size());
    COUSINS_ASSIGN_OR_RETURN(
        service->store_,
        WalStore::MigrateFromV1(config.wal_path, service->fingerprint_,
                                wal_config,
                                service->SerializeServiceSnapshot()));
  } else {
    WalRecovery recovery;
    COUSINS_ASSIGN_OR_RETURN(
        service->store_,
        WalStore::Open(config.wal_path, service->fingerprint_, wal_config,
                       &recovery));
    if (!recovery.snapshot_bytes.empty()) {
      COUSINS_RETURN_IF_ERROR(
          service->RestoreServiceSnapshot(recovery.snapshot_bytes));
    }
    for (const SvcWalRecord& record : recovery.tail) {
      COUSINS_RETURN_IF_ERROR(service->ApplyReplayRecord(record));
    }
    service->replayed_records_ = recovery.replayed_records;
  }
  service->recovery_ms_ =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - recovery_start)
          .count();
  service->UpdateStorageStats();
  COUSINS_METRIC_COUNTER_ADD("svc.replayed_batches",
                             service->replayed_batches_);
  COUSINS_METRIC_COUNTER_ADD("svc.replayed_records",
                             service->replayed_records_);
  COUSINS_RETURN_IF_ERROR(service->PublishSnapshot());
  return service;
}

std::string CousinService::SerializeServiceSnapshot() const {
  std::string out(kSnapMagic);
  PutU32(fingerprint_, &out);
  PutI64(next_batch_id_, &out);
  const std::string ckpt = miner_.SerializeCheckpoint(&quarantine_);
  PutU64(ckpt.size(), &out);
  out += ckpt;
  PutU64(batches_.size(), &out);
  for (const auto& [id, info] : batches_) {
    PutI64(id, &out);
    out.push_back(info.retained ? 1 : 0);
    PutI32(info.trees, &out);
    if (info.retained) {
      PutU64(info.payload.size(), &out);
      out += info.payload;
    }
  }
  PutU32(internal::Crc32(out.data(), out.size()), &out);
  return out;
}

Status CousinService::RestoreServiceSnapshot(const std::string& bytes) {
  if (bytes.size() < kSnapMagic.size() + 4 ||
      std::string_view(bytes).substr(0, kSnapMagic.size()) != kSnapMagic) {
    return Status::Corruption("service snapshot magic mismatch");
  }
  const size_t body_end = bytes.size() - 4;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(
                      static_cast<unsigned char>(bytes[body_end + i]))
                  << (8 * i);
  }
  if (internal::Crc32(bytes.data(), body_end) != stored_crc) {
    return Status::Corruption("service snapshot CRC mismatch");
  }
  SnapReader reader{bytes.data() + kSnapMagic.size(),
                    body_end - kSnapMagic.size()};
  uint32_t fp = 0;
  COUSINS_RETURN_IF_ERROR(reader.ReadU32(&fp));
  if (fp != fingerprint_) {
    return Status::FailedPrecondition(
        "service snapshot was written under different mining options");
  }
  int64_t next_id = 0;
  COUSINS_RETURN_IF_ERROR(reader.ReadI64(&next_id));
  uint64_t ckpt_len = 0;
  COUSINS_RETURN_IF_ERROR(reader.ReadU64(&ckpt_len));
  std::string ckpt;
  COUSINS_RETURN_IF_ERROR(reader.ReadBytes(ckpt_len, &ckpt));
  COUSINS_ASSIGN_OR_RETURN(
      MultiTreeMiner restored,
      MultiTreeMiner::RestoreFromCheckpoint(ckpt, config_.mining, labels_,
                                            &quarantine_));
  miner_ = std::move(restored);
  uint64_t count = 0;
  COUSINS_RETURN_IF_ERROR(reader.ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    int64_t id = 0;
    uint8_t retained = 0;
    BatchInfo info;
    COUSINS_RETURN_IF_ERROR(reader.ReadI64(&id));
    COUSINS_RETURN_IF_ERROR(reader.ReadU8(&retained));
    COUSINS_RETURN_IF_ERROR(reader.ReadI32(&info.trees));
    info.retained = retained != 0;
    if (info.retained) {
      uint64_t len = 0;
      COUSINS_RETURN_IF_ERROR(reader.ReadU64(&len));
      COUSINS_RETURN_IF_ERROR(reader.ReadBytes(len, &info.payload));
    }
    batches_[id] = std::move(info);
  }
  if (reader.pos != reader.size) {
    return Status::Corruption("trailing bytes after service snapshot");
  }
  next_batch_id_ = next_id;
  // Snapshot-restored batches count as replayed state for the health
  // report's svc.replayed_batches; the storage section's
  // replayed_records tracks only the post-snapshot tail.
  replayed_batches_ += static_cast<int64_t>(count);
  return Status::OK();
}

Result<MiningContext> CousinService::ContextFor(
    const Request& request) const {
  MiningContext context;
  // The client's deadline-ms and the server ceiling combine tighter-
  // wins; a client asking for 0 ms is already expired (the first
  // governance checkpoint trips), it is not "no deadline".
  int64_t deadline_ms = -1;
  for (const std::string& arg : request.args) {
    if (StartsWith(arg, kDeadlineArgPrefix)) {
      int64_t client_ms = 0;
      if (!ParseNonNegativeInt(
              std::string_view(arg).substr(kDeadlineArgPrefix.size()),
              &client_ms)) {
        return Status::InvalidArgument("malformed " + arg +
                                       " (want a decimal millisecond count)");
      }
      if (deadline_ms < 0 || client_ms < deadline_ms) deadline_ms = client_ms;
    }
  }
  if (config_.max_request_ms > 0 &&
      (deadline_ms < 0 || config_.max_request_ms < deadline_ms)) {
    deadline_ms = config_.max_request_ms;
  }
  if (deadline_ms >= 0) {
    context.set_timeout(std::chrono::milliseconds(deadline_ms));
  }
  context.set_budget(config_.budget);
  return context;
}

Status CousinService::MineBatch(int64_t batch_id, const std::string& payload,
                                const MiningContext& context,
                                MultiTreeMiner* staging,
                                QuarantineLedger* quarantine) {
  staging->BindLabels(labels_);
  if (config_.lenient) {
    COUSINS_ASSIGN_OR_RETURN(
        LenientForest forest,
        ParseNewickForestLenient(payload, labels_, config_.parse_limits));
    const std::string source = BatchSource(batch_id);
    for (const ForestEntryError& error : forest.errors) {
      QuarantineParseError(source, error, quarantine);
    }
    DegradedModeConfig degraded;
    degraded.lenient = true;
    degraded.ledger = quarantine;
    degraded.source_name = source;
    for (size_t i = 0; i < forest.trees.size(); ++i) {
      COUSINS_RETURN_IF_ERROR(staging->AddTreeDegraded(
          forest.trees[i], forest.source_indices[i], context, degraded));
    }
    return Status::OK();
  }
  COUSINS_ASSIGN_OR_RETURN(
      std::vector<Tree> trees,
      ParseNewickForest(payload, labels_, config_.parse_limits));
  for (const Tree& tree : trees) {
    COUSINS_RETURN_IF_ERROR(staging->AddTreeGoverned(tree, context));
  }
  return Status::OK();
}

Status CousinService::ApplyReplayRecord(const SvcWalRecord& record) {
  if (record.kind == SvcWalRecord::Kind::kBatch) {
    MultiTreeMiner staging(config_.mining);
    COUSINS_RETURN_IF_ERROR(MineBatch(record.id, record.payload,
                                      MiningContext::Unlimited(), &staging,
                                      &quarantine_));
    miner_.MergeFrom(staging);
    batches_[record.id] =
        BatchInfo{record.payload, staging.tree_count()};
    if (record.id >= next_batch_id_) next_batch_id_ = record.id + 1;
    ++replayed_batches_;
    return Status::OK();
  }
  if (record.kind == SvcWalRecord::Kind::kRetract) {
    auto it = batches_.find(record.id);
    if (it == batches_.end()) {
      return Status::Corruption(
          "WAL retracts unknown batch " + std::to_string(record.id));
    }
    if (!it->second.retained) {
      // The daemon refuses RETRACT of a batch past the retention
      // horizon, so a tail retract of one can only be damage.
      return Status::Corruption(
          "WAL retracts batch " + std::to_string(record.id) +
          " whose payload was compacted away");
    }
    MultiTreeMiner staging(config_.mining);
    QuarantineLedger scratch;
    COUSINS_RETURN_IF_ERROR(MineBatch(record.id, it->second.payload,
                                      MiningContext::Unlimited(), &staging,
                                      &scratch));
    miner_.SubtractFrom(staging);
    batches_.erase(it);
    return Status::OK();
  }
  return Status::Corruption("unexpected WAL record kind");
}

Status CousinService::PublishSnapshot() {
  const auto start = std::chrono::steady_clock::now();
  if (fault::Fired("svc.swap")) {
    COUSINS_METRIC_COUNTER_ADD("svc.swap_failures", 1);
    return Status::Unavailable(
        "injected fault at svc.swap; state is durable and will surface "
        "on the next publish or restart");
  }
  auto next = std::make_shared<ServiceSnapshot>();
  next->version = snapshot_version_.fetch_add(1,
                                              std::memory_order_relaxed) +
                  1;
  next->trees = miner_.tree_count();
  next->live_batches = static_cast<int64_t>(batches_.size());
  next->tallies = miner_.accumulator_stats().tally_entries;
  switch (config_.mining.variant) {
    case MinerVariant::kCousin:
    case MinerVariant::kFreeTree:
      next->frequent_csv =
          FrequentPairsToCsv(*labels_, miner_.FrequentPairs());
      next->all_csv = FrequentPairsToCsv(*labels_, miner_.AllTallies());
      break;
    case MinerVariant::kGeneralized:
      next->frequent_csv = GeneralizedPairsToCsv(
          *labels_, miner_.FrequentGeneralizedPairs());
      next->all_csv =
          GeneralizedPairsToCsv(*labels_, miner_.AllGeneralizedTallies());
      break;
    case MinerVariant::kWeighted:
      next->frequent_csv =
          WeightedPairsToCsv(*labels_, miner_.FrequentWeightedPairs());
      next->all_csv =
          WeightedPairsToCsv(*labels_, miner_.AllWeightedTallies());
      break;
  }
  snapshot_cell_.Store(std::move(next));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  COUSINS_METRIC_COUNTER_ADD("svc.swaps", 1);
  COUSINS_METRIC_HISTOGRAM_RECORD(
      "svc.swap_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count());
  return Status::OK();
}

void CousinService::EnterReadOnly(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(reason_mu_);
    read_only_reason_ = reason;
  }
  if (!read_only_.exchange(true, std::memory_order_relaxed)) {
    COUSINS_METRIC_COUNTER_ADD("svc.read_only_entries", 1);
  }
}

void CousinService::UpdateStorageStats() {
  storage_segments_.store(store_.segment_count(),
                          std::memory_order_relaxed);
  storage_wal_bytes_.store(store_.total_bytes(),
                           std::memory_order_relaxed);
  storage_sealed_bytes_.store(store_.sealed_bytes(),
                              std::memory_order_relaxed);
  storage_compaction_id_.store(store_.last_compaction_id(),
                               std::memory_order_relaxed);
}

std::string CousinService::ReadOnlyReason() const {
  std::lock_guard<std::mutex> lock(reason_mu_);
  return read_only_reason_;
}

Response CousinService::HandleIngest(const Request& request) {
  if (draining()) {
    return ErrorResponse(
        Status::Unavailable("service is draining; not accepting ingest"));
  }
  if (read_only()) return ReadOnlyResponse(ReadOnlyReason());
  if (static_cast<int64_t>(request.payload.size()) >
      config_.max_batch_bytes) {
    return ErrorResponse(Status::InvalidArgument(
        "batch exceeds max_batch_bytes (" +
        std::to_string(request.payload.size()) + " > " +
        std::to_string(config_.max_batch_bytes) + ")"));
  }
  AdmissionSlot slot(admission_,
                     static_cast<int64_t>(request.payload.size()));
  if (!slot.admitted()) return ShedResponse(slot.decision());
  Result<MiningContext> context = ContextFor(request);
  if (!context.ok()) return ErrorResponse(context.status());

  std::lock_guard<std::mutex> lock(mutate_mu_);
  const int64_t id = next_batch_id_;
  MultiTreeMiner staging(config_.mining);
  QuarantineLedger batch_quarantine;
  Status mined =
      MineBatch(id, request.payload, *context, &staging, &batch_quarantine);
  if (!mined.ok()) {
    // Staging discarded: a rejected or tripped batch leaves the
    // resident tallies, the WAL and the quarantine ledger untouched.
    COUSINS_METRIC_COUNTER_ADD("svc.ingest_rejected", 1);
    return ErrorResponse(std::move(mined));
  }
  Status appended = store_.AppendBatch(id, request.payload);
  if (!appended.ok()) {
    COUSINS_METRIC_COUNTER_ADD("svc.ingest_rejected", 1);
    // The id was never acked, so it is not consumed — and when the
    // failure carried an errno class (real disk error or typed fault)
    // the store is degraded: flip read-only so no later ingest can
    // reuse the id against indeterminate durable bytes. A plain
    // injected fault (no errno, nothing landed) stays retryable in
    // place.
    if (store_.degraded()) {
      EnterReadOnly(appended.message());
      UpdateStorageStats();
      Response response = ErrorResponse(std::move(appended));
      response.retry_after_ms = kReadOnlyRetryMs;
      return response;
    }
    return ErrorResponse(std::move(appended));
  }
  // Point of no return: the batch is durable. Everything after must
  // succeed or leave a state the WAL replay converges to.
  for (QuarantineEntry& entry : batch_quarantine.Entries()) {
    quarantine_.Add(std::move(entry));
  }
  const int trees = staging.tree_count();
  miner_.MergeFrom(staging);
  batches_[id] = BatchInfo{request.payload, trees};
  next_batch_id_ = id + 1;
  COUSINS_METRIC_COUNTER_ADD("svc.ingest_batches", 1);
  COUSINS_METRIC_COUNTER_ADD("svc.ingest_trees", trees);
  if (config_.wal_compact_bytes > 0 &&
      store_.sealed_bytes() >= config_.wal_compact_bytes) {
    // Auto-compaction keeps recovery bounded without an operator in
    // the loop; a failure is non-fatal — the ingest itself is durable
    // and a later COMPACT (or the next threshold crossing) retries.
    Status compacted = CompactLocked();
    if (!compacted.ok()) {
      COUSINS_METRIC_COUNTER_ADD("svc.auto_compact_failures", 1);
    }
  }
  UpdateStorageStats();
  Status published = PublishSnapshot();
  if (!published.ok()) return ErrorResponse(std::move(published));
  Response response;
  response.payload = "id=" + std::to_string(id) +
                     " trees=" + std::to_string(trees) + "\n";
  return response;
}

Response CousinService::HandleRetract(const Request& request) {
  if (draining()) {
    return ErrorResponse(
        Status::Unavailable("service is draining; not accepting retract"));
  }
  if (read_only()) return ReadOnlyResponse(ReadOnlyReason());
  if (request.args.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("RETRACT requires a batch id"));
  }
  AdmissionSlot slot(admission_, 0);
  if (!slot.admitted()) return ShedResponse(slot.decision());
  int64_t id = 0;
  if (!ParseNonNegativeInt(request.args[0], &id)) {
    return ErrorResponse(Status::InvalidArgument(
        "malformed batch id '" + request.args[0] +
        "' (want a decimal batch id)"));
  }
  Result<MiningContext> context = ContextFor(request);
  if (!context.ok()) return ErrorResponse(context.status());

  std::lock_guard<std::mutex> lock(mutate_mu_);
  auto it = batches_.find(id);
  if (it == batches_.end()) {
    return ErrorResponse(Status::NotFound(
        "batch " + std::to_string(id) + " is not live (never ingested, "
        "or already retracted)"));
  }
  if (!it->second.retained) {
    return ErrorResponse(Status::FailedPrecondition(
        "batch " + std::to_string(id) +
        " is beyond the retention horizon (payload compacted away); it "
        "stays tallied and cannot be retracted"));
  }
  MultiTreeMiner staging(config_.mining);
  // Re-mining reproduces exactly the tallies the batch contributed;
  // its quarantine entries were recorded at ingest, so the re-parse
  // failures go to a throwaway ledger.
  QuarantineLedger scratch;
  Status mined =
      MineBatch(id, it->second.payload, *context, &staging, &scratch);
  if (!mined.ok()) return ErrorResponse(std::move(mined));
  Status appended = store_.AppendRetract(id);
  if (!appended.ok()) {
    if (store_.degraded()) {
      EnterReadOnly(appended.message());
      UpdateStorageStats();
      Response response = ErrorResponse(std::move(appended));
      response.retry_after_ms = kReadOnlyRetryMs;
      return response;
    }
    return ErrorResponse(std::move(appended));
  }
  const int trees = staging.tree_count();
  miner_.SubtractFrom(staging);
  batches_.erase(it);
  COUSINS_METRIC_COUNTER_ADD("svc.retracts", 1);
  UpdateStorageStats();
  Status published = PublishSnapshot();
  if (!published.ok()) return ErrorResponse(std::move(published));
  Response response;
  response.payload = "id=" + std::to_string(id) +
                     " trees=" + std::to_string(trees) + "\n";
  return response;
}

Response CousinService::HandleQuery(const Request& request) const {
  if (request.args.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "QUERY requires a mode: frequent-pairs | support"));
  }
  AdmissionSlot slot(const_cast<AdmissionController&>(admission_), 0);
  if (!slot.admitted()) return ShedResponse(slot.decision());
  std::shared_ptr<const ServiceSnapshot> snapshot = snapshot_cell_.Load();
  Response response;
  if (request.args[0] == "frequent-pairs") {
    response.payload = snapshot->frequent_csv;
    return response;
  }
  if (request.args[0] == "support") {
    if (request.args.size() < 4) {
      return ErrorResponse(Status::InvalidArgument(
          "QUERY support requires <label1> <label2> <distance>"));
    }
    // Row match over the all-tallies CSV: the first three fields are
    // label1, label2 and the rendered distance for every variant's CSV
    // shape. Labels containing commas or quotes are matched by their
    // CSV-escaped form. Each pair is stored in one label order (its
    // interning order) and the pair is unordered, so the labels are
    // tried as given and, when no row matches, swapped.
    const std::string_view all = snapshot->all_csv;
    const size_t header_end = all.find('\n');
    response.payload.assign(all.substr(0, header_end));
    response.payload += "\n";
    const auto append_rows = [&](const std::string& a, const std::string& b) {
      // A data row starts right after a newline, so the header never
      // matches.
      const std::string needle =
          "\n" + a + "," + b + "," + request.args[3] + ",";
      bool found = false;
      for (size_t at = all.find(needle); at != std::string_view::npos;
           at = all.find(needle, at + 1)) {
        const size_t end = all.find('\n', at + 1);
        response.payload.append(all.substr(
            at + 1, end == std::string_view::npos ? end : end - at - 1));
        response.payload += "\n";
        found = true;
      }
      return found;
    };
    if (!append_rows(request.args[1], request.args[2])) {
      append_rows(request.args[2], request.args[1]);
    }
    return response;
  }
  return ErrorResponse(Status::InvalidArgument(
      "unknown QUERY mode '" + request.args[0] + "'"));
}

Status CousinService::CompactLocked() {
  // Retention horizon: only the N most-recent live batches keep their
  // payloads past this compaction. Older batches stay tallied (the
  // snapshot carries the miner state) but can no longer be retracted.
  if (config_.retain_batches > 0 &&
      static_cast<int64_t>(batches_.size()) > config_.retain_batches) {
    int64_t drop =
        static_cast<int64_t>(batches_.size()) - config_.retain_batches;
    for (auto it = batches_.begin(); drop > 0 && it != batches_.end();
         ++it, --drop) {
      if (!it->second.retained) continue;
      it->second.payload.clear();
      it->second.payload.shrink_to_fit();
      it->second.retained = false;
      COUSINS_METRIC_COUNTER_ADD("svc.retention_dropped", 1);
    }
  }
  // The snapshot serializes the ACKED in-memory state: a phantom
  // record (durable in the old segments but never acknowledged, e.g.
  // a crash-window append) is resolved toward "not accepted" here —
  // the old segments are retired and the phantom with them.
  COUSINS_RETURN_IF_ERROR(store_.Compact(SerializeServiceSnapshot()));
  if (read_only_.exchange(false, std::memory_order_relaxed)) {
    COUSINS_METRIC_COUNTER_ADD("svc.read_only_exits", 1);
  }
  {
    std::lock_guard<std::mutex> lock(reason_mu_);
    read_only_reason_.clear();
  }
  UpdateStorageStats();
  return Status::OK();
}

Response CousinService::HandleCompact() {
  // No admission gate and no draining check: COMPACT is the recovery
  // path out of read-only mode and must stay reachable exactly when
  // the daemon is otherwise refusing work.
  std::lock_guard<std::mutex> lock(mutate_mu_);
  Status compacted = CompactLocked();
  if (!compacted.ok()) {
    UpdateStorageStats();
    return ErrorResponse(std::move(compacted));
  }
  Response response;
  response.payload =
      "compaction=" + std::to_string(store_.last_compaction_id()) +
      " segments=" + std::to_string(store_.segment_count()) +
      " wal_bytes=" + std::to_string(store_.total_bytes()) + "\n";
  return response;
}

std::string CousinService::HealthJson() const {
  std::shared_ptr<const ServiceSnapshot> snapshot = snapshot_cell_.Load();
  std::string out = "{\"svc\":{";
  out += "\"draining\":" + std::string(draining() ? "true" : "false");
  out += ",\"trees\":" + std::to_string(snapshot->trees);
  out += ",\"live_batches\":" + std::to_string(snapshot->live_batches);
  out += ",\"tallies\":" + std::to_string(snapshot->tallies);
  out += ",\"snapshot_version\":" + std::to_string(snapshot->version);
  out += ",\"replayed_batches\":" + std::to_string(replayed_batches_);
  out += ",\"requests\":" +
         std::to_string(requests_.load(std::memory_order_relaxed));
  out += ",\"admission\":{";
  out += "\"inflight\":" + std::to_string(admission_.inflight());
  out += ",\"inflight_bytes\":" +
         std::to_string(admission_.inflight_bytes());
  out += ",\"shed\":" + std::to_string(admission_.shed());
  out += ",\"admitted\":" + std::to_string(admission_.admitted_total());
  out += "},\"storage\":{";
  out += "\"segments\":" +
         std::to_string(storage_segments_.load(std::memory_order_relaxed));
  out += ",\"wal_bytes\":" +
         std::to_string(storage_wal_bytes_.load(std::memory_order_relaxed));
  out += ",\"sealed_bytes\":" +
         std::to_string(
             storage_sealed_bytes_.load(std::memory_order_relaxed));
  out += ",\"last_compaction\":" +
         std::to_string(
             storage_compaction_id_.load(std::memory_order_relaxed));
  out += ",\"replayed_records\":" + std::to_string(replayed_records_);
  out += ",\"recovery_ms\":" + std::to_string(recovery_ms_);
  out += ",\"read_only\":" + std::string(read_only() ? "true" : "false");
  out += ",\"reason\":\"" + JsonEscape(ReadOnlyReason()) + "\"";
  out += "}}}";
  return out;
}

Response CousinService::HandleHealth() const {
  // No admission, no mutation mutex: HEALTH answers even when the
  // service is saturated or mid-ingest.
  Response response;
  response.payload = HealthJson() + "\n";
  return response;
}

Response CousinService::HandleDrain() {
  BeginDrain();
  Response response;
  response.payload = "draining\n";
  return response;
}

Response CousinService::Handle(const Request& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  COUSINS_METRIC_COUNTER_ADD("svc.requests", 1);
  if (request.verb == "INGEST") return HandleIngest(request);
  if (request.verb == "RETRACT") return HandleRetract(request);
  if (request.verb == "QUERY") return HandleQuery(request);
  if (request.verb == "HEALTH") return HandleHealth();
  if (request.verb == "COMPACT") return HandleCompact();
  if (request.verb == "DRAIN") return HandleDrain();
  return ErrorResponse(
      Status::InvalidArgument("unknown verb '" + request.verb + "'"));
}

Status CousinService::FinishDrain() {
  if (drained_.exchange(true)) return Status::OK();
  BeginDrain();
  std::lock_guard<std::mutex> lock(mutate_mu_);
  if (!config_.checkpoint_path.empty()) {
    COUSINS_RETURN_IF_ERROR(WriteFileAtomic(
        config_.checkpoint_path, miner_.SerializeCheckpoint(&quarantine_)));
  }
  if (!config_.health_report_path.empty()) {
    COUSINS_RETURN_IF_ERROR(
        WriteFileAtomic(config_.health_report_path, HealthJson() + "\n"));
  }
  COUSINS_METRIC_COUNTER_ADD("svc.drains", 1);
  return Status::OK();
}

void ServeConnection(int in_fd, int out_fd, CousinService& service,
                     std::atomic<bool>* stop) {
  std::string body;
  for (;;) {
    Result<bool> got = ReadFrame(in_fd, &body);
    if (!got.ok()) {
      // A torn frame or injected read fault drops this connection
      // only; the daemon (and every other connection) keeps serving.
      COUSINS_METRIC_COUNTER_ADD("svc.conn_errors", 1);
      break;
    }
    if (!*got) break;  // clean EOF
    Response response;
    Result<Request> request = ParseRequest(body);
    bool served_drain = false;
    if (!request.ok()) {
      response.status = request.status();
    } else {
      response = service.Handle(*request);
      served_drain = request->verb == "DRAIN" && response.status.ok();
    }
    Status written = WriteFrame(out_fd, RenderResponse(response));
    if (!written.ok()) {
      COUSINS_METRIC_COUNTER_ADD("svc.conn_errors", 1);
      break;
    }
    if (served_drain) {
      if (stop != nullptr) stop->store(true, std::memory_order_relaxed);
      break;
    }
  }
}

Status RunUnixServer(const std::string& socket_path,
                     CousinService& service, std::atomic<bool>* stop) {
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Unavailable("cannot create unix socket");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    close(listen_fd);
    return Status::InvalidArgument("socket path too long");
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(listen_fd);
    return Status::Unavailable("cannot bind unix socket '" + socket_path +
                               "'");
  }
  if (listen(listen_fd, 16) != 0) {
    close(listen_fd);
    return Status::Unavailable("cannot listen on '" + socket_path + "'");
  }
  std::vector<std::thread> connections;
  while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      COUSINS_METRIC_COUNTER_ADD("svc.accept_failures", 1);
      continue;
    }
    if (fault::Fired("svc.accept")) {
      // Simulated transient accept failure: the client sees a dropped
      // connection; the accept loop keeps serving.
      COUSINS_METRIC_COUNTER_ADD("svc.accept_failures", 1);
      close(conn);
      continue;
    }
    COUSINS_METRIC_COUNTER_ADD("svc.accepts", 1);
    connections.emplace_back([conn, &service, stop] {
      ServeConnection(conn, conn, service, stop);
      close(conn);
    });
  }
  close(listen_fd);
  // Graceful drain: every in-flight connection finishes its requests
  // before the caller writes the final checkpoint.
  for (std::thread& t : connections) t.join();
  ::unlink(socket_path.c_str());
  return Status::OK();
}

}  // namespace cousins::svc
