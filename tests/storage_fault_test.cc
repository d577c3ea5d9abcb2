// Storage-engine fault drills for the segmented WAL (svc/wal_store.h)
// and the daemon's disk-failure discipline (svc/daemon.h):
//
//   * an errno-exact sweep over the fs_ops fault families on the
//     daemon's storage path (ENOSPC, EIO, short write, torn write,
//     failed fsync), asserting per armed fault that the daemon never
//     crashes, every refusal is a clean kUnavailable, and a disarmed
//     restart recovers a batch set S with acked ⊆ S ⊆ attempted;
//   * the fsyncgate rule: a failed fsync poisons its segment — the
//     daemon never retries the fsync and acknowledges, it goes
//     read-only until compaction discards the segment;
//   * read-only degraded mode: mutations shed with a retry-after while
//     QUERY/HEALTH keep serving, and a successful COMPACT exits;
//   * WAL edge shapes on disk: zero-byte and header-only final
//     segments, an empty segment mid-list, damaged sealed segments,
//     header/filename sequence mismatches;
//   * compaction vs. crash: a failure before the manifest swap leaves
//     the prior state fully intact; orphans from a failure after the
//     commit point are retired by the next open;
//   * the dir-fsync-after-create contract on both journals (the WAL
//     segment and the shard-lease ledger).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/checkpoint.h"
#include "core/item_io.h"
#include "gen/yule_generator.h"
#include "proc/lease_ledger.h"
#include "svc/daemon.h"
#include "svc/protocol.h"
#include "svc/wal.h"
#include "svc/wal_store.h"
#include "tree/newick.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cousins {
namespace {

using fault::FaultRegistry;
using svc::CousinService;
using svc::Request;
using svc::Response;
using svc::ServiceConfig;
using svc::SvcWal;
using svc::SvcWalRecord;
using svc::WalRecovery;
using svc::WalStore;
using svc::WalStoreConfig;

constexpr uint32_t kFp = 0xC0FFEE;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

void RemoveStore(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string MakeBatch(uint64_t seed, int trees) {
  auto labels = std::make_shared<LabelTable>();
  Rng rng(seed);
  YulePhylogenyOptions gen;
  gen.min_nodes = 8;
  gen.max_nodes = 14;
  gen.alphabet_size = 25;
  std::string text;
  for (int i = 0; i < trees; ++i) {
    text += ToNewick(GenerateYulePhylogeny(gen, rng, labels));
    text += ";\n";
  }
  return text;
}

Request MakeRequest(std::string verb, std::vector<std::string> args = {},
                    std::string payload = "") {
  Request request;
  request.verb = std::move(verb);
  request.args = std::move(args);
  request.payload = std::move(payload);
  return request;
}

ServiceConfig BaseConfig(const std::string& wal_path) {
  ServiceConfig config;
  config.mining.min_support = 2;
  config.wal_path = wal_path;
  return config;
}

std::string QueryFrequent(CousinService& service) {
  Response response =
      service.Handle(MakeRequest("QUERY", {"frequent-pairs"}));
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return response.payload;
}

/// Daemon-vs-daemon oracle: the answer a fresh daemon gives over
/// exactly `batches` (same label-interning order WAL replay produces).
/// The store is private to the calling test case and process, so test
/// cases running concurrently never remove each other's oracle store.
/// A failed Start is reported and yields an empty answer, which no
/// daemon CSV (it always has a header) can equal.
std::string OracleCsv(const std::vector<std::string>& batches) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string wal =
      TempPath(std::string("storage_fault_oracle.") + test->test_suite_name() +
               "." + test->name() + "." + std::to_string(getpid()));
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  if (!service.ok()) {
    ADD_FAILURE() << "oracle daemon failed to start: "
                  << service.status().ToString();
    RemoveStore(wal);
    return "";
  }
  for (const std::string& batch : batches) {
    EXPECT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch)).status.ok());
  }
  const std::string csv = QueryFrequent(**service);
  service->reset();
  RemoveStore(wal);
  return csv;
}

// --- Errno sweep over the daemon's storage path ------------------------

TEST(StorageErrnoSweepTest, AckedSubsetRecoveredSubsetAttempted) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string wal = TempPath("storage_errno_sweep");
  const std::vector<std::string> batches = {
      MakeBatch(811, 4), MakeBatch(822, 4), MakeBatch(833, 4)};

  // Candidate answers for every subset, precomputed once.
  std::vector<std::string> candidates(1u << batches.size());
  for (uint32_t mask = 0; mask < candidates.size(); ++mask) {
    std::vector<std::string> subset;
    for (size_t i = 0; i < batches.size(); ++i) {
      if ((mask >> i) & 1) subset.push_back(batches[i]);
    }
    candidates[mask] = OracleCsv(subset);
  }

  // The full errno-typed family of every fs_ops site on the daemon's
  // storage path. k counts hits from Start: the segment header's
  // append/fsync is hit 1, the first two batches are hits 2 and 3.
  const std::vector<std::string> sites = {
      "svc.wal.open",           "svc.wal.open.enospc",
      "svc.wal.open.eio",       "svc.wal.dirsync",
      "svc.wal.dirsync.enospc", "svc.wal.dirsync.eio",
      "svc.wal.append",         "svc.wal.append.enospc",
      "svc.wal.append.eio",     "svc.wal.append.short",
      "svc.wal.append.torn",    "svc.wal.fsync",
      "svc.wal.fsync.enospc",   "svc.wal.fsync.eio",
      "svc.manifest.open.enospc", "svc.manifest.open.eio",
      "svc.manifest.write.short", "svc.manifest.write.torn",
      "svc.manifest.flush.eio",   "svc.manifest.rename.enospc",
      "svc.manifest.dirsync.eio"};

  for (const std::string& site : sites) {
    for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      SCOPED_TRACE(site + " k=" + std::to_string(k));
      RemoveStore(wal);
      registry.DisarmAll();
      registry.Arm(site, k);

      std::vector<bool> acked(batches.size(), false);
      bool mutation_failed = false;
      Result<std::unique_ptr<CousinService>> service =
          CousinService::Start(BaseConfig(wal));
      if (service.ok()) {
        for (size_t i = 0; i < batches.size(); ++i) {
          Response r =
              (*service)->Handle(MakeRequest("INGEST", {}, batches[i]));
          acked[i] = r.status.ok();
          if (!r.status.ok()) {
            mutation_failed = true;
            EXPECT_EQ(r.status.code(), StatusCode::kUnavailable)
                << r.status.ToString();
            EXPECT_FALSE(r.status.message().empty());
          }
        }
        // Reads keep answering whatever storage did.
        EXPECT_TRUE((*service)
                        ->Handle(MakeRequest("QUERY", {"frequent-pairs"}))
                        .status.ok());
        EXPECT_TRUE((*service)->Handle(MakeRequest("HEALTH")).status.ok());
        // An errno-carrying mutation failure must have flipped the
        // daemon read-only (boolean legacy faults stay retryable).
        const bool typed_mutation_site =
            (site.rfind("svc.wal.append.", 0) == 0 ||
             site.rfind("svc.wal.fsync.", 0) == 0);
        if (mutation_failed && typed_mutation_site) {
          EXPECT_TRUE((*service)->read_only());
        }
        service->reset();
      } else {
        // The fault landed during Start: a clean, diagnosed refusal.
        EXPECT_EQ(service.status().code(), StatusCode::kUnavailable)
            << service.status().ToString();
      }
      registry.DisarmAll();

      // Disarmed recovery must succeed — even over a half-initialized
      // directory or a torn active segment — and land on an admissible
      // batch set: acked ⊆ recovered ⊆ attempted.
      Result<std::unique_ptr<CousinService>> revived =
          CousinService::Start(BaseConfig(wal));
      ASSERT_TRUE(revived.ok()) << revived.status().ToString();
      const std::string recovered = QueryFrequent(**revived);
      revived->reset();

      bool matched = false;
      for (uint32_t mask = 0; mask < candidates.size() && !matched;
           ++mask) {
        bool admissible = true;
        for (size_t i = 0; i < batches.size(); ++i) {
          if (acked[i] && !((mask >> i) & 1)) admissible = false;
        }
        if (admissible) matched = recovered == candidates[mask];
      }
      EXPECT_TRUE(matched)
          << "recovered state matches no admissible batch set:\n"
          << recovered;
    }
  }
  RemoveStore(wal);
}

// --- Failure discipline ------------------------------------------------

TEST(StorageFaultTest, FsyncFailurePoisonsSegmentAndNeverRetriesIntoAck) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string wal = TempPath("storage_fsyncgate");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string batch = MakeBatch(911, 3);

  // The batch's bytes land but the fsync fails: durability is
  // indeterminate (fsyncgate) — the ack must be withheld and the
  // segment poisoned.
  registry.Arm("svc.wal.fsync.eio", 1);
  Response failed = (*service)->Handle(MakeRequest("INGEST", {}, batch));
  registry.DisarmAll();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status.message().find("EIO"), std::string::npos)
      << failed.status.ToString();
  EXPECT_TRUE((*service)->read_only());

  // The poisoned segment never accepts a retry-then-ack: the same
  // batch is shed (with a retry hint), not silently re-fsynced.
  Response retried = (*service)->Handle(MakeRequest("INGEST", {}, batch));
  EXPECT_EQ(retried.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(retried.status.message().find("read-only"), std::string::npos)
      << retried.status.ToString();
  EXPECT_GT(retried.retry_after_ms, 0);

  // Reads keep serving; HEALTH reports the degraded state and why.
  Response health = (*service)->Handle(MakeRequest("HEALTH"));
  ASSERT_TRUE(health.status.ok());
  EXPECT_NE(health.payload.find("\"read_only\":true"), std::string::npos);
  EXPECT_NE(health.payload.find("EIO"), std::string::npos);

  // COMPACT discards the poisoned segment — the one sanctioned exit.
  Response compacted = (*service)->Handle(MakeRequest("COMPACT"));
  ASSERT_TRUE(compacted.status.ok()) << compacted.status.ToString();
  EXPECT_FALSE((*service)->read_only());
  Response ok = (*service)->Handle(MakeRequest("INGEST", {}, batch));
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  // The failed attempt never burned an id.
  EXPECT_NE(ok.payload.find("id=1"), std::string::npos);
  const std::string live = QueryFrequent(**service);
  service->reset();

  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->replayed_batches(), 1);
  EXPECT_EQ(QueryFrequent(**revived), live);
  RemoveStore(wal);
}

TEST(StorageFaultTest, EnospcShedsMutationsUntilCompaction) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string wal = TempPath("storage_enospc");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string batch1 = MakeBatch(921, 3);
  const std::string batch2 = MakeBatch(922, 3);
  ASSERT_TRUE(
      (*service)->Handle(MakeRequest("INGEST", {}, batch1)).status.ok());

  // The disk fills: ENOSPC before any byte lands. Not poisoned (the
  // segment is still exactly its acked bytes) but errno-carrying, so
  // the daemon sheds mutations rather than grinding against a full
  // disk.
  registry.Arm("svc.wal.append.enospc", 1);
  Response failed = (*service)->Handle(MakeRequest("INGEST", {}, batch2));
  registry.DisarmAll();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.status.message().find("ENOSPC"), std::string::npos)
      << failed.status.ToString();
  EXPECT_TRUE((*service)->read_only());
  EXPECT_GT(failed.retry_after_ms, 0);

  // Queries still answer from the published snapshot.
  EXPECT_EQ(QueryFrequent(**service), OracleCsv({batch1}));
  Response health = (*service)->Handle(MakeRequest("HEALTH"));
  ASSERT_TRUE(health.status.ok());
  EXPECT_NE(health.payload.find("ENOSPC"), std::string::npos);

  // Compaction reclaims the log and reopens for writes.
  ASSERT_TRUE((*service)->Handle(MakeRequest("COMPACT")).status.ok());
  EXPECT_FALSE((*service)->read_only());
  Response ok = (*service)->Handle(MakeRequest("INGEST", {}, batch2));
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_NE(ok.payload.find("id=2"), std::string::npos);
  const std::string live = QueryFrequent(**service);
  service->reset();
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(QueryFrequent(**revived), live);
  RemoveStore(wal);
}

TEST(StorageFaultTest, DirFsyncAfterCreateGuardsBothJournals) {
  // A crash right after creat(2) can lose the file itself unless the
  // parent directory is fsynced: both journal Opens own that contract,
  // so an injected directory-fsync failure must fail the open cleanly
  // (and a disarmed retry must succeed).
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  {
    const std::string path = TempPath("storage_dirsync_wal");
    std::remove(path.c_str());
    registry.Arm("svc.wal.dirsync", 1);
    Result<SvcWal> failed = SvcWal::Open(path);
    registry.DisarmAll();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    Result<SvcWal> retried = SvcWal::Open(path);
    EXPECT_TRUE(retried.ok()) << retried.status().ToString();
    std::remove(path.c_str());
  }
  {
    const std::string path = TempPath("storage_dirsync_lease");
    std::remove(path.c_str());
    registry.Arm("proc.journal.dirsync", 1);
    Result<proc::LeaseJournal> failed =
        proc::LeaseJournal::Open(path, /*truncate=*/true);
    registry.DisarmAll();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    Result<proc::LeaseJournal> retried =
        proc::LeaseJournal::Open(path, /*truncate=*/true);
    EXPECT_TRUE(retried.ok()) << retried.status().ToString();
    std::remove(path.c_str());
  }
}

// --- WAL edge shapes ---------------------------------------------------

std::string SegName(int64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06lld.wal",
                static_cast<long long>(seq));
  return name;
}

void WriteManifest(const std::string& dir, uint32_t fp,
                   int64_t compaction_id, const std::string& snap,
                   const std::vector<std::string>& segs) {
  std::string body = "SVCMANIFEST 2 " + std::to_string(fp) + " " +
                     std::to_string(compaction_id) + " " +
                     (snap.empty() ? "-" : snap) + " ";
  for (size_t i = 0; i < segs.size(); ++i) {
    if (i > 0) body += ",";
    body += segs[i];
  }
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/MANIFEST", svc::FrameWalLine(body)).ok());
}

/// Builds segment `seq` in `dir` with a header (sequence
/// `header_seq`, defaulting to the file's own) and the given batches.
void MakeSegment(const std::string& dir, uint32_t fp, int64_t seq,
                 const std::vector<std::pair<int64_t, std::string>>& recs,
                 int64_t header_seq = -1) {
  Result<SvcWal> wal = SvcWal::Open(dir + "/" + SegName(seq), true);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(
      wal->AppendSegHeader(fp, header_seq < 0 ? seq : header_seq).ok());
  for (const auto& [id, payload] : recs) {
    ASSERT_TRUE(wal->AppendBatch(id, payload).ok());
  }
}

TEST(WalEdgeShapeTest, ZeroByteAndTornHeaderFinalSegmentsReplayEmpty) {
  const std::string dir = TempPath("storage_edge_zero");
  for (const int64_t keep_bytes : {int64_t{0}, int64_t{5}}) {
    SCOPED_TRACE("keep_bytes=" + std::to_string(keep_bytes));
    RemoveStore(dir);
    {
      WalRecovery recovery;
      Result<WalStore> store =
          WalStore::Open(dir, kFp, WalStoreConfig{}, &recovery);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
    }
    // The crash hit between segment creation and the header fsync:
    // a zero-byte (or torn-header) FINAL segment is legal and empty.
    ASSERT_EQ(::truncate((dir + "/" + SegName(1)).c_str(),
                         static_cast<off_t>(keep_bytes)),
              0);
    WalRecovery recovery;
    Result<WalStore> store =
        WalStore::Open(dir, kFp, WalStoreConfig{}, &recovery);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(recovery.replayed_records, 0);
    // The segment was re-headed: appends land and replay.
    ASSERT_TRUE(store->AppendBatch(1, "(a,b);").ok());
    WalRecovery again;
    Result<WalStore> reopened =
        WalStore::Open(dir, kFp, WalStoreConfig{}, &again);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_EQ(again.replayed_records, 1);
    EXPECT_EQ(again.tail[0].kind, SvcWalRecord::Kind::kBatch);
    EXPECT_EQ(again.tail[0].id, 1);
  }
  RemoveStore(dir);
}

TEST(WalEdgeShapeTest, HeaderOnlySegmentMidListIsLegal) {
  const std::string dir = TempPath("storage_edge_midlist");
  RemoveStore(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  // A rotation that raced a quiet period: segment 2 sealed empty
  // (header only) between two populated neighbours.
  MakeSegment(dir, kFp, 1, {{1, "(a,b);"}});
  MakeSegment(dir, kFp, 2, {});
  MakeSegment(dir, kFp, 3, {{2, "(c,d);"}});
  WriteManifest(dir, kFp, 0, "",
                {SegName(1), SegName(2), SegName(3)});
  WalRecovery recovery;
  Result<WalStore> store =
      WalStore::Open(dir, kFp, WalStoreConfig{}, &recovery);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(recovery.segments, 3);
  ASSERT_EQ(recovery.replayed_records, 2);
  EXPECT_EQ(recovery.tail[0].id, 1);
  EXPECT_EQ(recovery.tail[1].id, 2);
  RemoveStore(dir);
}

TEST(WalEdgeShapeTest, DamagedSealedSegmentRefused) {
  const std::string dir = TempPath("storage_edge_sealed");
  for (const bool truncated : {true, false}) {
    SCOPED_TRACE(truncated ? "torn tail" : "flipped byte");
    RemoveStore(dir);
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    MakeSegment(dir, kFp, 1, {{1, "(a,b);"}, {2, "(c,d);"}});
    MakeSegment(dir, kFp, 2, {{3, "(e,f);"}});
    WriteManifest(dir, kFp, 0, "", {SegName(1), SegName(2)});
    const std::string sealed = dir + "/" + SegName(1);
    Result<std::string> text = ReadFileToString(sealed);
    ASSERT_TRUE(text.ok());
    if (truncated) {
      // Torn bytes are a crash artifact only the FINAL segment can
      // carry — a sealed segment was fsync'd whole before the
      // manifest listed its successor.
      ASSERT_EQ(::truncate(sealed.c_str(),
                           static_cast<off_t>(text->size() - 3)),
                0);
    } else {
      std::string damaged = *text;
      damaged[damaged.find("BATCH 1") + 3] ^= 0x04;
      ASSERT_TRUE(WriteFileAtomic(sealed, damaged).ok());
    }
    WalRecovery recovery;
    Result<WalStore> refused =
        WalStore::Open(dir, kFp, WalStoreConfig{}, &recovery);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
        << refused.status().ToString();
  }
  RemoveStore(dir);
}

TEST(WalEdgeShapeTest, HeaderSequenceMustMatchFilename) {
  const std::string dir = TempPath("storage_edge_seq");
  RemoveStore(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  MakeSegment(dir, kFp, 1, {{1, "(a,b);"}}, /*header_seq=*/7);
  WriteManifest(dir, kFp, 0, "", {SegName(1)});
  WalRecovery recovery;
  Result<WalStore> refused =
      WalStore::Open(dir, kFp, WalStoreConfig{}, &recovery);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
      << refused.status().ToString();
  RemoveStore(dir);
}

TEST(WalEdgeShapeTest, WrongFingerprintRefusedAtManifest) {
  const std::string dir = TempPath("storage_edge_fp");
  RemoveStore(dir);
  {
    WalRecovery recovery;
    Result<WalStore> store =
        WalStore::Open(dir, kFp, WalStoreConfig{}, &recovery);
    ASSERT_TRUE(store.ok());
  }
  WalRecovery recovery;
  Result<WalStore> refused =
      WalStore::Open(dir, kFp + 1, WalStoreConfig{}, &recovery);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  RemoveStore(dir);
}

// --- Compaction vs. crash ----------------------------------------------

TEST(StorageFaultTest, CompactionFailureBeforeCommitLeavesPriorState) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string wal = TempPath("storage_compact_precommit");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  const std::vector<std::string> batches = {MakeBatch(931, 3),
                                            MakeBatch(932, 3)};
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (const std::string& batch : batches) {
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch)).status.ok());
  }
  const std::string live = QueryFrequent(**service);

  // The manifest swap — the commit point — fails: the compaction must
  // report cleanly and the prior {manifest, segments} stay the store.
  registry.Arm("svc.manifest.rename.eio", 1);
  Response failed = (*service)->Handle(MakeRequest("COMPACT"));
  registry.DisarmAll();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable)
      << failed.status.ToString();
  EXPECT_EQ(QueryFrequent(**service), live);

  // kill -9 now: recovery replays the pre-compaction state whole.
  service->reset();
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->replayed_batches(), 2);
  EXPECT_EQ((*revived)->replayed_records(), 2);
  EXPECT_EQ(QueryFrequent(**revived), live);
  // A disarmed COMPACT converges; the next restart replays only the
  // (empty) tail.
  ASSERT_TRUE((*revived)->Handle(MakeRequest("COMPACT")).status.ok());
  revived->reset();
  Result<std::unique_ptr<CousinService>> again =
      CousinService::Start(config);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->replayed_batches(), 2);
  EXPECT_EQ((*again)->replayed_records(), 0);
  EXPECT_EQ(QueryFrequent(**again), live);
  RemoveStore(wal);
}

TEST(StorageFaultTest, OrphansAfterCommitAreRetiredByNextOpen) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string wal = TempPath("storage_compact_orphans");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)
                  ->Handle(MakeRequest("INGEST", {}, MakeBatch(941, 3)))
                  .status.ok());
  // Retirement of the old segments fails after the commit point: the
  // compaction still succeeds (the files are unreferenced orphans).
  registry.Arm("svc.wal.retire", 1);
  Response compacted = (*service)->Handle(MakeRequest("COMPACT"));
  registry.DisarmAll();
  ASSERT_TRUE(compacted.status.ok()) << compacted.status.ToString();
  const std::string live = QueryFrequent(**service);
  service->reset();

  // The orphan survives on disk until the next open sweeps it.
  int64_t files_before = 0;
  for (const auto& entry : std::filesystem::directory_iterator(wal)) {
    (void)entry;
    ++files_before;
  }
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(QueryFrequent(**revived), live);
  revived->reset();
  int64_t files_after = 0;
  for (const auto& entry : std::filesystem::directory_iterator(wal)) {
    (void)entry;
    ++files_after;
  }
  EXPECT_LT(files_after, files_before);
  RemoveStore(wal);
}

}  // namespace
}  // namespace cousins
