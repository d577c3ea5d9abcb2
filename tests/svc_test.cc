// Daemon subsystem tests (src/svc): WAL framing and replay semantics
// (torn tail tolerated, mid-file corruption refused, wrong options
// refused), the framed wire protocol, admission control, the service's
// request semantics (ingest/retract/query/health/drain), and the crash
// contract — an abandoned (never-drained) service restarted over its
// WAL answers queries byte-identically to a batch mining run over the
// acknowledged batches, across miner variants and thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/item_io.h"
#include "core/parallel_mining.h"
#include "gen/yule_generator.h"
#include "svc/admission.h"
#include "svc/daemon.h"
#include "svc/protocol.h"
#include "svc/wal.h"
#include "tree/newick.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cousins {
namespace {

using fault::FaultRegistry;
using svc::CousinService;
using svc::ParsedResponse;
using svc::Request;
using svc::Response;
using svc::ServiceConfig;
using svc::SvcWal;
using svc::SvcWalRecord;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Removes a WAL store (a v2 segment directory — or a leftover v1
/// file) between tests.
void RemoveStore(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

/// Path of the active (highest-sequence) segment inside a v2 WAL
/// directory — the file the next append lands in, and the only one a
/// torn-tail test may legally damage.
std::string ActiveSegmentPath(const std::string& wal_dir) {
  std::string best;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && name > best) best = name;
  }
  EXPECT_FALSE(best.empty()) << "no segment in " << wal_dir;
  return wal_dir + "/" + best;
}

/// A small deterministic Newick batch; distinct seeds give disjoint
/// batches over a shared 30-label alphabet (so cross-batch pairs gain
/// support and retraction visibly subtracts).
std::string MakeBatch(uint64_t seed, int trees) {
  auto labels = std::make_shared<LabelTable>();
  Rng rng(seed);
  YulePhylogenyOptions gen;
  gen.min_nodes = 8;
  gen.max_nodes = 16;
  gen.alphabet_size = 30;
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

/// What the daemon must answer after recovery: the batch pipeline's
/// frequent CSV over the concatenated acknowledged batches, mined
/// under the same options.
std::string BatchPipelineCsv(const std::vector<std::string>& payloads,
                             const MultiTreeMiningOptions& options,
                             int threads) {
  std::string text;
  for (const std::string& payload : payloads) text += payload;
  auto labels = std::make_shared<LabelTable>();
  Result<std::vector<Tree>> trees = ParseNewickForest(text, labels);
  EXPECT_TRUE(trees.ok()) << trees.status().ToString();
  Result<MultiTreeMiningRun> run = MineMultipleTreesParallelGoverned(
      *trees, options, MiningContext::Unlimited(), threads);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return FrequentPairsToCsv(*labels, run->pairs);
}

std::string QueryFrequent(CousinService& service) {
  Response response =
      service.Handle(MakeRequest("QUERY", {"frequent-pairs"}));
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return response.payload;
}

// --- WAL ---------------------------------------------------------------

TEST(SvcWalTest, EscapeRoundTripsControlBytes) {
  const std::string payload = "((a,b),c);\n(d,e);\r\n back\\slash";
  const std::string escaped = svc::EscapeWalPayload(payload);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  Result<std::string> back = svc::UnescapeWalPayload(escaped);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
  EXPECT_FALSE(svc::UnescapeWalPayload("dangling\\").ok());
  EXPECT_FALSE(svc::UnescapeWalPayload("bad\\q").ok());
}

TEST(SvcWalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("svc_wal_roundtrip");
  std::remove(path.c_str());
  {
    Result<SvcWal> wal = SvcWal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->AppendHeader(1234).ok());
    ASSERT_TRUE(wal->AppendBatch(1, "((a,b),c);\nmore;\n").ok());
    ASSERT_TRUE(wal->AppendBatch(2, "(d,e);").ok());
    ASSERT_TRUE(wal->AppendRetract(1).ok());
  }
  Result<std::vector<SvcWalRecord>> records = svc::ReplaySvcWal(path, 1234);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].kind, SvcWalRecord::Kind::kBatch);
  EXPECT_EQ((*records)[0].id, 1);
  EXPECT_EQ((*records)[0].payload, "((a,b),c);\nmore;\n");
  EXPECT_EQ((*records)[1].kind, SvcWalRecord::Kind::kBatch);
  EXPECT_EQ((*records)[1].id, 2);
  EXPECT_EQ((*records)[2].kind, SvcWalRecord::Kind::kRetract);
  EXPECT_EQ((*records)[2].id, 1);
  std::remove(path.c_str());
}

TEST(SvcWalTest, WrongFingerprintRefused) {
  const std::string path = TempPath("svc_wal_fingerprint");
  std::remove(path.c_str());
  {
    Result<SvcWal> wal = SvcWal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->AppendHeader(1234).ok());
    ASSERT_TRUE(wal->AppendBatch(1, "(a,b);").ok());
  }
  Result<std::vector<SvcWalRecord>> records = svc::ReplaySvcWal(path, 9999);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SvcWalTest, TornTailDroppedButMidFileCorruptionRefused) {
  const std::string path = TempPath("svc_wal_torn");
  std::remove(path.c_str());
  {
    Result<SvcWal> wal = SvcWal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->AppendHeader(7).ok());
    ASSERT_TRUE(wal->AppendBatch(1, "(a,b);").ok());
    ASSERT_TRUE(wal->AppendBatch(2, "(c,d);").ok());
  }
  Result<std::string> text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  const size_t full = text->size();

  // Every truncation point inside the final record must replay as
  // "batch 2 was never acknowledged", with the valid prefix ending
  // exactly after batch 1's line.
  const size_t second_line_start = text->find("\n", text->find("BATCH 1")) + 1;
  for (const size_t cut : {full - 1, second_line_start + 3}) {
    ASSERT_TRUE(WriteFileAtomic(path, text->substr(0, cut)).ok());
    size_t valid_prefix = 0;
    Result<std::vector<SvcWalRecord>> records =
        svc::ReplaySvcWal(path, 7, &valid_prefix);
    ASSERT_TRUE(records.ok()) << "cut=" << cut << ": "
                              << records.status().ToString();
    ASSERT_EQ(records->size(), 1u) << "cut=" << cut;
    EXPECT_EQ((*records)[0].id, 1);
    EXPECT_EQ(valid_prefix, second_line_start);
  }

  // A damaged record with more content after it is not a crash
  // artifact — replay must refuse the whole journal.
  std::string corrupted = *text;
  corrupted[text->find("BATCH 1") + 2] ^= 0x20;  // inside batch 1's line
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());
  Result<std::vector<SvcWalRecord>> refused = svc::ReplaySvcWal(path, 7);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// --- Protocol ----------------------------------------------------------

TEST(SvcProtocolTest, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string body = "INGEST deadline-ms=100\n((a,b),c);\n";
  ASSERT_TRUE(svc::WriteFrame(fds[1], body).ok());
  ASSERT_TRUE(svc::WriteFrame(fds[1], "HEALTH\n").ok());
  close(fds[1]);
  std::string got;
  Result<bool> read = svc::ReadFrame(fds[0], &got);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(*read);
  EXPECT_EQ(got, body);
  read = svc::ReadFrame(fds[0], &got);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(*read);
  EXPECT_EQ(got, "HEALTH\n");
  // Closed writer at a frame boundary is a clean EOF, not an error.
  read = svc::ReadFrame(fds[0], &got);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(*read);
  close(fds[0]);
}

TEST(SvcProtocolTest, CorruptAndOversizedFramesRefused) {
  // CRC mismatch: a valid length word, garbage CRC.
  {
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const unsigned char frame[] = {4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef,
                                   'B', 'O', 'D', 'Y'};
    ASSERT_EQ(write(fds[1], frame, sizeof(frame)),
              static_cast<ssize_t>(sizeof(frame)));
    close(fds[1]);
    std::string got;
    Result<bool> read = svc::ReadFrame(fds[0], &got);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
    close(fds[0]);
  }
  // A length word past kMaxFrameBytes must be refused before any
  // allocation-sized read.
  {
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const unsigned char frame[] = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
    ASSERT_EQ(write(fds[1], frame, sizeof(frame)),
              static_cast<ssize_t>(sizeof(frame)));
    close(fds[1]);
    std::string got;
    Result<bool> read = svc::ReadFrame(fds[0], &got);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
    close(fds[0]);
  }
  // EOF mid-frame (a torn write) is corruption, not a clean EOF.
  {
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const unsigned char partial[] = {9, 0, 0};
    ASSERT_EQ(write(fds[1], partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
    close(fds[1]);
    std::string got;
    Result<bool> read = svc::ReadFrame(fds[0], &got);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
    close(fds[0]);
  }
}

TEST(SvcProtocolTest, RequestAndResponseParsing) {
  Result<Request> request =
      svc::ParseRequest("ingest deadline-ms=250\n(a,b);\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->verb, "INGEST");
  ASSERT_EQ(request->args.size(), 1u);
  EXPECT_EQ(request->args[0], "deadline-ms=250");
  EXPECT_EQ(request->payload, "(a,b);\n");
  EXPECT_FALSE(svc::ParseRequest("").ok());
  EXPECT_FALSE(svc::ParseRequest("\npayload").ok());

  Response shed;
  shed.status = Status::Unavailable("queue full");
  shed.retry_after_ms = 75;
  Result<ParsedResponse> parsed =
      svc::ParseResponse(svc::RenderResponse(shed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->code_name, "Unavailable");
  EXPECT_EQ(parsed->retry_after_ms, 75);
  EXPECT_NE(parsed->message.find("queue full"), std::string::npos);

  Response ok;
  ok.payload = "a,b\n1,2\n";
  parsed = svc::ParseResponse(svc::RenderResponse(ok));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->payload, "a,b\n1,2\n");
}

TEST(SvcProtocolTest, MalformedRetryAfterIsCorruption) {
  for (const char* body :
       {"ERR Unavailable retry-after-ms=12x queue full\n",
        "ERR Unavailable retry-after-ms= queue full\n",
        "ERR Unavailable retry-after-ms=-5 queue full\n",
        "ERR Unavailable retry-after-ms=+5 queue full\n",
        "ERR Unavailable retry-after-ms=99999999999 queue full\n"}) {
    Result<ParsedResponse> parsed = svc::ParseResponse(body);
    ASSERT_FALSE(parsed.ok()) << body;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << body;
  }
  Result<ParsedResponse> parsed =
      svc::ParseResponse("ERR Unavailable retry-after-ms=12\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->retry_after_ms, 12);
}

// --- Admission ---------------------------------------------------------

TEST(SvcAdmissionTest, QueueDepthAndByteWatermarkShed) {
  svc::AdmissionConfig config;
  config.max_inflight = 2;
  config.max_inflight_bytes = 100;
  config.retry_after_ms = 33;
  svc::AdmissionController controller(config);

  svc::AdmissionDecision a = controller.TryAdmit(40);
  svc::AdmissionDecision b = controller.TryAdmit(40);
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  // Queue depth: third concurrent request sheds whatever its size.
  svc::AdmissionDecision c = controller.TryAdmit(1);
  EXPECT_FALSE(c.admitted);
  EXPECT_EQ(c.retry_after_ms, 33);
  EXPECT_FALSE(c.reason.empty());
  controller.Release(40);
  // Byte watermark: depth is fine now, but 40 + 80 > 100.
  svc::AdmissionDecision d = controller.TryAdmit(80);
  EXPECT_FALSE(d.admitted);
  svc::AdmissionDecision e = controller.TryAdmit(50);
  EXPECT_TRUE(e.admitted);
  EXPECT_EQ(controller.shed(), 2);
  EXPECT_EQ(controller.admitted_total(), 3);
  EXPECT_EQ(controller.inflight(), 2);
}

// --- Service semantics -------------------------------------------------

TEST(SvcServiceTest, IngestQueryRetractLifecycle) {
  const std::string wal = TempPath("svc_service_lifecycle");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  config.checkpoint_path = TempPath("svc_service_ckpt");
  config.health_report_path = TempPath("svc_service_health");
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const std::string batch1 = MakeBatch(101, 4);
  const std::string batch2 = MakeBatch(202, 3);
  Response r1 = (*service)->Handle(MakeRequest("INGEST", {}, batch1));
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_NE(r1.payload.find("id=1"), std::string::npos);
  Response r2 = (*service)->Handle(MakeRequest("INGEST", {}, batch2));
  ASSERT_TRUE(r2.status.ok());
  EXPECT_NE(r2.payload.find("id=2"), std::string::npos);

  // QUERY answers exactly the batch pipeline over both batches.
  EXPECT_EQ(QueryFrequent(**service),
            BatchPipelineCsv({batch1, batch2}, config.mining, 1));

  // Retraction: unknown id is NotFound; a live id subtracts its
  // contribution exactly — back to the batch-1-only answer.
  Response missing = (*service)->Handle(MakeRequest("RETRACT", {"99"}));
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
  Response retract = (*service)->Handle(MakeRequest("RETRACT", {"2"}));
  ASSERT_TRUE(retract.status.ok()) << retract.status.ToString();
  EXPECT_EQ(QueryFrequent(**service),
            BatchPipelineCsv({batch1}, config.mining, 1));
  // Retracting it again is NotFound, not a double subtraction.
  EXPECT_EQ((*service)->Handle(MakeRequest("RETRACT", {"2"})).status.code(),
            StatusCode::kNotFound);

  // HEALTH reflects the live state and never fails.
  Response health = (*service)->Handle(MakeRequest("HEALTH"));
  ASSERT_TRUE(health.status.ok());
  EXPECT_NE(health.payload.find("\"live_batches\":1"), std::string::npos);
  EXPECT_NE(health.payload.find("\"draining\":false"), std::string::npos);

  // QUERY support: every returned row carries the queried labels.
  Response support = (*service)->Handle(
      MakeRequest("QUERY", {"support", "t1", "t2", "0"}));
  ASSERT_TRUE(support.status.ok());

  // DRAIN: mutations refuse, queries and health keep answering.
  Response drain = (*service)->Handle(MakeRequest("DRAIN"));
  ASSERT_TRUE(drain.status.ok());
  Response late = (*service)->Handle(MakeRequest("INGEST", {}, batch2));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(
      (*service)->Handle(MakeRequest("QUERY", {"frequent-pairs"})).status.ok());
  EXPECT_TRUE((*service)->Handle(MakeRequest("HEALTH")).status.ok());
  ASSERT_TRUE((*service)->FinishDrain().ok());
  EXPECT_TRUE(ReadFileToString(config.checkpoint_path).ok());
  Result<std::string> report = ReadFileToString(config.health_report_path);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"draining\":true"), std::string::npos);

  RemoveStore(wal);
  std::remove(config.checkpoint_path.c_str());
  std::remove(config.health_report_path.c_str());
}

TEST(SvcServiceTest, UnknownVerbAndOversizedBatchRejected) {
  const std::string wal = TempPath("svc_service_reject");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  config.max_batch_bytes = 16;
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->Handle(MakeRequest("BOGUS")).status.code(),
            StatusCode::kInvalidArgument);
  Response big = (*service)->Handle(
      MakeRequest("INGEST", {}, "((a,b),(c,d));((e,f),(g,h));"));
  EXPECT_EQ(big.status.code(), StatusCode::kInvalidArgument);
  // A rejected batch must not consume an id or touch state.
  Response ok = (*service)->Handle(MakeRequest("INGEST", {}, "(a,b);"));
  ASSERT_TRUE(ok.status.ok());
  EXPECT_NE(ok.payload.find("id=1"), std::string::npos);
  RemoveStore(wal);
}

TEST(SvcServiceTest, ByteWatermarkShedsWithRetryAfterWhileHealthAnswers) {
  const std::string wal = TempPath("svc_service_shed");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  config.admission.max_inflight_bytes = 8;  // any real batch sheds
  config.admission.retry_after_ms = 44;
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok());
  Response shed =
      (*service)->Handle(MakeRequest("INGEST", {}, "((a,b),(c,d));"));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.retry_after_ms, 44);
  // The overload contract: every rejection is accounted, and HEALTH
  // answers while the service refuses work.
  EXPECT_EQ((*service)->admission().shed(), 1);
  Response health = (*service)->Handle(MakeRequest("HEALTH"));
  ASSERT_TRUE(health.status.ok());
  EXPECT_NE(health.payload.find("\"shed\":1"), std::string::npos);
  RemoveStore(wal);
}

TEST(SvcServiceTest, PerRequestDeadlineTripsAsGovernance) {
  const std::string wal = TempPath("svc_service_deadline");
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok());
  // A zero-millisecond client deadline is already expired at the first
  // governance checkpoint: the ingest trips, nothing is applied.
  Response tripped = (*service)->Handle(
      MakeRequest("INGEST", {"deadline-ms=0"}, MakeBatch(7, 50)));
  EXPECT_TRUE(IsGovernanceTrip(tripped.status)) << tripped.status.ToString();
  Response ok = (*service)->Handle(MakeRequest("INGEST", {}, "(a,b);"));
  ASSERT_TRUE(ok.status.ok());
  EXPECT_NE(ok.payload.find("id=1"), std::string::npos)
      << "tripped ingest must not have consumed an id";
  RemoveStore(wal);
}

TEST(SvcServiceTest, MalformedNumericArgumentsAreInvalidArgument) {
  const std::string wal = TempPath("svc_service_malformed_args");
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(
      (*service)->Handle(MakeRequest("INGEST", {}, "(a,b);")).status.ok());
  // A batch id is a plain decimal: trailing bytes, letters, signs and
  // the empty string are malformed — never read as some other id.
  for (const char* id : {"1abc", "abc", "", "-1", "+1", " 1"}) {
    EXPECT_EQ((*service)->Handle(MakeRequest("RETRACT", {id})).status.code(),
              StatusCode::kInvalidArgument)
        << "RETRACT '" << id << "'";
  }
  for (const char* deadline :
       {"deadline-ms=x", "deadline-ms=", "deadline-ms=5ms", "deadline-ms=-1"}) {
    EXPECT_EQ((*service)
                  ->Handle(MakeRequest("INGEST", {deadline}, "(c,d);"))
                  .status.code(),
              StatusCode::kInvalidArgument)
        << deadline;
    EXPECT_EQ((*service)
                  ->Handle(MakeRequest("RETRACT", {"1", deadline}))
                  .status.code(),
              StatusCode::kInvalidArgument)
        << deadline;
  }
  // Nothing malformed was applied: batch 1 is still live and the next
  // ingest takes id 2.
  Response next = (*service)->Handle(MakeRequest("INGEST", {}, "(c,d);"));
  ASSERT_TRUE(next.status.ok());
  EXPECT_NE(next.payload.find("id=2"), std::string::npos);
  EXPECT_TRUE((*service)->Handle(MakeRequest("RETRACT", {"1"})).status.ok());
  RemoveStore(wal);
}

TEST(SvcServiceTest, SupportQueryMatchesEitherLabelOrder) {
  const std::string wal = TempPath("svc_service_support_order");
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)
                  ->Handle(MakeRequest("INGEST", {},
                                       "((a,b),(c,d));((a,b),(c,d));"))
                  .status.ok());
  Response stored = (*service)->Handle(
      MakeRequest("QUERY", {"support", "a", "b", "0"}));
  Response swapped = (*service)->Handle(
      MakeRequest("QUERY", {"support", "b", "a", "0"}));
  ASSERT_TRUE(stored.status.ok());
  ASSERT_TRUE(swapped.status.ok());
  // Header plus the one (a, b, 0) row, whichever order was asked.
  const std::vector<std::string_view> lines = Split(stored.payload, '\n');
  ASSERT_EQ(lines.size(), 3u) << stored.payload;
  EXPECT_TRUE(StartsWith(lines[1], "a,b,0,")) << stored.payload;
  EXPECT_EQ(swapped.payload, stored.payload);
  RemoveStore(wal);
}

// --- Crash contract ----------------------------------------------------

TEST(SvcServiceTest, AbandonedServiceReplaysByteIdentical) {
  for (const MinerVariant variant :
       {MinerVariant::kCousin, MinerVariant::kFreeTree}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE("variant=" + std::to_string(static_cast<int>(variant)) +
                   " threads=" + std::to_string(threads));
      const std::string wal = TempPath("svc_replay_equiv");
      RemoveStore(wal);
      ServiceConfig config = BaseConfig(wal);
      config.mining.variant = variant;
      const std::vector<std::string> batches = {
          MakeBatch(11, 5), MakeBatch(22, 4), MakeBatch(33, 6)};

      std::string live_csv;
      {
        Result<std::unique_ptr<CousinService>> service =
            CousinService::Start(config);
        ASSERT_TRUE(service.ok()) << service.status().ToString();
        for (const std::string& batch : batches) {
          ASSERT_TRUE(
              (*service)->Handle(MakeRequest("INGEST", {}, batch)).status.ok());
        }
        live_csv = QueryFrequent(**service);
        // The service is destroyed here without DRAIN — the kill -9
        // stand-in. The WAL is the only thing that survives.
      }

      Result<std::unique_ptr<CousinService>> revived =
          CousinService::Start(config);
      ASSERT_TRUE(revived.ok()) << revived.status().ToString();
      EXPECT_EQ((*revived)->replayed_batches(), 3);
      const std::string recovered_csv = QueryFrequent(**revived);
      EXPECT_EQ(recovered_csv, live_csv);
      // The byte-identity contract: recovery == a batch-CLI-shaped run
      // over the acknowledged batches, at every thread count.
      EXPECT_EQ(recovered_csv,
                BatchPipelineCsv(batches, config.mining, threads));
      RemoveStore(wal);
    }
  }
}

TEST(SvcServiceTest, ReplayHonorsRetractionsAndContinuesIds) {
  const std::string wal = TempPath("svc_replay_retract");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  const std::string batch1 = MakeBatch(44, 4);
  const std::string batch2 = MakeBatch(55, 4);
  std::string live_csv;
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch1)).status.ok());
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch2)).status.ok());
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("RETRACT", {"1"})).status.ok());
    live_csv = QueryFrequent(**service);
  }
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  // Replay reproduces the pre-crash answer byte for byte. (It is NOT
  // compared against a from-scratch run over batch 2 alone: a
  // retracted batch's labels stay interned, so label ids — and with
  // them row order — legitimately differ from a run that never saw
  // batch 1. The counted subtraction is exact; the rendering order is
  // an interning artifact.)
  EXPECT_EQ(QueryFrequent(**revived), live_csv);
  // New ingests continue past every id the WAL ever issued.
  Response next = (*revived)->Handle(MakeRequest("INGEST", {}, batch1));
  ASSERT_TRUE(next.status.ok());
  EXPECT_NE(next.payload.find("id=3"), std::string::npos);
  RemoveStore(wal);
}

TEST(SvcServiceTest, TornFinalRecordReplaysAsUnacknowledged) {
  const std::string wal = TempPath("svc_replay_torn");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  const std::string batch1 = MakeBatch(66, 4);
  const std::string batch2 = MakeBatch(77, 4);
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch1)).status.ok());
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch2)).status.ok());
  }
  // Tear the final record at several seeded offsets: every prefix
  // strictly inside batch 2's line must recover to batch 1 alone. In
  // the v2 layout the damage lands in the active segment file.
  const std::string segment = ActiveSegmentPath(wal);
  Result<std::string> text = ReadFileToString(segment);
  ASSERT_TRUE(text.ok());
  const size_t batch2_start = text->find("BATCH 2");
  ASSERT_NE(batch2_start, std::string::npos);
  for (const size_t cut :
       {text->size() - 1, batch2_start + 9, batch2_start}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ASSERT_TRUE(WriteFileAtomic(segment, text->substr(0, cut)).ok());
    Result<std::unique_ptr<CousinService>> revived =
        CousinService::Start(config);
    ASSERT_TRUE(revived.ok()) << revived.status().ToString();
    EXPECT_EQ((*revived)->replayed_batches(), 1);
    EXPECT_EQ(QueryFrequent(**revived),
              BatchPipelineCsv({batch1}, config.mining, 1));
    // The torn tail was trimmed on Start: a fresh ingest must append
    // cleanly and survive the next replay.
    Response next = (*revived)->Handle(MakeRequest("INGEST", {}, batch2));
    ASSERT_TRUE(next.status.ok()) << next.status.ToString();
    EXPECT_NE(next.payload.find("id=2"), std::string::npos);
    revived->reset();
    Result<std::unique_ptr<CousinService>> again =
        CousinService::Start(config);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(QueryFrequent(**again),
              BatchPipelineCsv({batch1, batch2}, config.mining, 1));
  }
  RemoveStore(wal);
}

TEST(SvcServiceTest, MidFileCorruptionRefusesToStart) {
  const std::string wal = TempPath("svc_replay_corrupt");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)
                    ->Handle(MakeRequest("INGEST", {}, MakeBatch(88, 3)))
                    .status.ok());
    ASSERT_TRUE((*service)
                    ->Handle(MakeRequest("INGEST", {}, MakeBatch(99, 3)))
                    .status.ok());
  }
  const std::string segment = ActiveSegmentPath(wal);
  Result<std::string> text = ReadFileToString(segment);
  ASSERT_TRUE(text.ok());
  std::string corrupted = *text;
  corrupted[text->find("BATCH 1") + 10] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(segment, corrupted).ok());
  Result<std::unique_ptr<CousinService>> refused =
      CousinService::Start(config);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);
  RemoveStore(wal);
}

TEST(SvcServiceTest, OptionsMismatchRefusesToStart) {
  const std::string wal = TempPath("svc_replay_options");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)
                    ->Handle(MakeRequest("INGEST", {}, MakeBatch(12, 3)))
                    .status.ok());
  }
  ServiceConfig changed = config;
  changed.mining.min_support = 5;
  Result<std::unique_ptr<CousinService>> refused =
      CousinService::Start(changed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // The original options still open it fine.
  Result<std::unique_ptr<CousinService>> ok = CousinService::Start(config);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  RemoveStore(wal);
}

// --- Storage engine ----------------------------------------------------

TEST(SvcStorageTest, HealthReportsStorageSchema) {
  const std::string wal = TempPath("svc_storage_health");
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(
      (*service)->Handle(MakeRequest("INGEST", {}, MakeBatch(5, 3))).status.ok());
  Response health = (*service)->Handle(MakeRequest("HEALTH"));
  ASSERT_TRUE(health.status.ok());
  // The storage section's schema is a pinned operator contract: every
  // key below is consumed by tools/daemon_drill.sh and dashboards.
  for (const char* key :
       {"\"storage\":{\"segments\":1", "\"wal_bytes\":", "\"sealed_bytes\":0",
        "\"last_compaction\":0", "\"replayed_records\":0", "\"recovery_ms\":",
        "\"read_only\":false", "\"reason\":\"\""}) {
    EXPECT_NE(health.payload.find(key), std::string::npos)
        << "missing " << key << " in " << health.payload;
  }
  RemoveStore(wal);
}

TEST(SvcStorageTest, CompactionBoundsReplayToTheTail) {
  const std::string wal = TempPath("svc_storage_compact");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  const std::vector<std::string> batches = {
      MakeBatch(301, 4), MakeBatch(302, 4), MakeBatch(303, 4),
      MakeBatch(304, 3), MakeBatch(305, 3), MakeBatch(306, 3)};
  std::string live_csv;
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*service)
                      ->Handle(MakeRequest("INGEST", {}, batches[i]))
                      .status.ok());
    }
    Response compacted = (*service)->Handle(MakeRequest("COMPACT"));
    ASSERT_TRUE(compacted.status.ok()) << compacted.status.ToString();
    EXPECT_NE(compacted.payload.find("compaction=1"), std::string::npos);
    for (int i = 4; i < 6; ++i) {
      ASSERT_TRUE((*service)
                      ->Handle(MakeRequest("INGEST", {}, batches[i]))
                      .status.ok());
    }
    live_csv = QueryFrequent(**service);
    // Abandoned without DRAIN: the kill -9 stand-in.
  }
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  // All six batches are live, but only the two post-compaction records
  // were replayed from segments — the snapshot anchored the rest.
  EXPECT_EQ((*revived)->replayed_batches(), 6);
  EXPECT_EQ((*revived)->replayed_records(), 2);
  EXPECT_EQ(QueryFrequent(**revived), live_csv);
  EXPECT_EQ(QueryFrequent(**revived),
            BatchPipelineCsv(batches, config.mining, 1));
  Response health = (*revived)->Handle(MakeRequest("HEALTH"));
  ASSERT_TRUE(health.status.ok());
  EXPECT_NE(health.payload.find("\"last_compaction\":1"), std::string::npos);
  EXPECT_NE(health.payload.find("\"replayed_records\":2"), std::string::npos);
  // Ids continue past everything the store ever issued.
  Response next =
      (*revived)->Handle(MakeRequest("INGEST", {}, MakeBatch(307, 2)));
  ASSERT_TRUE(next.status.ok());
  EXPECT_NE(next.payload.find("id=7"), std::string::npos);
  RemoveStore(wal);
}

TEST(SvcStorageTest, RotationAndAutoCompactionPreserveAnswers) {
  const std::string wal = TempPath("svc_storage_rotate");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  config.wal_segment_bytes = 256;  // every batch rotates
  config.wal_compact_bytes = 1;    // every sealed byte auto-compacts
  const std::vector<std::string> batches = {
      MakeBatch(401, 3), MakeBatch(402, 3), MakeBatch(403, 3)};
  std::string live_csv;
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (const std::string& batch : batches) {
      ASSERT_TRUE(
          (*service)->Handle(MakeRequest("INGEST", {}, batch)).status.ok());
    }
    live_csv = QueryFrequent(**service);
  }
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->replayed_batches(), 3);
  EXPECT_EQ(QueryFrequent(**revived), live_csv);
  EXPECT_EQ(QueryFrequent(**revived),
            BatchPipelineCsv(batches, config.mining, 1));
  RemoveStore(wal);
}

TEST(SvcStorageTest, RetentionHorizonBlocksOldRetractsButKeepsTallies) {
  const std::string wal = TempPath("svc_storage_retention");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  config.retain_batches = 1;
  const std::string batch1 = MakeBatch(501, 4);
  const std::string batch2 = MakeBatch(502, 4);
  std::string live_csv;
  {
    Result<std::unique_ptr<CousinService>> service =
        CousinService::Start(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch1)).status.ok());
    ASSERT_TRUE(
        (*service)->Handle(MakeRequest("INGEST", {}, batch2)).status.ok());
    ASSERT_TRUE((*service)->Handle(MakeRequest("COMPACT")).status.ok());
    // Batch 1 fell past the horizon: still tallied, no longer
    // retractable. Batch 2 (most recent) keeps its payload.
    Response blocked = (*service)->Handle(MakeRequest("RETRACT", {"1"}));
    EXPECT_EQ(blocked.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(blocked.status.message().find("retention"), std::string::npos)
        << blocked.status.ToString();
    Response allowed = (*service)->Handle(MakeRequest("RETRACT", {"2"}));
    ASSERT_TRUE(allowed.status.ok()) << allowed.status.ToString();
    EXPECT_EQ(QueryFrequent(**service),
              BatchPipelineCsv({batch1}, config.mining, 1));
    live_csv = QueryFrequent(**service);
  }
  // The tail RETRACT replays against the snapshot-restored state.
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(QueryFrequent(**revived), live_csv);
  RemoveStore(wal);
}

TEST(SvcStorageTest, MigratesV1SingleFileWalInPlace) {
  const std::string wal = TempPath("svc_storage_migrate");
  RemoveStore(wal);
  ServiceConfig config = BaseConfig(wal);
  const std::string batch1 = MakeBatch(601, 4);
  const std::string batch2 = MakeBatch(602, 4);
  // A PR-8-era daemon left a single-file v1 journal behind.
  {
    Result<SvcWal> v1 = SvcWal::Open(wal);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ASSERT_TRUE(
        v1->AppendHeader(svc::MiningOptionsFingerprint(config.mining)).ok());
    ASSERT_TRUE(v1->AppendBatch(1, batch1).ok());
    ASSERT_TRUE(v1->AppendBatch(2, batch2).ok());
  }
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->replayed_batches(), 2);
  // The file is now a v2 directory with a manifest.
  EXPECT_TRUE(std::filesystem::is_directory(wal));
  EXPECT_TRUE(std::filesystem::exists(wal + "/MANIFEST"));
  EXPECT_EQ(QueryFrequent(**service),
            BatchPipelineCsv({batch1, batch2}, config.mining, 1));
  // Ids continue past the v1 journal's; a restart replays from the
  // migration snapshot (zero tail records).
  Response next = (*service)->Handle(MakeRequest("INGEST", {}, MakeBatch(603, 2)));
  ASSERT_TRUE(next.status.ok());
  EXPECT_NE(next.payload.find("id=3"), std::string::npos);
  const std::string live_csv = QueryFrequent(**service);
  service->reset();
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ((*revived)->replayed_batches(), 3);
  EXPECT_EQ((*revived)->replayed_records(), 1);  // only the post-migration ingest
  EXPECT_EQ(QueryFrequent(**revived), live_csv);
  RemoveStore(wal);
}

TEST(SvcStorageTest, CompactRunsWhileDraining) {
  // COMPACT is the storage-recovery verb: it must stay reachable while
  // the daemon drains (and under overload — it bypasses admission).
  const std::string wal = TempPath("svc_storage_drain_compact");
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)
                  ->Handle(MakeRequest("INGEST", {}, MakeBatch(701, 3)))
                  .status.ok());
  ASSERT_TRUE((*service)->Handle(MakeRequest("DRAIN")).status.ok());
  Response compacted = (*service)->Handle(MakeRequest("COMPACT"));
  ASSERT_TRUE(compacted.status.ok()) << compacted.status.ToString();
  // Draining still refuses mutations after the compaction.
  EXPECT_EQ((*service)
                ->Handle(MakeRequest("INGEST", {}, MakeBatch(702, 2)))
                .status.code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE((*service)->FinishDrain().ok());
  RemoveStore(wal);
}

// --- Fault sites -------------------------------------------------------

TEST(SvcFaultTest, WalAppendFaultLeavesStateUntouched) {
  const std::string wal = TempPath("svc_fault_wal_append");
  RemoveStore(wal);
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok());
  const std::string batch = MakeBatch(13, 3);

  registry.Arm("svc.wal.append", 1);
  Response failed = (*service)->Handle(MakeRequest("INGEST", {}, batch));
  registry.DisarmAll();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  // Nothing was applied: the retry lands on the same id and yields the
  // same final state as a never-faulted run.
  Response retried = (*service)->Handle(MakeRequest("INGEST", {}, batch));
  ASSERT_TRUE(retried.status.ok()) << retried.status.ToString();
  EXPECT_NE(retried.payload.find("id=1"), std::string::npos);
  service->reset();
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->replayed_batches(), 1);
  RemoveStore(wal);
}

TEST(SvcFaultTest, SwapFaultLosesAckButNotDurability) {
  const std::string wal = TempPath("svc_fault_swap");
  RemoveStore(wal);
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  ServiceConfig config = BaseConfig(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(config);
  ASSERT_TRUE(service.ok());
  const std::string batch = MakeBatch(14, 3);

  registry.Arm("svc.swap", 1);
  Response failed = (*service)->Handle(MakeRequest("INGEST", {}, batch));
  registry.DisarmAll();
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  // The classic WAL ambiguity window: the ack was lost but the batch
  // is durable — a restart replays it.
  service->reset();
  Result<std::unique_ptr<CousinService>> revived =
      CousinService::Start(config);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->replayed_batches(), 1);
  EXPECT_EQ(QueryFrequent(**revived),
            BatchPipelineCsv({batch}, config.mining, 1));
  RemoveStore(wal);
}

// --- Serving over a byte stream ----------------------------------------

TEST(SvcServeTest, ServeConnectionOverPipes) {
  const std::string wal = TempPath("svc_serve_pipes");
  RemoveStore(wal);
  Result<std::unique_ptr<CousinService>> service =
      CousinService::Start(BaseConfig(wal));
  ASSERT_TRUE(service.ok());

  int to_server[2];
  int to_client[2];
  ASSERT_EQ(pipe(to_server), 0);
  ASSERT_EQ(pipe(to_client), 0);
  std::thread server([&] {
    svc::ServeConnection(to_server[0], to_client[1], **service, nullptr);
    close(to_server[0]);
    close(to_client[1]);
  });

  auto roundtrip = [&](const std::string& body) {
    EXPECT_TRUE(svc::WriteFrame(to_server[1], body).ok());
    std::string response_body;
    Result<bool> got = svc::ReadFrame(to_client[0], &response_body);
    EXPECT_TRUE(got.ok() && *got);
    Result<ParsedResponse> parsed = svc::ParseResponse(response_body);
    EXPECT_TRUE(parsed.ok());
    return *parsed;
  };

  ParsedResponse ingest = roundtrip("INGEST\n" + MakeBatch(15, 3));
  EXPECT_TRUE(ingest.ok) << ingest.message;
  ParsedResponse query = roundtrip("QUERY frequent-pairs\n");
  EXPECT_TRUE(query.ok);
  EXPECT_NE(query.payload.find("label1"), std::string::npos);
  // A garbage verb comes back as a clean ERR on the same connection.
  ParsedResponse bogus = roundtrip("NONSENSE\n");
  EXPECT_FALSE(bogus.ok);
  EXPECT_EQ(bogus.code_name, "InvalidArgument");
  close(to_server[1]);  // client hangs up; server loop exits on EOF
  server.join();
  close(to_client[0]);
  RemoveStore(wal);
}

}  // namespace
}  // namespace cousins
