// Full-enumeration fault sweep over the checkpointed mining pipeline:
// parse a Newick forest, mine it with the checkpointed parallel driver,
// render CSV. A disarmed discovery run registers every fault site on
// the pipeline's path; the sweep then fires each site in turn (k-th hit
// for k in {1, 2}) and asserts the three-way contract:
//
//   * the process never crashes, aborts or corrupts state — every
//     injected fault surfaces as a clean outcome (complete run,
//     governance trip, or hard error Status);
//   * a complete run under arming is bit-identical to the baseline
//     (a fault whose k-th hit never arrives must perturb nothing);
//   * after the fault, a disarmed resume from whatever checkpoint
//     survived reproduces the baseline output exactly.
//
// Under the default build this sweeps the always-compiled cold sites
// (worker bodies, checkpoint I/O); under -DCOUSINS_FAULTS=ON the
// hot-path sites (paircount.grow, multiminer.fold/merge, newick.alloc)
// join the enumeration automatically via site self-registration.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/checkpoint.h"
#include "core/item_io.h"
#include "core/parallel_mining.h"
#include "gen/yule_generator.h"
#include "svc/daemon.h"
#include "svc/protocol.h"
#include "tree/newick.h"
#include "util/fault_injection.h"
#include "util/governance.h"
#include "util/rng.h"

namespace cousins {
namespace {

using fault::FaultRegistry;

/// The pipeline's source input: a ';'-separated Newick forest, so every
/// run exercises parsing (and its fault sites) from scratch.
std::string ForestText() {
  auto labels = std::make_shared<LabelTable>();
  Rng rng(4242);
  YulePhylogenyOptions gen;
  gen.min_nodes = 10;
  gen.max_nodes = 25;
  gen.alphabet_size = 40;
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += ToNewick(GenerateYulePhylogeny(gen, rng, labels));
    text += ";\n";
  }
  return text;
}

struct PipelineOutcome {
  Status status;
  bool truncated = false;
  std::string csv;
};

/// Parse -> checkpointed mine (3 workers, checkpoint every 16 trees) ->
/// CSV. Any injected fault must surface through `status`/`truncated`,
/// never as a crash.
PipelineOutcome RunPipeline(const std::string& text,
                            const std::string& checkpoint_path,
                            bool resume) {
  PipelineOutcome outcome;
  auto labels = std::make_shared<LabelTable>();
  Result<std::vector<Tree>> forest = ParseNewickForest(text, labels);
  if (!forest.ok()) {
    outcome.status = forest.status();
    return outcome;
  }
  MultiTreeMiningOptions options;
  options.min_support = 2;
  MiningCheckpointConfig config;
  config.path = checkpoint_path;
  config.every_trees = 16;
  config.resume = resume;
  Result<MultiTreeMiningRun> run = MineMultipleTreesCheckpointed(
      *forest, options, MiningContext::Unlimited(), config, 3);
  if (!run.ok()) {
    outcome.status = run.status();
    return outcome;
  }
  outcome.truncated = run->truncated;
  if (run->truncated) outcome.status = run->termination;
  outcome.csv = FrequentPairsToCsv(*labels, run->pairs);
  return outcome;
}

TEST(FaultSweepTest, EveryRegisteredSiteFailsCleanAndResumesToBaseline) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string text = ForestText();
  const std::string path = ::testing::TempDir() + "cousins_sweep_ckpt";

  // Discovery: one disarmed run registers every site on the pipeline's
  // path and pins the baseline output.
  std::remove(path.c_str());
  const PipelineOutcome baseline = RunPipeline(text, path, false);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  ASSERT_FALSE(baseline.truncated);
  ASSERT_FALSE(baseline.csv.empty());

  const std::vector<std::string> sites = registry.SiteNames();
  // The always-compiled cold sites must be in the enumeration in every
  // build; a rename here that breaks discovery fails loudly.
  for (const char* expected :
       {"parallel.worker", "checkpoint.open", "checkpoint.write",
        "checkpoint.flush", "checkpoint.rename"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "site " << expected << " was not discovered";
  }
#if COUSINS_FAULTS_ENABLED
  for (const char* expected : {"paircount.grow", "multiminer.fold",
                               "multiminer.merge", "newick.alloc"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "hot-path site " << expected << " was not discovered";
  }
#endif

  for (const std::string& site : sites) {
    for (uint64_t k : {uint64_t{1}, uint64_t{2}}) {
      SCOPED_TRACE(site + " k=" + std::to_string(k));
      std::remove(path.c_str());
      registry.DisarmAll();
      registry.Arm(site, k);
      const PipelineOutcome faulted = RunPipeline(text, path, false);
      registry.DisarmAll();

      if (faulted.status.ok() && !faulted.truncated) {
        // The armed hit never arrived (or the site tolerates it): the
        // output must be untouched.
        EXPECT_EQ(faulted.csv, baseline.csv);
      } else if (faulted.truncated) {
        EXPECT_TRUE(IsGovernanceTrip(faulted.status))
            << faulted.status.ToString();
      } else {
        // Hard failure: contained into a diagnosed error — Internal
        // for worker faults, Unavailable for transient I/O sites.
        EXPECT_TRUE(faulted.status.code() == StatusCode::kInternal ||
                    faulted.status.code() == StatusCode::kUnavailable)
            << faulted.status.ToString();
        EXPECT_FALSE(faulted.status.message().empty());
      }

      // Crash-recovery drill: resume disarmed from whatever checkpoint
      // survived the fault (possibly none) and land on the baseline.
      const PipelineOutcome recovered = RunPipeline(text, path, true);
      ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
      EXPECT_FALSE(recovered.truncated);
      EXPECT_EQ(recovered.csv, baseline.csv);
    }
  }

  // checkpoint.read only sits on the resume path, so it joins the
  // registry during the recovery drills above; sweep it explicitly.
  ASSERT_TRUE(
      WriteFileAtomic(path, "placeholder — resume reads then fails").ok());
  registry.Arm("checkpoint.read", 1);
  const PipelineOutcome unreadable = RunPipeline(text, path, true);
  registry.DisarmAll();
  ASSERT_FALSE(unreadable.status.ok());
  EXPECT_EQ(unreadable.status.code(), StatusCode::kUnavailable);
  std::remove(path.c_str());
  const PipelineOutcome fresh = RunPipeline(text, path, true);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_EQ(fresh.csv, baseline.csv);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// Daemon sweep: the same full-enumeration discipline over the resident
// service's sites (svc.accept, svc.read, svc.write, svc.wal.append,
// svc.swap), exercised through a real Unix-socket serve loop. The
// contract per armed site: the daemon never crashes, a dropped or
// refused request surfaces as a failed client call (EOF or a clean ERR
// frame), HEALTH stays answerable, and a disarmed restart over the WAL
// recovers to a batch set S with acked ⊆ S ⊆ attempted — an
// acknowledged batch is always durable; an unacknowledged one may be
// (the WAL ambiguity window), but nothing else ever appears.

/// The client's frame codec: svc/protocol.h's wire format (uint32 LE
/// body length | uint32 LE crc32(body) | body) without its svc.read /
/// svc.write fault sites, so every armed hit on those sites is the
/// daemon's.
Status SendFrame(int fd, std::string_view body) {
  std::string frame;
  for (const uint32_t word :
       {static_cast<uint32_t>(body.size()),
        internal::Crc32(body.data(), body.size())}) {
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((word >> (8 * i)) & 0xFFu));
    }
  }
  frame.append(body);
  for (size_t sent = 0; sent < frame.size();) {
    const ssize_t n = write(fd, frame.data() + sent, frame.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("connection dropped");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes; false on EOF or a stream error.
bool RecvAll(int fd, char* data, size_t size) {
  for (size_t got = 0; got < size;) {
    const ssize_t n = read(fd, data + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

Result<std::string> RecvFrame(int fd) {
  unsigned char header[8];
  if (!RecvAll(fd, reinterpret_cast<char*>(header), sizeof(header))) {
    return Status::Unavailable("connection dropped");
  }
  uint32_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 4; ++i) {
      words[w] |= static_cast<uint32_t>(header[4 * w + i]) << (8 * i);
    }
  }
  if (words[0] > svc::kMaxFrameBytes) {
    return Status::Corruption("frame length exceeds kMaxFrameBytes");
  }
  std::string body(words[0], '\0');
  if (!RecvAll(fd, body.data(), body.size())) {
    return Status::Unavailable("connection dropped mid-frame");
  }
  if (internal::Crc32(body.data(), body.size()) != words[1]) {
    return Status::Corruption("frame CRC mismatch");
  }
  return body;
}

/// One client request against the serving daemon. Any transport
/// failure (connection refused/dropped by an injected fault) comes
/// back as an error Status, never a crash.
Result<svc::ParsedResponse> SvcCall(const std::string& socket_path,
                                    const std::string& body) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed");
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // The serve thread binds asynchronously; retry briefly.
  bool connected = false;
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      connected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!connected) {
    close(fd);
    return Status::Unavailable("cannot connect");
  }
  Status sent = SendFrame(fd, body);
  Result<std::string> response_body =
      sent.ok() ? RecvFrame(fd) : Result<std::string>(sent);
  close(fd);
  if (!response_body.ok()) return response_body.status();
  return svc::ParseResponse(*response_body);
}

struct SvcSweepOutcome {
  Status start;              // service construction/replay outcome
  std::vector<bool> acked;   // per attempted batch: OK ack received
  bool health_answered = false;
};

/// Starts the daemon on `wal`, serves it on `socket_path`, pushes
/// `batches` through real client connections, checks HEALTH liveness
/// (with one retry — an armed stream fault may eat one connection),
/// then abandons the service without a drain (kill -9 stand-in).
SvcSweepOutcome RunSvcPipeline(const std::string& wal,
                               const std::string& socket_path,
                               const std::vector<std::string>& batches) {
  SvcSweepOutcome outcome;
  svc::ServiceConfig config;
  config.mining.min_support = 2;
  config.wal_path = wal;
  Result<std::unique_ptr<svc::CousinService>> service =
      svc::CousinService::Start(config);
  outcome.start = service.status();
  if (!service.ok()) return outcome;

  std::atomic<bool> stop{false};
  std::thread server([&] {
    Status served = svc::RunUnixServer(socket_path, **service, &stop);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });
  for (const std::string& batch : batches) {
    Result<svc::ParsedResponse> response =
        SvcCall(socket_path, "INGEST\n" + batch);
    outcome.acked.push_back(response.ok() && response->ok);
  }
  for (int attempt = 0; attempt < 2 && !outcome.health_answered; ++attempt) {
    Result<svc::ParsedResponse> health = SvcCall(socket_path, "HEALTH\n");
    outcome.health_answered = health.ok() && health->ok;
  }
  stop.store(true, std::memory_order_relaxed);
  server.join();
  return outcome;
}

/// The oracle for a candidate surviving batch set: a fresh daemon fed
/// exactly those batches, queried in-process. Daemon-vs-daemon, so the
/// label-interning order matches what WAL replay produces.
std::string SvcOracleCsv(const std::vector<std::string>& batches) {
  const std::string wal = ::testing::TempDir() + "svc_sweep_oracle_wal";
  std::filesystem::remove_all(wal);
  svc::ServiceConfig config;
  config.mining.min_support = 2;
  config.wal_path = wal;
  Result<std::unique_ptr<svc::CousinService>> service =
      svc::CousinService::Start(config);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  for (const std::string& batch : batches) {
    svc::Request ingest;
    ingest.verb = "INGEST";
    ingest.payload = batch;
    EXPECT_TRUE((*service)->Handle(ingest).status.ok());
  }
  svc::Request query;
  query.verb = "QUERY";
  query.args = {"frequent-pairs"};
  const svc::Response response = (*service)->Handle(query);
  EXPECT_TRUE(response.status.ok());
  service->reset();
  std::filesystem::remove_all(wal);
  return response.payload;
}

TEST(FaultSweepTest, SvcSitesFailCleanAndRecoverToAckedState) {
  // An injected stream fault can close the server side mid-request;
  // the resulting client write must surface as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  const std::string wal = ::testing::TempDir() + "svc_sweep_wal";
  const std::string socket_path = ::testing::TempDir() + "svc_sweep.sock";
  auto labels = std::make_shared<LabelTable>();
  Rng rng(99);
  YulePhylogenyOptions gen;
  gen.min_nodes = 8;
  gen.max_nodes = 14;
  gen.alphabet_size = 25;
  std::vector<std::string> batches(2);
  for (std::string& batch : batches) {
    for (int i = 0; i < 4; ++i) {
      batch += ToNewick(GenerateYulePhylogeny(gen, rng, labels)) + ";\n";
    }
  }

  // Discovery: a disarmed run over the real socket registers every
  // site on the daemon's path — including the errno-typed fs_ops
  // sub-sites of every storage operation the segmented store touches.
  std::filesystem::remove_all(wal);
  const SvcSweepOutcome baseline =
      RunSvcPipeline(wal, socket_path, batches);
  ASSERT_TRUE(baseline.start.ok()) << baseline.start.ToString();
  for (const bool acked : baseline.acked) ASSERT_TRUE(acked);
  ASSERT_TRUE(baseline.health_answered);
  // A second disarmed run over the surviving store walks the recovery
  // path too (manifest + segment reads), so its sites join the sweep.
  const SvcSweepOutcome rerun = RunSvcPipeline(wal, socket_path, batches);
  ASSERT_TRUE(rerun.start.ok()) << rerun.start.ToString();

  const std::vector<std::string> sites = registry.SiteNames();
  std::vector<std::string> svc_sites;
  for (const std::string& site : sites) {
    if (site.rfind("svc.", 0) == 0) svc_sites.push_back(site);
  }
  for (const char* expected :
       {"svc.accept", "svc.read", "svc.write", "svc.swap", "svc.wal.open",
        "svc.wal.dirsync", "svc.wal.append", "svc.wal.append.enospc",
        "svc.wal.append.eio", "svc.wal.append.short", "svc.wal.append.torn",
        "svc.wal.fsync", "svc.wal.fsync.eio", "svc.manifest.write",
        "svc.manifest.flush", "svc.manifest.rename", "svc.manifest.read"}) {
    EXPECT_NE(std::find(svc_sites.begin(), svc_sites.end(), expected),
              svc_sites.end())
        << "site " << expected << " was not discovered";
  }

  // The admissible-subset oracle answers are fault-independent:
  // compute each candidate once up front instead of per armed site.
  std::vector<std::string> candidates(1u << batches.size());
  for (uint32_t mask = 0; mask < candidates.size(); ++mask) {
    std::vector<std::string> subset;
    for (size_t i = 0; i < batches.size(); ++i) {
      if ((mask >> i) & 1) subset.push_back(batches[i]);
    }
    candidates[mask] = SvcOracleCsv(subset);
  }

  for (const std::string& site : svc_sites) {
    for (uint64_t k : {uint64_t{1}, uint64_t{2}}) {
      SCOPED_TRACE(site + " k=" + std::to_string(k));
      std::filesystem::remove_all(wal);
      registry.DisarmAll();
      const uint64_t triggers_before = registry.Triggers(site);
      registry.Arm(site, k);
      const SvcSweepOutcome faulted =
          RunSvcPipeline(wal, socket_path, batches);
      registry.DisarmAll();

      std::vector<bool> acked = faulted.acked;
      acked.resize(batches.size(), false);
      const bool stream_site = site == "svc.read" || site == "svc.write";
      if (stream_site) {
        // Arm restarts the site's hit count, and the client frames with
        // its own codec: every hit since is the daemon's, so the armed
        // one fired inside the daemon.
        EXPECT_GE(registry.Hits(site), k);
        EXPECT_EQ(registry.Triggers(site), triggers_before + 1);
      }
      // The daemon's first reply write fails after batch 1 is durable:
      // its ack is lost, the batch is not.
      const bool lost_first_ack = site == "svc.write" && k == 1;
      if (lost_first_ack) {
        EXPECT_FALSE(acked[0]);
      }
      if (faulted.start.ok()) {
        // Liveness under faults: HEALTH answered within one retry even
        // though the armed site may have eaten a connection.
        EXPECT_TRUE(faulted.health_answered);
      } else {
        // The fault landed during Start (e.g. the header append): a
        // clean refusal, nothing served, nothing acked.
        EXPECT_EQ(faulted.start.code(), StatusCode::kUnavailable)
            << faulted.start.ToString();
      }

      // Recovery: a disarmed restart must succeed (the only crash
      // artifact these faults can leave is a torn, unacknowledged
      // tail) and land on a batch set between acked and attempted.
      svc::ServiceConfig config;
      config.mining.min_support = 2;
      config.wal_path = wal;
      Result<std::unique_ptr<svc::CousinService>> revived =
          svc::CousinService::Start(config);
      ASSERT_TRUE(revived.ok()) << revived.status().ToString();
      svc::Request query;
      query.verb = "QUERY";
      query.args = {"frequent-pairs"};
      const svc::Response recovered = (*revived)->Handle(query);
      ASSERT_TRUE(recovered.status.ok());
      revived->reset();

      bool matched = false;
      std::string expectations;
      // Candidate subsets: every S with acked ⊆ S ⊆ attempted, in
      // batch order (an unacked batch may have reached the WAL before
      // the fault ate its acknowledgement).
      const size_t n = batches.size();
      for (uint32_t mask = 0; mask < (1u << n) && !matched; ++mask) {
        bool admissible = true;
        for (size_t i = 0; i < n; ++i) {
          if (acked[i] && !((mask >> i) & 1)) admissible = false;
        }
        if (!admissible) continue;
        expectations += candidates[mask] + "---\n";
        matched = recovered.payload == candidates[mask];
      }
      EXPECT_TRUE(matched)
          << "recovered state matches no admissible batch set.\ngot:\n"
          << recovered.payload << "candidates:\n"
          << expectations;
      if (lost_first_ack) {
        EXPECT_EQ(recovered.payload, candidates.back());
      }
    }
  }
  std::filesystem::remove_all(wal);
}

}  // namespace
}  // namespace cousins
