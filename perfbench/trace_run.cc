// The traced run: times public calls into each layer from the
// benchmark's own code, one span per call, kept in memory and written
// out as Chrome trace-event JSON at the end. Nothing under src/ is
// instrumented. Prints the per-layer metrics plus the section totals
// run.py needs for coverage.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "core/item_io.h"
#include "core/kernel_dispatch.h"
#include "core/multi_tree_mining.h"
#include "core/parallel_mining.h"
#include "core/single_tree_mining.h"
#include "freetree/free_tree.h"
#include "freetree/free_tree_mining.h"
#include "phylo_run.h"
#include "proc/shard_plan.h"
#include "proc/supervisor.h"
#include "session.h"
#include "svc/daemon.h"
#include "svc/protocol.h"
#include "tree/newick.h"

namespace perfbench {
namespace {

using namespace cousins;

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

int64_t DirectoryBytes(const std::string& path) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

/// Parse, AddTree loop, FrequentPairs and render: the in-process shape
/// of `frequent` on one thread. Returns its wall seconds.
double SequentialPass(const std::string& text, MinerVariant variant,
                      Tracer* tracer, std::string* csv,
                      std::map<std::string, double>* sections) {
  const auto start = Clock::now();
  auto labels = std::make_shared<LabelTable>();
  auto mark = Clock::now();
  Result<std::vector<Tree>> trees = [&] {
    Scope span(tracer, "tree.parse");
    return ParseNewickForest(text, labels, ParseLimits::Unlimited());
  }();
  (*sections)["parse"] = SecondsSince(mark);
  MultiTreeMiningOptions options;
  options.variant = variant;
  MultiTreeMiner miner(options);
  mark = Clock::now();
  const std::string add = variant == MinerVariant::kFreeTree
                              ? "core.add_tree_free"
                              : "core.add_tree";
  for (const Tree& tree : *trees) {
    Scope span(tracer, add);
    miner.AddTree(tree);
  }
  (*sections)["add_tree"] = SecondsSince(mark);
  mark = Clock::now();
  std::vector<FrequentCousinPair> pairs;
  {
    Scope span(tracer, "core.finalize");
    pairs = miner.FrequentPairs();
  }
  (*sections)["finalize"] = SecondsSince(mark);
  mark = Clock::now();
  {
    Scope span(tracer, "core.render_frequent");
    *csv = FrequentPairsToCsv(*labels, pairs);
  }
  (*sections)["render"] = SecondsSince(mark);
  const auto stats = miner.accumulator_stats();
  (*sections)["tally_entries"] = static_cast<double>(stats.tally_entries);
  (*sections)["tally_grows"] = static_cast<double>(stats.tally_grows);
  (*sections)["trees"] = static_cast<double>(trees->size());
  return SecondsSince(start);
}

/// Median round trip of an INGEST-sized frame and a short reply over a
/// socketpair, with the library's own frame codec on both ends.
double FrameRoundTripUs(const std::string& body, int rounds) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  std::thread echo([fd = fds[1], rounds] {
    std::string in;
    for (int i = 0; i < rounds; ++i) {
      if (!svc::ReadFrame(fd, &in).ok() || !svc::WriteFrame(fd, "OK\n").ok()) {
        return;
      }
    }
  });
  std::vector<double> samples;
  std::string ack;
  for (int i = 0; i < rounds; ++i) {
    const auto start = Clock::now();
    if (!svc::WriteFrame(fds[0], body).ok() || !svc::ReadFrame(fds[0], &ack).ok()) {
      break;
    }
    samples.push_back(SecondsSince(start) * 1e6);
  }
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return Median(samples);
}

}  // namespace

int RunTrace(int argc, char** argv) {
  const std::string forest_path = Arg(argc, argv, "forest");
  const std::string work = Arg(argc, argv, "work");
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  std::string text;
  if (!ReadFile(forest_path, &text)) return 1;
  Tracer tracer;
  JsonObject json;
  std::vector<std::string> errors;

  // Multi-process mining first, while this process is still small:
  // its workers are forked from it.
  {
    Scope span(&tracer, "bench.proc");
    auto start = Clock::now();
    proc::ShardPlan plan;
    {
      Scope call(&tracer, "proc.plan");
      proc::ShardPlanOptions plan_options;
      plan_options.min_shards = 16;  // what --workers=4 asks for
      plan = proc::BuildShardPlan(text, plan_options);
    }
    json.Num("proc.plan_s", SecondsSince(start));
    proc::MultiProcessOptions mp;
    mp.workers = 4;
    mp.checkpoint_path = work + "/proc/ckpt";
    std::vector<double> run_s;
    for (int r = 0; r < 3; ++r) {
      std::filesystem::remove_all(work + "/proc");
      std::filesystem::create_directories(work + "/proc");
      QuarantineLedger ledger;
      start = Clock::now();
      Result<proc::MultiProcessRun> run = [&] {
        Scope call(&tracer, "proc.run");
        return proc::MineForestMultiProcess(forest_path, MultiTreeMiningOptions(), mp,
                                            &ledger);
      }();
      run_s.push_back(SecondsSince(start));
      if (!run.ok()) {
        errors.push_back("MineForestMultiProcess: " + run.status().ToString());
        break;
      }
      json.Num("proc.shards", static_cast<double>(run->shards_total));
      json.Num("proc.leases_reissued", static_cast<double>(run->leases_reissued));
      json.Num("proc.workers_died", static_cast<double>(run->workers_died));
    }
    json.Num("proc.run_s", Median(run_s));
    json.Num("section.procs.mine", Median(run_s));
  }

  // The one-thread passes run the tier the timed `frequent` legs use
  // (--simd=scalar where the vector tier is known to lose tallies).
  const bool scalar = Arg(argc, argv, "simd") == "scalar";
  if (scalar) SetSimdMode(SimdMode::kScalar);

  // Tracing overhead: after a warm-up pass, alternate untraced and
  // traced sequential passes and compare their medians. The layer
  // figures are medians over the traced passes.
  std::map<std::string, double> untraced_sections;
  std::map<std::string, double> pass_sections;
  std::map<std::string, std::vector<double>> section_samples;
  std::string csv;
  SequentialPass(text, MinerVariant::kCousin, nullptr, &csv, &untraced_sections);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (int pair = 0; pair < 3; ++pair) {
    untraced_s.push_back(
        SequentialPass(text, MinerVariant::kCousin, nullptr, &csv, &untraced_sections));
    Scope span(&tracer, "bench.sequential");
    traced_s.push_back(
        SequentialPass(text, MinerVariant::kCousin, &tracer, &csv, &pass_sections));
    for (const auto& [key, value] : pass_sections) section_samples[key].push_back(value);
  }
  std::map<std::string, double> sections;
  for (const auto& [key, values] : section_samples) sections[key] = Median(values);
  WriteFile(work + "/frequent.csv", csv);
  const double n = sections["trees"];
  json.Num("trace.overhead_pct",
           (Median(traced_s) / Median(untraced_s) - 1.0) * 100.0);
  json.Num("tree.parse_s", sections["parse"]);
  json.Num("tree.parse_mb_per_s", text.size() / 1e6 / sections["parse"]);
  json.Num("core.add_tree_us", sections["add_tree"] / n * 1e6);
  json.Num("core.tally_entries", sections["tally_entries"]);
  json.Num("core.tally_grows", sections["tally_grows"]);
  json.Num("core.finalize_s", sections["finalize"]);
  json.Num("core.render_frequent_s", sections["render"]);
  for (const char* key : {"parse", "add_tree", "finalize", "render"}) {
    json.Num(std::string("section.seq.") + key, sections[key]);
  }

  // The free variant runs on the workload's shorter free-tree slice.
  std::map<std::string, double> free_sections;
  {
    Scope span(&tracer, "bench.sequential_free");
    std::string free_text;
    std::string free_csv;
    if (!ReadFile(Arg(argc, argv, "free-forest"), &free_text)) return 1;
    std::map<std::string, std::vector<double>> samples;
    for (int pass = 0; pass < 3; ++pass) {
      SequentialPass(free_text, MinerVariant::kFreeTree, &tracer, &free_csv,
                     &pass_sections);
      for (const auto& [key, value] : pass_sections) samples[key].push_back(value);
    }
    for (const auto& [key, values] : samples) free_sections[key] = Median(values);
    WriteFile(work + "/frequent_free.csv", free_csv);
  }
  json.Num("core.add_tree_free_us",
           free_sections["add_tree"] / free_sections["trees"] * 1e6);
  if (scalar) SetSimdMode(SimdMode::kAuto);
  for (const char* key : {"parse", "add_tree", "finalize", "render"}) {
    json.Num(std::string("section.free.") + key, free_sections[key]);
  }

  auto labels = std::make_shared<LabelTable>();
  Result<std::vector<Tree>> parsed =
      ParseNewickForest(text, labels, ParseLimits::Unlimited());
  if (!parsed.ok()) return 1;
  const std::vector<Tree>& trees = *parsed;
  const MultiTreeMiningOptions options;  // Table 2: 1.5, 1, 2

  {
    Scope span(&tracer, "bench.mine_tree");
    double items = 0;
    const auto start = Clock::now();
    for (const Tree& tree : trees) {
      Scope call(&tracer, "core.mine_tree");
      items += static_cast<double>(MineSingleTree(tree, options.per_tree).size());
    }
    json.Num("core.mine_tree_us", SecondsSince(start) / n * 1e6);
    json.Num("core.items_per_tree", items / n);
  }

  {
    Scope span(&tracer, "bench.merge");
    std::vector<MultiTreeMiner> shards(4, MultiTreeMiner(options));
    for (size_t i = 0; i < trees.size(); ++i) {
      shards[i * 4 / trees.size()].AddTree(trees[i]);
    }
    const auto start = Clock::now();
    {
      Scope call(&tracer, "core.merge");
      for (int s = 1; s < 4; ++s) shards[0].MergeFrom(shards[s]);
    }
    json.Num("core.merge_s", SecondsSince(start));
  }

  {
    Scope span(&tracer, "bench.parallel");
    double t[5] = {0, 0, 0, 0, 0};
    for (int threads : {1, 2, 4}) {
      const auto start = Clock::now();
      Scope call(&tracer, "core.parallel_t" + std::to_string(threads));
      MineMultipleTreesParallel(trees, options, threads);
      t[threads] = SecondsSince(start);
      json.Num("core.parallel_t" + std::to_string(threads) + "_s", t[threads]);
    }
    json.Num("core.speedup_t4", t[1] / t[4]);
    json.Num("core.efficiency_t4", t[1] / t[4] / 4.0);
    json.Num("section.threads.mine", t[4]);
  }

  {
    Scope span(&tracer, "bench.freetree");
    const auto start = Clock::now();
    for (const Tree& tree : trees) {
      const FreeTree graph = FreeTree::FromRootedTree(tree);
      Scope call(&tracer, "freetree.mine_tree");
      MineFreeTree(graph, options.per_tree);
    }
    json.Num("freetree.mine_tree_us", SecondsSince(start) / n * 1e6);
  }

  {
    Scope span(&tracer, "bench.svc");
    SessionPlan plan;
    plan.batches = static_cast<int>(IntArg(argc, argv, "batches", plan.batches));
    plan.batch_size = static_cast<int>(IntArg(argc, argv, "batch-size", plan.batch_size));
    plan.seed = static_cast<uint64_t>(IntArg(argc, argv, "seed", 1));
    SessionInputs inputs;
    std::string error;
    if (!BuildSessionInputs(text, plan, &inputs, &error)) return 1;
    svc::ServiceConfig config;
    config.mining = options;
    config.wal_path = work + "/svc_wal";
    SessionStats stats;
    SessionModel model;
    {
      auto service = svc::CousinService::Start(config);
      if (!service.ok()) return 1;
      svc::CousinService& handle = **service;
      DriveSession(plan, inputs,
                   [&](const std::string& body, std::string* reply) {
                     Result<svc::Request> request = svc::ParseRequest(body);
                     if (!request.ok()) return false;
                     Scope call(&tracer, "svc.handle." + request->verb);
                     *reply = svc::RenderResponse(handle.Handle(*request));
                     return true;
                   },
                   &stats, &model);
    }
    for (const std::string& e : stats.errors) errors.push_back("svc: " + e);
    for (const std::string& e : stats.failures) errors.push_back("svc failed: " + e);
    json.Num("svc.ingest_handle_ms", Median(stats.ingest_ms));
    json.Num("svc.support_handle_ms", Median(stats.support_ms));
    json.Num("svc.listing_handle_us", Median(stats.listing_ms) * 1e3);
    json.Num("svc.frame_roundtrip_us",
             FrameRoundTripUs("INGEST\n" + inputs.payloads[0], 200));
    json.Num("svc.wal_bytes_per_payload_byte",
             static_cast<double>(DirectoryBytes(config.wal_path)) /
                 static_cast<double>(stats.payload_bytes));
    const auto start = Clock::now();
    auto restarted = [&] {
      Scope call(&tracer, "svc.start");
      return svc::CousinService::Start(config);
    }();
    json.Num("svc.start_s", SecondsSince(start));
    if (restarted.ok()) {
      json.Num("svc.replayed_records",
               static_cast<double>((*restarted)->replayed_records()));
    }

    // AllTallies and its render at the session's final state, which
    // the daemon re-renders after every mutation.
    MultiTreeMiner final_state(options);
    for (int b = 0; b < plan.batches; ++b) {
      const bool retracted = (b + 3) % 4 == 0 && b + 2 < plan.batches;
      if (retracted) continue;
      for (int t = 0; t < plan.batch_size; ++t) {
        final_state.AddTree(trees[static_cast<size_t>(b) * plan.batch_size + t]);
      }
    }
    auto mark = Clock::now();
    std::vector<FrequentCousinPair> all;
    {
      Scope call(&tracer, "core.all_tallies");
      all = final_state.AllTallies();
    }
    json.Num("core.all_tallies_s", SecondsSince(mark));
    mark = Clock::now();
    {
      Scope call(&tracer, "core.render_all");
      FrequentPairsToCsv(*labels, all);
    }
    json.Num("core.render_all_s", SecondsSince(mark));
  }

  {
    Scope span(&tracer, "bench.phylo");
    std::string studies_text;
    std::vector<std::vector<Tree>> groups;
    std::string error;
    if (!LoadStudies(Arg(argc, argv, "studies"), &studies_text, &groups, &error)) {
      return 1;
    }
    PhyloTimes times;
    PhyloOutputs outputs;
    PhyloPass(groups, &tracer, &times, &outputs);
    const double studies = static_cast<double>(groups.size());
    for (const std::string& m : MethodNames()) {
      json.Num("phylo.consensus_ms." + m, times.consensus_s[m] / studies * 1e3);
      json.Num("phylo.similarity_ms." + m, times.similarity_s[m] / studies * 1e3);
    }
    json.Num("phylo.profile_us_per_tree", times.profile_s / times.profiles * 1e6);
    json.Num("phylo.profile_distance_us", times.distance_s / times.pairs * 1e6);
    json.Num("phylo.kernel_s", times.kernel_s);
    if (times.failed > 0) errors.push_back("phylo: a consensus call failed");
  }

  for (const auto& [layer, seconds] : tracer.LayerSelfSeconds()) {
    json.Num("self_s." + layer, seconds);
  }
  json.Num("trace.spans", static_cast<double>(tracer.spans().size()));
  WriteFile(work + "/trace.json", tracer.ChromeJson());
  std::string joined;
  for (const std::string& e : errors) joined += e + "; ";
  json.Str("errors", joined);
  std::printf("%s\n", json.Render().c_str());
  return 0;
}

}  // namespace perfbench
