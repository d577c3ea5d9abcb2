// §6: free-tree (undirected acyclic graph) cousin mining.
//
// The paper gives the algorithm and its O(|G|²) complexity but no
// figure; this bench records how the paper's root-insertion algorithm
// (Fig. 11 / Eq. 7-10, on the level sweep) scales with graph size
// against the direct bounded-BFS implementation, verifying they agree.

#include <cstdio>
#include <memory>
#include <string>

#include "bench_report.h"
#include "core/multi_tree_mining.h"
#include "core/parallel_mining.h"
#include "freetree/free_tree.h"
#include "freetree/free_tree_mining.h"
#include "gen/uniform_generator.h"
#include "paper_params.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace cousins;
using namespace cousins::bench;

int main() {
  BenchReport report("freetree");
  CsvWriter csv;
  csv.WriteComment(
      "Section 6: free-tree mining, rooted algorithm (Eq. 7-10) vs "
      "bounded-BFS reference");
  csv.WriteComment(
      "paper: O(|G|^2) rooted algorithm, no measured figure; this bench "
      "records both implementations' scaling and verifies agreement");
  csv.WriteRow({"graph_size", "rooted_ms", "bfs_ms", "items", "agree"});

  const int32_t reps = ScaledReps(5);
  const MiningOptions mining = PaperMiningOptions();
  report.AddParam("reps_per_point", int64_t{reps});
  report.AddParam("twice_maxdist", int64_t{mining.twice_maxdist});
  bool all_agree = true;
  for (int32_t size : {100, 200, 400, 800, 1600}) {
    UniformTreeOptions gen;
    gen.tree_size = size;
    gen.alphabet_size = kAlphabetSize;
    Rng rng(600 + size);
    Tree seed = GenerateUniformTree(gen, rng);
    FreeTree graph = FreeTree::FromRootedTree(seed);

    Stopwatch sw;
    std::vector<CousinPairItem> rooted;
    for (int32_t r = 0; r < reps; ++r) {
      rooted = MineFreeTree(graph, mining, /*root_edge_index=*/0);
    }
    const double rooted_ms = sw.Restart() * 1000.0 / reps;
    std::vector<CousinPairItem> bfs;
    for (int32_t r = 0; r < reps; ++r) {
      bfs = MineFreeTreeBfs(graph, mining);
    }
    const double bfs_ms = sw.ElapsedSeconds() * 1000.0 / reps;
    const bool agree = rooted == bfs;
    all_agree = all_agree && agree;
    report.AddToN(2 * reps);
    report.AddResult("rooted_ms.size_" + std::to_string(size), rooted_ms);
    report.AddResult("bfs_ms.size_" + std::to_string(size), bfs_ms);
    csv.WriteRow({std::to_string(size), std::to_string(rooted_ms),
                  std::to_string(bfs_ms), std::to_string(rooted.size()),
                  agree ? "yes" : "NO"});
  }
  csv.WriteComment(all_agree ? "shape check: OK — both §6 algorithms "
                               "agree on every graph"
                             : "shape check: MISMATCH");

  // Free variant through the unified forest pipeline (the production
  // path MineMultipleFreeTrees delegates to): a pinned synthetic
  // forest, mined with variant=kFreeTree. `frequent_pairs` is an
  // exact perf-gate key; the per-tree timing rides the gate's timing
  // tolerance.
  {
    const int32_t forest_size =
        static_cast<int32_t>(EnvScale("COUSINS_FREETREE_TREES", 2000));
    const int32_t threads =
        static_cast<int32_t>(EnvScale("COUSINS_FREETREE_THREADS", 4));
    report.AddParam("pipeline_forest_size", int64_t{forest_size});
    report.AddParam("pipeline_threads", int64_t{threads});
    auto labels = std::make_shared<LabelTable>();
    UniformTreeOptions gen;
    gen.tree_size = 64;
    gen.alphabet_size = kAlphabetSize;
    Rng rng(4242);
    std::vector<Tree> forest;
    forest.reserve(forest_size);
    for (int32_t i = 0; i < forest_size; ++i) {
      forest.push_back(GenerateUniformTree(gen, rng, labels));
    }
    MultiTreeMiningOptions options;
    options.variant = MinerVariant::kFreeTree;
    options.per_tree = mining;
    options.min_support = 2;
    Stopwatch sw;
    Result<MultiTreeMiningRun> run = MineMultipleTreesParallelGoverned(
        forest, options, MiningContext::Unlimited(), threads);
    const double pipeline_s = sw.ElapsedSeconds();
    const bool pipeline_ok = run.ok() && !run->truncated &&
                             run->trees_processed == forest_size;
    all_agree = all_agree && pipeline_ok;
    report.AddToN(forest_size);
    report.AddResult("pipeline_frequent_pairs",
                     static_cast<int64_t>(pipeline_ok ? run->pairs.size()
                                                      : -1));
    report.AddResult("pipeline_us_per_tree",
                     pipeline_s * 1e6 / forest_size);
    csv.WriteComment("pipeline: " + std::to_string(forest_size) +
                     " trees, " + std::to_string(threads) + " threads, " +
                     std::to_string(pipeline_s * 1e3) + " ms, " +
                     (pipeline_ok
                          ? std::to_string(run->pairs.size()) +
                                " frequent pairs"
                          : "FAILED"));
  }
  return report.Finish(all_agree) ? 0 : 1;
}
