// perfbench_harness — the compiled half of the benchmark; run.py runs
// it. Subcommands:
//
//   gen     --kind=cube|yule|studies --seed=S --out=PATH [sizes]
//           writes a seeded Newick forest (studies: plus PATH.idx, the
//           tree count of each study, one per line)
//   oracle  --forest=PATH --mode=cousin|free --out=PATH
//           the naive miner's expected `frequent --csv` rows
//   env     the build and dispatch facts of the provenance record
//   phylo   consensus, Eq. 5 scoring, Eq. 6 matrices and kernel trees
//           over a study corpus, timed and checked (phylo_run.cc)
//   session closed-loop cousinsd sessions over a Unix socket, timed and
//           checked against a model of the acked state (session.cc)
//   trace   the per-layer traced run (trace_run.cc)
//
// Every subcommand prints JSON objects on stdout, one per line. phylo
// and session stay resident across a run's rounds: each "run" line on
// stdin makes them do one round's work and print one object.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/kernel_dispatch.h"
#include "gen/fanout_generator.h"
#include "gen/study_corpus.h"
#include "gen/yule_generator.h"
#include "oracle.h"
#include "tree/newick.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int Gen(int argc, char** argv) {
  using namespace cousins;
  const std::string kind = Arg(argc, argv, "kind");
  const std::string out_path = Arg(argc, argv, "out");
  Rng rng(static_cast<uint64_t>(IntArg(argc, argv, "seed", 1)));
  auto labels = std::make_shared<LabelTable>();
  std::string text;
  std::string index;
  if (kind == "cube" || kind == "yule") {
    const int64_t n = IntArg(argc, argv, "trees", 100);
    FanoutTreeOptions cube;  // Table 3: 200 nodes, fanout 5, 200 labels
    YulePhylogenyOptions yule;  // TreeBASE shape, 18,870 taxa
    for (int64_t i = 0; i < n; ++i) {
      const Tree tree = kind == "cube" ? GenerateFanoutTree(cube, rng, labels)
                                       : GenerateYulePhylogeny(yule, rng, labels);
      text += ToNewick(tree) + "\n";
    }
  } else if (kind == "studies") {
    StudyCorpusOptions options;
    options.num_studies = static_cast<int32_t>(IntArg(argc, argv, "studies", 4));
    options.min_trees_per_study = options.max_trees_per_study =
        static_cast<int32_t>(IntArg(argc, argv, "trees", 20));
    options.min_taxa = options.max_taxa =
        static_cast<int32_t>(IntArg(argc, argv, "taxa", 32));
    options.taxon_pool = static_cast<int32_t>(IntArg(argc, argv, "pool", 96));
    options.perturbation_moves =
        static_cast<int32_t>(IntArg(argc, argv, "moves", 2));
    for (const Study& study : GenerateStudyCorpus(options, rng, labels)) {
      for (const Tree& tree : study.trees) text += ToNewick(tree) + "\n";
      index += std::to_string(study.trees.size()) + "\n";
    }
    if (!WriteFile(out_path + ".idx", index)) return 1;
  } else {
    std::fprintf(stderr, "gen: unknown --kind '%s'\n", kind.c_str());
    return 2;
  }
  if (!WriteFile(out_path, text)) return 1;
  JsonObject json;
  json.Num("bytes", static_cast<double>(text.size()));
  std::printf("%s\n", json.Render().c_str());
  return 0;
}

int Oracle(int argc, char** argv) {
  std::string text;
  if (!ReadFile(Arg(argc, argv, "forest"), &text)) return 1;
  const bool free_tree = Arg(argc, argv, "mode", "cousin") == "free";
  Names names;
  std::vector<OTree> trees;
  std::string error;
  if (!ReadForest(text, &names, &trees, &error)) {
    std::fprintf(stderr, "oracle: %s\n", error.c_str());
    return 1;
  }
  constexpr int kTwiceMaxdist = 3;  // Table 2: maxdist 1.5
  Tally tally;
  for (const OTree& tree : trees) {
    AddItems(free_tree ? NaiveFreeItems(tree, kTwiceMaxdist)
                       : NaiveCousinItems(tree, kTwiceMaxdist),
             1, &tally);
  }
  const std::string csv = TallyCsv(names, tally, /*min_support=*/2);
  if (!WriteFile(Arg(argc, argv, "out"), csv)) return 1;
  JsonObject json;
  json.Num("trees", static_cast<double>(trees.size()));
  json.Num("tallies", static_cast<double>(tally.size()));
  std::printf("%s\n", json.Render().c_str());
  return 0;
}

int Env() {
  JsonObject json;
  json.Str("simd_tier", cousins::SimdTierName(cousins::ActiveSimdTier()));
  json.Bool("cpu_avx2", cousins::CpuSupportsAvx2());
  json.Str("compiler", std::string("gcc ") + __VERSION__);
  json.Str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", json.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen") return Gen(argc, argv);
  if (command == "oracle") return Oracle(argc, argv);
  if (command == "env") return Env();
  if (command == "phylo") return RunPhylo(argc, argv);
  if (command == "session") return RunSession(argc, argv);
  if (command == "trace") return RunTrace(argc, argv);
  std::fprintf(stderr,
               "usage: perfbench_harness gen|oracle|env|phylo|session|trace "
               "[--flags]\n");
  return 2;
}
