// The §5.2-5.3 applications over a study corpus, driven through the
// library's public API from Newick bytes: consensus by all six methods
// with its Eq. 5 score, the Eq. 6 distance matrix of each study, and
// kernel-tree selection across the studies.
#ifndef PERFBENCH_PHYLO_RUN_H_
#define PERFBENCH_PHYLO_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/cousin_pair.h"
#include "phylo/kernel_trees.h"
#include "tree/tree.h"

namespace perfbench {

struct PhyloTimes {
  std::map<std::string, double> consensus_s;   // per method, all studies
  std::map<std::string, double> similarity_s;  // per method, all studies
  double profile_s = 0;
  double distance_s = 0;
  int64_t profiles = 0;
  int64_t pairs = 0;
  double kernel_s = 0;
  int64_t trees_summarised = 0;  // Σ study size × methods
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct PhyloOutputs {
  std::vector<std::vector<cousins::Tree>> consensus;  // [study][method]
  std::vector<std::vector<double>> scores;            // [study][method]
  std::vector<std::vector<double>> matrix;            // [study][i * n + j]
  std::vector<std::vector<std::vector<cousins::CousinPairItem>>> profiles;
  cousins::KernelTreeResult kernel;
};

/// The six methods, in the order the metrics name them.
const std::vector<std::string>& MethodNames();

/// Reads PATH and PATH.idx into study groups over one label table.
bool LoadStudies(const std::string& path, std::string* text,
                 std::vector<std::vector<cousins::Tree>>* groups,
                 std::string* error);

/// One timed pass; spans go to `tracer` unless it is null.
void PhyloPass(const std::vector<std::vector<cousins::Tree>>& groups,
               Tracer* tracer, PhyloTimes* times, PhyloOutputs* outputs);

/// Checks `outputs` against the benchmark's own computations over the
/// same Newick text; appends a line per mismatch to `errors`.
void CheckPhylo(const std::string& text,
                const std::vector<std::vector<cousins::Tree>>& groups,
                const PhyloOutputs& outputs, uint64_t seed,
                std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_PHYLO_RUN_H_
