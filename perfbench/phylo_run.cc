#include "phylo_run.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>

#include "oracle.h"
#include "phylo/consensus.h"
#include "phylo/similarity.h"
#include "phylo/tree_distance.h"
#include "tree/newick.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using cousins::ConsensusMethod;

constexpr int kTwiceMaxdist = 3;  // Table 2: maxdist 1.5
constexpr auto kAbstraction =
    cousins::CousinItemAbstraction::kDistanceAndOccurrence;

const std::vector<ConsensusMethod>& Methods() {
  static const std::vector<ConsensusMethod> methods = {
      ConsensusMethod::kMajority, ConsensusMethod::kStrict,
      ConsensusMethod::kSemiStrict, ConsensusMethod::kAdams,
      ConsensusMethod::kNelson, ConsensusMethod::kGreedy};
  return methods;
}

bool Close(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

const std::vector<std::string>& MethodNames() {
  static const std::vector<std::string> names = {
      "majority", "strict", "semi", "adams", "nelson", "greedy"};
  return names;
}

bool LoadStudies(const std::string& path, std::string* text,
                 std::vector<std::vector<cousins::Tree>>* groups,
                 std::string* error) {
  std::string index;
  if (!ReadFile(path, text) || !ReadFile(path + ".idx", &index)) {
    *error = "cannot read " + path + " or its .idx";
    return false;
  }
  auto labels = std::make_shared<cousins::LabelTable>();
  auto forest = cousins::ParseNewickForest(*text, labels,
                                           cousins::ParseLimits::Unlimited());
  if (!forest.ok()) {
    *error = forest.status().ToString();
    return false;
  }
  size_t next = 0;
  std::istringstream counts(index);
  for (size_t n; counts >> n;) {
    if (next + n > forest->size()) {
      *error = "study index exceeds the forest";
      return false;
    }
    groups->emplace_back(forest->begin() + next, forest->begin() + next + n);
    next += n;
  }
  if (next != forest->size() || groups->empty()) {
    *error = "study index does not cover the forest";
    return false;
  }
  return true;
}

void PhyloPass(const std::vector<std::vector<cousins::Tree>>& groups,
               Tracer* tracer, PhyloTimes* times, PhyloOutputs* outputs) {
  const cousins::MiningOptions mining;  // Table 2 defaults
  outputs->consensus.assign(groups.size(), {});
  outputs->scores.assign(groups.size(), {});
  outputs->matrix.assign(groups.size(), {});
  outputs->profiles.assign(groups.size(), {});
  for (size_t s = 0; s < groups.size(); ++s) {
    const auto& trees = groups[s];
    for (size_t m = 0; m < Methods().size(); ++m) {
      const std::string& name = MethodNames()[m];
      ++times->attempted;
      auto start = Clock::now();
      cousins::Result<cousins::Tree> consensus = [&] {
        Scope span(tracer, "phylo.consensus." + name);
        return cousins::ConsensusTree(trees, Methods()[m]);
      }();
      times->consensus_s[name] += SecondsSince(start);
      if (!consensus.ok()) {
        ++times->failed;
        outputs->consensus[s].emplace_back();
        outputs->scores[s].push_back(NAN);
        continue;
      }
      ++times->attempted;
      start = Clock::now();
      double score = 0;
      {
        Scope span(tracer, "phylo.similarity." + name);
        score = cousins::AverageSimilarityScore(*consensus, trees, mining);
      }
      times->similarity_s[name] += SecondsSince(start);
      times->trees_summarised += static_cast<int64_t>(trees.size());
      outputs->consensus[s].push_back(std::move(*consensus));
      outputs->scores[s].push_back(score);
    }

    ++times->attempted;
    const size_t n = trees.size();
    auto start = Clock::now();
    auto& profiles = outputs->profiles[s];
    for (const cousins::Tree& tree : trees) {
      Scope span(tracer, "phylo.profile");
      profiles.push_back(cousins::CousinProfile(tree, kAbstraction, mining));
    }
    times->profile_s += SecondsSince(start);
    times->profiles += static_cast<int64_t>(n);
    start = Clock::now();
    auto& matrix = outputs->matrix[s];
    matrix.assign(n * n, 0.0);
    {
      Scope span(tracer, "phylo.profile_distance");
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          matrix[i * n + j] = cousins::ProfileDistance(profiles[i], profiles[j]);
        }
      }
    }
    times->distance_s += SecondsSince(start);
    times->pairs += static_cast<int64_t>(n * (n - 1) / 2);
  }
  ++times->attempted;
  const auto start = Clock::now();
  {
    Scope span(tracer, "phylo.kernel");
    cousins::KernelTreeOptions options;  // t_dist_dist_occur, Table 2
    outputs->kernel = cousins::FindKernelTrees(groups, options);
  }
  times->kernel_s += SecondsSince(start);
}

void CheckPhylo(const std::string& text,
                const std::vector<std::vector<cousins::Tree>>& groups,
                const PhyloOutputs& outputs, uint64_t seed,
                std::vector<std::string>* errors) {
  auto fail = [&](const std::string& what) {
    if (errors->size() < 20) errors->push_back(what);
  };
  Names names;
  std::vector<OTree> all;
  std::string error;
  if (!ReadForest(text, &names, &all, &error)) return fail(error);
  std::vector<std::vector<Items>> items(groups.size());
  size_t next = 0;
  for (size_t s = 0; s < groups.size(); ++s) {
    const size_t n = groups[s].size();
    const std::vector<OTree> trees(all.begin() + next, all.begin() + next + n);
    next += n;
    for (const OTree& tree : trees) {
      items[s].push_back(NaiveCousinItems(tree, kTwiceMaxdist));
    }
    const std::vector<int> taxa = LeafLabels(trees[0]);
    std::map<std::vector<int>, size_t> counts;
    for (const OTree& tree : trees) {
      for (const auto& cluster : Clusters(tree)) ++counts[cluster];
    }
    std::set<std::vector<int>> strict;
    std::set<std::vector<int>> majority;
    for (const auto& [cluster, count] : counts) {
      if (count == n) strict.insert(cluster);
      if (2 * count > n) majority.insert(cluster);
    }
    std::vector<std::set<std::vector<int>>> got(Methods().size());
    const std::string where = "study " + std::to_string(s) + " ";
    for (size_t m = 0; m < Methods().size(); ++m) {
      const std::string& name = MethodNames()[m];
      if (outputs.consensus[s][m].empty()) continue;  // counted as failed
      std::vector<OTree> parsed;
      if (!ReadForest(cousins::ToNewick(outputs.consensus[s][m]), &names,
                      &parsed, &error) ||
          parsed.size() != 1) {
        fail(where + name + ": consensus does not read back");
        continue;
      }
      if (LeafLabels(parsed[0]) != taxa) {
        fail(where + name + ": consensus leaves are not the study's taxa");
      }
      const auto clusters = Clusters(parsed[0]);
      got[m] = {clusters.begin(), clusters.end()};
      const Items consensus_items = NaiveCousinItems(parsed[0], kTwiceMaxdist);
      double total = 0;
      for (const Items& original : items[s]) {
        total += Similarity(consensus_items, original);
      }
      const double want = total / static_cast<double>(n);
      if (!Close(outputs.scores[s][m], want)) {
        fail(where + name + ": Eq. 5 score " + Fmt(outputs.scores[s][m]) +
             " != " + Fmt(want));
      }
    }
    if (got[0] != majority) fail(where + "majority clusters differ");
    if (got[1] != strict) fail(where + "strict clusters differ");
    for (const auto& c : got[1]) {
      if (!got[2].count(c)) fail(where + "strict is not within semi-strict");
    }
    for (const auto& c : got[0]) {
      if (!got[5].count(c)) fail(where + "majority is not within greedy");
    }

    // Eq. 6 on a seeded sample of pairs, plus symmetry and the diagonal.
    cousins::Rng rng(seed * 7919 + s);
    const auto& profiles = outputs.profiles[s];
    for (int k = 0; k < 16 && n >= 2; ++k) {
      size_t i = rng.Uniform(n);
      size_t j = rng.Uniform(n - 1);
      if (j >= i) ++j;
      if (i > j) std::swap(i, j);
      const double got_ij = outputs.matrix[s][i * n + j];
      const double want = Distance(items[s][i], items[s][j]);
      if (!Close(got_ij, want)) {
        fail(where + "Eq. 6 d(" + std::to_string(i) + "," +
             std::to_string(j) + ") " + Fmt(got_ij) + " != " + Fmt(want));
      }
      if (cousins::ProfileDistance(profiles[j], profiles[i]) != got_ij) {
        fail(where + "distance matrix is not symmetric");
      }
      if (cousins::ProfileDistance(profiles[i], profiles[i]) != 0.0) {
        fail(where + "distance matrix has a non-zero diagonal");
      }
    }
  }

  const auto& selected = outputs.kernel.selected;
  if (selected.size() != groups.size()) return fail("kernel: wrong arity");
  double total = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (selected[g] < 0 || selected[g] >= static_cast<int>(groups[g].size())) {
      return fail("kernel: selection out of range");
    }
    for (size_t h = 0; h < g; ++h) {
      total += Distance(items[g][selected[g]], items[h][selected[h]]);
    }
  }
  const double pairs = groups.size() * (groups.size() - 1) / 2.0;
  const double want = pairs > 0 ? total / pairs : 0.0;
  if (!Close(outputs.kernel.average_pairwise_distance, want)) {
    fail("kernel objective " + Fmt(outputs.kernel.average_pairwise_distance) +
         " != " + Fmt(want));
  }
}

namespace {

bool SameOutputs(const PhyloOutputs& a, const PhyloOutputs& b) {
  if (a.scores != b.scores || a.matrix != b.matrix ||
      a.kernel.selected != b.kernel.selected ||
      a.kernel.average_pairwise_distance != b.kernel.average_pairwise_distance) {
    return false;
  }
  for (size_t s = 0; s < a.consensus.size(); ++s) {
    for (size_t m = 0; m < a.consensus[s].size(); ++m) {
      if (a.consensus[s][m].empty() != b.consensus[s][m].empty()) return false;
      if (!a.consensus[s][m].empty() &&
          cousins::ToNewick(a.consensus[s][m]) != cousins::ToNewick(b.consensus[s][m])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int RunPhylo(int argc, char** argv) {
  std::string text;
  std::vector<std::vector<cousins::Tree>> groups;
  std::string error;
  if (!LoadStudies(Arg(argc, argv, "studies"), &text, &groups, &error)) {
    std::fprintf(stderr, "phylo: %s\n", error.c_str());
    return 1;
  }
  const double min_seconds =
      std::strtod(Arg(argc, argv, "min-seconds", "0").c_str(), nullptr);
  const uint64_t seed = static_cast<uint64_t>(IntArg(argc, argv, "seed", 1));

  // Per "run" line on stdin: passes until `min_seconds` (one at
  // least), one JSON line of per-pass figures. The process's first
  // pass is checked against the benchmark's own computations; every
  // later pass must reproduce it exactly.
  PhyloOutputs first;
  bool checked = false;
  for (std::string command; std::getline(std::cin, command);) {
    if (command != "run") continue;
    std::vector<double> consensus_rate;
    std::vector<double> distance_rate;
    std::vector<double> kernel_s;
    std::vector<std::string> errors;
    int64_t attempted = 0;
    int64_t failed = 0;
    const auto start = Clock::now();
    do {
      PhyloTimes times;
      PhyloOutputs outputs;
      PhyloPass(groups, nullptr, &times, &outputs);
      attempted += times.attempted;
      failed += times.failed;
      double summarise_s = 0;
      for (const auto& [name, s] : times.consensus_s) summarise_s += s;
      for (const auto& [name, s] : times.similarity_s) summarise_s += s;
      consensus_rate.push_back(times.trees_summarised / summarise_s);
      distance_rate.push_back(times.pairs / (times.profile_s + times.distance_s));
      kernel_s.push_back(times.kernel_s);
      if (!checked) {
        CheckPhylo(text, groups, outputs, seed, &errors);
        first = std::move(outputs);
        checked = true;
      } else if (!SameOutputs(first, outputs)) {
        errors.push_back("a pass differs from the first pass");
      }
    } while (SecondsSince(start) < min_seconds);

    JsonObject json;
    json.List("consensus_trees_per_s", consensus_rate);
    json.List("distance_pairs_per_s", distance_rate);
    json.List("kernel_s", kernel_s);
    json.Num("attempted", static_cast<double>(attempted));
    json.Num("failed", static_cast<double>(failed));
    json.Bool("correct", errors.empty());
    std::string joined;
    for (const std::string& e : errors) joined += e + "; ";
    json.Str("errors", joined);
    std::printf("%s\n", json.Render().c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
