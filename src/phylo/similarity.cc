#include "phylo/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "core/single_tree_mining.h"
#include "obs/governance_events.h"

namespace cousins {

double CousinSimilarityScore(const std::vector<CousinPairItem>& consensus,
                             const std::vector<CousinPairItem>& original) {
  COUSINS_DCHECK(std::is_sorted(consensus.begin(), consensus.end()));
  COUSINS_DCHECK(std::is_sorted(original.begin(), original.end()));
  // Canonical order groups each label pair into one run, distances
  // ascending, so the run's first item holds the pair's minimum.
  auto pair_of = [](const CousinPairItem& item) {
    return std::make_pair(item.label1, item.label2);
  };
  auto skip_run = [&](const std::vector<CousinPairItem>& items, size_t i) {
    const auto pair = pair_of(items[i]);
    while (i < items.size() && pair_of(items[i]) == pair) ++i;
    return i;
  };
  double score = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < consensus.size() && j < original.size()) {
    const auto pc = pair_of(consensus[i]);
    const auto pt = pair_of(original[j]);
    if (pc < pt) {
      i = skip_run(consensus, i);
    } else if (pt < pc) {
      j = skip_run(original, j);
    } else {
      // twice-distances halve back to d; |Δd| = |Δ(2d)| / 2.
      const double delta =
          std::abs(consensus[i].twice_distance - original[j].twice_distance) /
          2.0;
      score += std::exp2(-delta);
      i = skip_run(consensus, i);
      j = skip_run(original, j);
    }
  }
  return score;
}

double CousinSimilarityScore(const Tree& consensus, const Tree& original,
                             const MiningOptions& options) {
  COUSINS_CHECK(consensus.labels_ptr() == original.labels_ptr());
  return CousinSimilarityScore(MineSingleTree(consensus, options),
                               MineSingleTree(original, options));
}

double AverageSimilarityScore(const Tree& consensus,
                              const std::vector<Tree>& originals,
                              const MiningOptions& options) {
  Result<SimilarityRun> run = AverageSimilarityScoreGoverned(
      consensus, originals, options, MiningContext::Unlimited());
  COUSINS_CHECK(run.ok() && "consensus evaluation on invalid input");
  return run->average;
}

Result<SimilarityRun> AverageSimilarityScoreGoverned(
    const Tree& consensus, const std::vector<Tree>& originals,
    const MiningOptions& options, const MiningContext& context) {
  if (originals.empty()) {
    return Status::InvalidArgument(
        "consensus evaluation needs at least one original tree");
  }
  for (const Tree& original : originals) {
    if (original.labels_ptr() != consensus.labels_ptr()) {
      return Status::InvalidArgument(
          "consensus and originals must share one LabelTable");
    }
  }

  SimilarityRun run;
  // A half-mined consensus profile would skew every per-original score,
  // so a trip here truncates the whole evaluation at zero originals.
  SingleTreeMiningRun consensus_run =
      MineSingleTreeGovernedUnordered(consensus, options, context);
  if (consensus_run.truncated) {
    obs::RecordGovernanceEvent(consensus_run.termination);
    run.truncated = true;
    run.termination = std::move(consensus_run.termination);
    return run;
  }
  CanonicalizeItems(&consensus_run.items);

  double total = 0.0;
  for (const Tree& original : originals) {
    SingleTreeMiningRun original_run =
        MineSingleTreeGovernedUnordered(original, options, context);
    if (original_run.truncated) {
      obs::RecordGovernanceEvent(original_run.termination);
      run.truncated = true;
      run.termination = std::move(original_run.termination);
      break;
    }
    CanonicalizeItems(&original_run.items);
    total += CousinSimilarityScore(consensus_run.items, original_run.items);
    ++run.originals_scored;
  }
  run.average = run.originals_scored == 0
                    ? 0.0
                    : total / static_cast<double>(run.originals_scored);
  return run;
}

}  // namespace cousins
