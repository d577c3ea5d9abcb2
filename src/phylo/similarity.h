// Consensus-quality similarity score, Eq. (4)-(5) of §5.2.
//
// sim(C, T) = Σᵢ 1 / 2^{|c_dist_C(cpᵢ) − c_dist_T(cpᵢ)|} over the cousin
// pairs cpᵢ whose labels occur (as a cousin pair item) in both C and T.
// A shared pair with equal distances contributes 1; diverging distances
// decay geometrically.
//
// Phylogeny taxa are unique, so a shared label pair has a single cousin
// distance per tree; for general trees where a pair occurs at several
// distances we take the minimum distance in each tree (a documented
// interpretation of Eq. (4), which implicitly assumes uniqueness).

#ifndef COUSINS_PHYLO_SIMILARITY_H_
#define COUSINS_PHYLO_SIMILARITY_H_

#include <vector>

#include "core/cousin_pair.h"
#include "tree/tree.h"
#include "util/governance.h"
#include "util/result.h"

namespace cousins {

/// sim(C, T) per Eq. (4). Both trees must share one LabelTable.
double CousinSimilarityScore(const Tree& consensus, const Tree& original,
                             const MiningOptions& options = {});

/// Same, over precomputed item vectors (avoids re-mining). Both must be
/// canonical (MineSingleTree's order, CanonicalizeItems): the score is
/// one linear merge over the two vectors, reading each label pair's
/// minimum distance from the first item of its run.
double CousinSimilarityScore(const std::vector<CousinPairItem>& consensus,
                             const std::vector<CousinPairItem>& original);

/// Average similarity of a consensus against the parsimonious set it
/// summarizes, Eq. (5): (Σ_T sim(C, T)) / |set|. `originals` must be
/// non-empty and share the consensus's LabelTable.
double AverageSimilarityScore(const Tree& consensus,
                              const std::vector<Tree>& originals,
                              const MiningOptions& options = {});

/// Outcome of a governed consensus-evaluation run. On a trip `average`
/// covers the first `originals_scored` originals; a complete run equals
/// AverageSimilarityScore bit for bit.
struct SimilarityRun {
  double average = 0.0;
  int32_t originals_scored = 0;
  bool truncated = false;
  Status termination;
};

/// AverageSimilarityScore under a resource-governance context. Empty
/// `originals` or a label-table mismatch come back as kInvalidArgument
/// instead of aborting; governance trips come back OK with a partial,
/// truncated-flagged run. AverageSimilarityScore is this run under
/// MiningContext::Unlimited().
Result<SimilarityRun> AverageSimilarityScoreGoverned(
    const Tree& consensus, const std::vector<Tree>& originals,
    const MiningOptions& options, const MiningContext& context);

}  // namespace cousins

#endif  // COUSINS_PHYLO_SIMILARITY_H_
