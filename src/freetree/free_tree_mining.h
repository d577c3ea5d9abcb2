// Cousin mining in free trees (§6).
//
// In a free tree the cousin distance of two labeled nodes is defined
// from the number of edges n on the path between them, Eq. (7):
//     c_dist(u, v) = (n − 2) / 2,
// so adjacent nodes (n = 1, the parent-child analog) are excluded and
// distances again step by 0.5. MineFreeTree implements the paper's
// algorithm: pick an edge, subdivide it with an artificial root
// (Fig. 11), and enumerate (up, down) level combinations at each LCA
// on the rooted miner's level sweep (single_tree_mining.h) — with the
// Eq. (10) correction for paths crossing the inserted root. Its cost
// follows the output, not the number of node pairs. MineFreeTreeBfs
// is the direct path-length reference, kept as the test oracle; both
// are property-tested to agree and to be independent of the chosen
// edge.

#ifndef COUSINS_FREETREE_FREE_TREE_MINING_H_
#define COUSINS_FREETREE_FREE_TREE_MINING_H_

#include <vector>

#include "core/cousin_pair.h"
#include "core/multi_tree_mining.h"
#include "freetree/free_tree.h"

namespace cousins {

/// Paper §6 algorithm. `root_edge_index` selects the arbitrarily chosen
/// edge e of Fig. 11; the result is independent of the choice.
std::vector<CousinPairItem> MineFreeTree(const FreeTree& graph,
                                         const MiningOptions& options = {},
                                         int32_t root_edge_index = 0);

/// Reference implementation (the test oracle): a BFS from every
/// labeled node up to the distance cutoff.
std::vector<CousinPairItem> MineFreeTreeBfs(
    const FreeTree& graph, const MiningOptions& options = {});

/// §6's closing remark — "one can easily extend this algorithm to find
/// frequent cousin pairs in multiple graphs": support counting over a
/// set of free trees, with the same semantics as MineMultipleTrees.
/// Runs the production forest pipeline (MultiTreeMiner, kFreeTree
/// variant: the level sweep reading each tree as a free tree) over
/// distance-preserving rootings of the graphs. Graphs
/// over different label tables are a kInvalidArgument — previously an
/// abort, which violated the library's no-abort contract for input
/// errors. options.variant is overridden to kFreeTree.
Result<std::vector<FrequentCousinPair>> MineMultipleFreeTrees(
    const std::vector<FreeTree>& graphs,
    const MultiTreeMiningOptions& options = {});

}  // namespace cousins

#endif  // COUSINS_FREETREE_FREE_TREE_MINING_H_
