#include "freetree/free_tree_mining.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/parallel_mining.h"
#include "core/single_tree_mining.h"

namespace cousins {

std::vector<CousinPairItem> MineFreeTree(const FreeTree& graph,
                                         const MiningOptions& options,
                                         int32_t root_edge_index) {
  if (graph.size() < 2 || options.twice_maxdist < 0) return {};
  // Fig. 11: subdivide the chosen edge with an artificial root and run
  // the rooted level sweep over (up, down) combinations, Eq. (10)
  // shortening the paths that cross the root.
  const FreeTree::Rooted rooted = graph.RootAtEdge(root_edge_index);
  internal::MiningScratch scratch;
  internal::MineSingleTreeScratch(rooted.tree, options,
                                  MiningContext::Unlimited(), &scratch,
                                  internal::SweepShape::kFreeEdgeRoot);
  CanonicalizeItems(&scratch.items);
  return std::move(scratch.items);
}

std::vector<CousinPairItem> MineFreeTreeBfs(const FreeTree& graph,
                                            const MiningOptions& options) {
  if (graph.size() < 2 || options.twice_maxdist < 0) return {};
  const int32_t max_edges = options.twice_maxdist + 2;

  std::unordered_map<CousinPairKey, int64_t, CousinPairKeyHash> acc;
  std::vector<int32_t> dist(graph.size(), -1);
  std::vector<int32_t> queue;
  for (int32_t u = 0; u < graph.size(); ++u) {
    if (!graph.has_label(u)) continue;
    // Bounded BFS from u; the previous source's visits are its queue.
    for (int32_t v : queue) dist[v] = -1;
    queue.clear();
    queue.push_back(u);
    dist[u] = 0;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      const int32_t v = queue[qi];
      if (dist[v] == max_edges) continue;
      for (int32_t w : graph.neighbors(v)) {
        if (dist[w] == -1) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      }
    }
    for (int32_t v : queue) {
      if (v <= u || !graph.has_label(v)) continue;
      const int twice_d = dist[v] - 2;
      if (twice_d < 0 || twice_d > options.twice_maxdist) continue;
      CousinPairKey key{std::min(graph.label(u), graph.label(v)),
                        std::max(graph.label(u), graph.label(v)), twice_d};
      ++acc[key];
    }
  }
  std::vector<CousinPairItem> items;
  items.reserve(acc.size());
  for (const auto& [key, count] : acc) {
    if (count >= options.min_occur) {
      items.push_back(CousinPairItem{key.label1, key.label2,
                                     key.twice_distance, count});
    }
  }
  CanonicalizeItems(&items);
  return items;
}

Result<std::vector<FrequentCousinPair>> MineMultipleFreeTrees(
    const std::vector<FreeTree>& graphs,
    const MultiTreeMiningOptions& options) {
  // Delegate to the production forest pipeline: the kFreeTree variant
  // of MultiTreeMiner reads each rooted conversion as a free tree again
  // (ToRootedTree preserves path lengths), mines it on the level sweep
  // and folds into the shared saturating tally tables. Mixed
  // label tables surface as kInvalidArgument from the pipeline's
  // identity check — the old hand-rolled loop aborted the process.
  std::vector<Tree> trees;
  trees.reserve(graphs.size());
  for (const FreeTree& graph : graphs) trees.push_back(graph.ToRootedTree());
  MultiTreeMiningOptions opts = options;
  opts.variant = MinerVariant::kFreeTree;
  Result<MultiTreeMiningRun> run = MineMultipleTreesParallelGoverned(
      trees, opts, MiningContext::Unlimited(), /*num_threads=*/1);
  if (!run.ok()) return run.status();
  return std::move(run->pairs);
}

}  // namespace cousins
