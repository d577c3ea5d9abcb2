// Free trees (undirected acyclic graphs) — §6 of the paper.
//
// Maximum-parsimony and maximum-likelihood reconstruction methods emit
// unrooted trees; this module represents them directly and supports
// converting to/from rooted trees.

#ifndef COUSINS_FREETREE_FREE_TREE_H_
#define COUSINS_FREETREE_FREE_TREE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "tree/label_table.h"
#include "tree/tree.h"
#include "util/result.h"

namespace cousins {

/// A connected undirected acyclic graph with optionally labeled nodes.
/// Immutable after construction via Create() or FromRootedTree().
class FreeTree {
 public:
  /// Builds a free tree on `labels_per_node.size()` nodes (kNoLabel for
  /// unlabeled) with the given undirected edges. Fails unless the graph
  /// is connected and acyclic (exactly n-1 edges, one component).
  static Result<FreeTree> Create(
      std::vector<LabelId> labels_per_node,
      std::vector<std::pair<int32_t, int32_t>> edges,
      std::shared_ptr<LabelTable> labels);

  /// Forgets the orientation of a rooted tree. Node v of the result
  /// corresponds to node v of `tree`.
  static FreeTree FromRootedTree(const Tree& tree);

  int32_t size() const { return static_cast<int32_t>(adjacency_.size()); }
  int32_t edge_count() const { return size() > 0 ? size() - 1 : 0; }

  const std::vector<int32_t>& neighbors(int32_t v) const {
    COUSINS_DCHECK(v >= 0 && v < size());
    return adjacency_[v];
  }

  LabelId label(int32_t v) const {
    COUSINS_DCHECK(v >= 0 && v < size());
    return label_[v];
  }
  bool has_label(int32_t v) const { return label(v) != kNoLabel; }

  const LabelTable& labels() const { return *labels_; }
  const std::shared_ptr<LabelTable>& labels_ptr() const { return labels_; }

  /// The i-th undirected edge (endpoints in insertion order).
  std::pair<int32_t, int32_t> edge(int32_t i) const {
    COUSINS_DCHECK(i >= 0 && i < edge_count());
    return edges_[i];
  }

  /// Roots the free tree per §6 Fig. 11: subdivides edge `edge_index`
  /// with an artificial unlabeled root. result.tree has size()+1 nodes;
  /// result.orig_id maps each rooted-tree node to its free-tree node, or
  /// -1 for the artificial root.
  struct Rooted {
    Tree tree;
    std::vector<int32_t> orig_id;
  };
  Rooted RootAtEdge(int32_t edge_index) const;

  /// Orients the free tree away from node 0 — no artificial node, no
  /// edge subdivision, so unlike RootAtEdge the result is
  /// distance-preserving: the path length between any two nodes equals
  /// their free-tree path length. Node ids are renumbered to preorder;
  /// labels are shared. This is the per-graph conversion the forest
  /// pipeline's free-tree variant mines (its level sweep pairs nodes
  /// by path length through their LCA, so any root works).
  Tree ToRootedTree() const;

 private:
  FreeTree() = default;

  std::shared_ptr<LabelTable> labels_;
  std::vector<LabelId> label_;
  std::vector<std::vector<int32_t>> adjacency_;
  std::vector<std::pair<int32_t, int32_t>> edges_;
};

}  // namespace cousins

#endif  // COUSINS_FREETREE_FREE_TREE_H_
