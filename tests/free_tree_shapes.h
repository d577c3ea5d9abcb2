// Shared fixtures for the free-tree differential tests: the shapes the
// level sweep (SweepShape::kFree, MineFreeTree) is checked against the
// BFS oracle on, and the option grid it is checked under.

#ifndef COUSINS_TESTS_FREE_TREE_SHAPES_H_
#define COUSINS_TESTS_FREE_TREE_SHAPES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/kernel_dispatch.h"
#include "gen/yule_generator.h"
#include "test_util.h"
#include "tree/builder.h"
#include "tree/tree.h"
#include "util/rng.h"

namespace cousins {
namespace testing_util {

/// twice_maxdist values of the free-tree differential grid.
inline constexpr int kFreeTwiceMaxdists[] = {0, 1, 2, 3, 5, 8};

/// The SIMD modes the grid runs under: scalar runs the hash kernels,
/// auto the dense tier wherever a tree's labels fit it.
inline constexpr SimdMode kFreeSimdModes[] = {SimdMode::kScalar,
                                              SimdMode::kAuto};

/// Restores the auto dispatch mode when a test scope ends, so a forced
/// mode never leaks into sibling tests.
struct SimdModeGuard {
  ~SimdModeGuard() { SetSimdMode(SimdMode::kAuto); }
};

struct NamedTree {
  std::string name;
  Tree tree;
};

inline int32_t DistinctLabels(const Tree& tree) {
  std::unordered_set<LabelId> seen;
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.has_label(v)) seen.insert(tree.label(v));
  }
  return static_cast<int32_t>(seen.size());
}

/// Yule phylogenies with unlabeled internal nodes, unary chains (some
/// with unlabeled links), one- and two-node trees, a 520-leaf star, and
/// a Yule tree with more than 1,024 distinct labels — past the dense
/// tier's ceiling, so the hash kernels run under every mode.
inline std::vector<NamedTree> FreeTreeShapes() {
  auto labels = std::make_shared<LabelTable>();
  std::vector<NamedTree> shapes;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    YulePhylogenyOptions opts;
    opts.min_nodes = 20;
    opts.max_nodes = 90;
    opts.alphabet_size = 12;
    shapes.push_back({"yule" + std::to_string(seed),
                      GenerateYulePhylogeny(opts, rng, labels)});
  }
  shapes.push_back({"chain", MustParse("((((((a)b)c)a)b)c)a;", labels)});
  shapes.push_back({"gapped_chain", MustParse("((((((a))b)))a)c;", labels)});
  shapes.push_back(
      {"chain_fork", MustParse("((((a,b))c),(((a)b)))a;", labels)});
  shapes.push_back({"one_node", MustParse("a;", labels)});
  shapes.push_back({"two_nodes", MustParse("(a)b;", labels)});
  std::string star = "(";
  for (int i = 0; i < 520; ++i) {
    star += (i == 0 ? "leaf" : ",leaf") + std::to_string(i);
  }
  shapes.push_back({"star520", MustParse(star + ")hub;", labels)});
  Rng rng(1024);
  YulePhylogenyOptions wide;
  wide.min_nodes = 2200;
  wide.max_nodes = 2200;
  wide.alphabet_size = 1000000;
  shapes.push_back({"yule_wide", GenerateYulePhylogeny(wide, rng, labels)});
  return shapes;
}

/// A copy of `tree` with every node's children in a random order (the
/// same unordered tree, renumbered).
inline Tree ShuffleChildren(const Tree& tree, Rng& rng) {
  TreeBuilder b(tree.labels_ptr());
  const NodeId root = tree.root();
  std::vector<std::pair<NodeId, NodeId>> stack = {
      {root, b.AddRoot(tree.has_label(root) ? tree.label_name(root)
                                            : std::string_view{})}};
  while (!stack.empty()) {
    const auto [v, id] = stack.back();
    stack.pop_back();
    std::vector<NodeId> kids = tree.children(v);
    for (size_t i = kids.size(); i > 1; --i) {
      std::swap(kids[i - 1], kids[rng.Uniform(i)]);
    }
    for (NodeId c : kids) {
      stack.push_back({c, b.AddChildWithLabelId(id, tree.label(c))});
    }
  }
  return std::move(b).Build();
}

}  // namespace testing_util
}  // namespace cousins

#endif  // COUSINS_TESTS_FREE_TREE_SHAPES_H_
