// The benchmark's own reference computations, written apart from the
// library: a Newick reader, naive all-pairs miners for the cousin
// distance (paper Fig. 2) and the free-tree distance (Eq. 7), cluster
// counts for the strict and majority consensus, and the Eq. 4-6 scores.
// Nothing here includes a library header, so a fault in the program
// cannot also hide in its check.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Label names interned in first-seen order.
class Names {
 public:
  int Intern(std::string_view name);
  /// -1 when the name was never interned.
  int Find(std::string_view name) const;
  const std::string& Name(int id) const { return names_[id]; }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };
  std::unordered_map<std::string, int, Hash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

/// A rooted tree: node 0 is the root, label -1 means unlabeled.
struct OTree {
  std::vector<int> parent;
  std::vector<int> depth;
  std::vector<int> label;
};

/// Reads a ';'-separated Newick forest (quoted labels, branch lengths
/// and [comments] are accepted). Returns false with `error` set on
/// malformed text.
bool ReadForest(std::string_view text, Names* names, std::vector<OTree>* out,
                std::string* error);

/// An item key: canonical (lo, hi) label ids and twice the distance.
using Key = uint64_t;
Key MakeKey(int a, int b, int twice);
int KeyLabelLo(Key key);
int KeyLabelHi(Key key);
int KeyTwice(Key key);

/// One tree's items: key -> occurrences, sorted by key.
using Items = std::vector<std::pair<Key, int64_t>>;

/// Fig. 2: every pair of distinct labeled nodes, neither an ancestor of
/// the other, with heights hu, hv below their LCA, |hu - hv| <= 1 and
/// 2d = 2(min - 1) + |hu - hv| <= twice_max.
Items NaiveCousinItems(const OTree& tree, int twice_max);
/// Eq. 7: every pair of distinct labeled nodes whose path has n >= 2
/// edges, at 2d = n - 2 <= twice_max.
Items NaiveFreeItems(const OTree& tree, int twice_max);

/// Forest tally: key -> (support, total occurrences).
using Tally = std::unordered_map<Key, std::pair<int64_t, int64_t>>;
void AddItems(const Items& items, int64_t sign, Tally* tally);

/// "a,b,d,support,occurrences" rows (names in byte order within a row)
/// of every key with support >= min_support, sorted; with a header.
std::string TallyCsv(const Names& names, const Tally& tally,
                     int64_t min_support);

/// Non-trivial clusters (2 <= size < taxa) of a leaf-labeled tree, each
/// as the sorted label ids below an internal node.
std::vector<std::vector<int>> Clusters(const OTree& tree);
/// Leaf label ids, sorted.
std::vector<int> LeafLabels(const OTree& tree);

/// Eq. 4 over two item lists (minimum distance per label pair).
double Similarity(const Items& consensus, const Items& original);
/// Eq. 6 with min/max multiset semantics over full items.
double Distance(const Items& a, const Items& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
