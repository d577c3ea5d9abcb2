#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>

namespace perfbench {

int Names::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

int Names::Find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? -1 : it->second;
}

namespace {

class Reader {
 public:
  Reader(std::string_view text, Names* names) : text_(text), names_(names) {}

  bool Forest(std::vector<OTree>* out, std::string* error) {
    while (true) {
      Skip();
      if (pos_ >= text_.size()) return true;
      if (text_[pos_] == ';') {
        ++pos_;
        continue;
      }
      OTree tree;
      if (!Node(-1, 0, &tree)) {
        *error = "malformed Newick near byte " + std::to_string(pos_);
        return false;
      }
      Skip();
      if (pos_ < text_.size() && text_[pos_] != ';') {
        *error = "expected ';' at byte " + std::to_string(pos_);
        return false;
      }
      out->push_back(std::move(tree));
    }
  }

 private:
  void Skip() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\n' || c == '\r' || c == '\t') {
        ++pos_;
      } else if (c == '[') {
        while (pos_ < text_.size() && text_[pos_] != ']') ++pos_;
        ++pos_;
      } else {
        return;
      }
    }
  }

  bool Node(int parent, int depth, OTree* tree) {
    const int id = static_cast<int>(tree->parent.size());
    tree->parent.push_back(parent);
    tree->depth.push_back(depth);
    tree->label.push_back(-1);
    Skip();
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;
      while (true) {
        if (!Node(id, depth + 1, tree)) return false;
        Skip();
        if (pos_ >= text_.size()) return false;
        const char c = text_[pos_++];
        if (c == ')') break;
        if (c != ',') return false;
      }
    }
    Skip();
    std::string name;
    if (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      while (true) {
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == '\'') {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
            name += '\'';
            pos_ += 2;
            continue;
          }
          ++pos_;
          break;
        }
        name += text_[pos_++];
      }
    } else {
      while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
            c == '[' || c == ' ' || c == '\n' || c == '\t' || c == '\r') {
          break;
        }
        name += c;
        ++pos_;
      }
    }
    if (!name.empty()) tree->label[id] = names_->Intern(name);
    Skip();
    if (pos_ < text_.size() && text_[pos_] == ':') {
      ++pos_;
      Skip();
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == '-' ||
              text_[pos_] == '+' || text_[pos_] == 'e' ||
              text_[pos_] == 'E')) {
        ++pos_;
      }
    }
    return true;
  }

  std::string_view text_;
  Names* names_;
  size_t pos_ = 0;
};

// Lowest common ancestor by walking parents, giving up after `limit`
// steps on either side (the pair is then beyond the distance cap).
// Returns -1 when given up.
int BoundedLca(const OTree& t, int u, int v, int limit) {
  int steps_u = 0;
  int steps_v = 0;
  while (t.depth[u] > t.depth[v]) {
    u = t.parent[u];
    if (++steps_u > limit) return -1;
  }
  while (t.depth[v] > t.depth[u]) {
    v = t.parent[v];
    if (++steps_v > limit) return -1;
  }
  while (u != v) {
    u = t.parent[u];
    v = t.parent[v];
    if (++steps_u > limit || ++steps_v > limit) return -1;
  }
  return u;
}

Items RunLength(std::vector<Key>* keys) {
  std::sort(keys->begin(), keys->end());
  Items items;
  for (size_t i = 0; i < keys->size();) {
    size_t j = i;
    while (j < keys->size() && (*keys)[j] == (*keys)[i]) ++j;
    items.emplace_back((*keys)[i], static_cast<int64_t>(j - i));
    i = j;
  }
  return items;
}

// "1.5" / "0" / "0.5": the paper's rendering of a twice-distance.
std::string HalfDistance(int twice) {
  return twice % 2 == 0 ? std::to_string(twice / 2)
                        : std::to_string(twice / 2) + ".5";
}

std::vector<int> LabeledNodes(const OTree& tree) {
  std::vector<int> nodes;
  for (int v = 0; v < static_cast<int>(tree.label.size()); ++v) {
    if (tree.label[v] >= 0) nodes.push_back(v);
  }
  return nodes;
}

}  // namespace

bool ReadForest(std::string_view text, Names* names, std::vector<OTree>* out,
                std::string* error) {
  return Reader(text, names).Forest(out, error);
}

Key MakeKey(int a, int b, int twice) {
  const uint64_t lo = static_cast<uint64_t>(std::min(a, b));
  const uint64_t hi = static_cast<uint64_t>(std::max(a, b));
  return lo << 36 | hi << 8 | static_cast<uint64_t>(twice);
}
int KeyLabelLo(Key key) { return static_cast<int>(key >> 36); }
int KeyLabelHi(Key key) { return static_cast<int>((key >> 8) & 0xFFFFFFF); }
int KeyTwice(Key key) { return static_cast<int>(key & 0xFF); }

Items NaiveCousinItems(const OTree& tree, int twice_max) {
  // The deeper node of a pair at 2d sits (2d + 1) / 2 + 1 levels below
  // the LCA (paper Eq. 1), so no walk needs more steps than that.
  const int limit = (twice_max + 1) / 2 + 1;
  const std::vector<int> nodes = LabeledNodes(tree);
  std::vector<Key> keys;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      const int u = nodes[i];
      const int v = nodes[j];
      if (std::abs(tree.depth[u] - tree.depth[v]) > 1) continue;
      const int w = BoundedLca(tree, u, v, limit);
      if (w < 0) continue;
      const int hu = tree.depth[u] - tree.depth[w];
      const int hv = tree.depth[v] - tree.depth[w];
      if (hu == 0 || hv == 0) continue;
      const int twice = hu == hv ? 2 * (hu - 1) : 2 * std::min(hu, hv) - 1;
      if (twice > twice_max) continue;
      keys.push_back(MakeKey(tree.label[u], tree.label[v], twice));
    }
  }
  return RunLength(&keys);
}

Items NaiveFreeItems(const OTree& tree, int twice_max) {
  const int max_edges = twice_max + 2;
  const std::vector<int> nodes = LabeledNodes(tree);
  std::vector<Key> keys;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      const int u = nodes[i];
      const int v = nodes[j];
      if (std::abs(tree.depth[u] - tree.depth[v]) > max_edges) continue;
      const int w = BoundedLca(tree, u, v, max_edges);
      if (w < 0) continue;
      const int edges =
          tree.depth[u] + tree.depth[v] - 2 * tree.depth[w];
      if (edges < 2 || edges > max_edges) continue;
      keys.push_back(MakeKey(tree.label[u], tree.label[v], edges - 2));
    }
  }
  return RunLength(&keys);
}

void AddItems(const Items& items, int64_t sign, Tally* tally) {
  for (const auto& [key, occurrences] : items) {
    auto& cell = (*tally)[key];
    cell.first += sign;
    cell.second += sign * occurrences;
    if (cell.first == 0) tally->erase(key);
  }
}

std::string TallyCsv(const Names& names, const Tally& tally,
                     int64_t min_support) {
  std::vector<std::string> rows;
  for (const auto& [key, cell] : tally) {
    if (cell.first < min_support) continue;
    std::string a = names.Name(KeyLabelLo(key));
    std::string b = names.Name(KeyLabelHi(key));
    if (b < a) std::swap(a, b);
    rows.push_back(a + "," + b + "," + HalfDistance(KeyTwice(key)) + "," +
                   std::to_string(cell.first) + "," +
                   std::to_string(cell.second) + "\n");
  }
  std::sort(rows.begin(), rows.end());
  std::string out = "label1,label2,distance,support,occurrences\n";
  for (const std::string& row : rows) out += row;
  return out;
}

std::vector<std::vector<int>> Clusters(const OTree& tree) {
  const int n = static_cast<int>(tree.parent.size());
  std::vector<std::vector<int>> below(n);
  // Children follow their parent in preorder, so a reverse sweep sees
  // every child before its parent.
  for (int v = n - 1; v >= 0; --v) {
    if (tree.label[v] >= 0 && below[v].empty()) below[v].push_back(tree.label[v]);
    if (tree.parent[v] >= 0) {
      auto& up = below[tree.parent[v]];
      up.insert(up.end(), below[v].begin(), below[v].end());
    }
  }
  const size_t taxa = LeafLabels(tree).size();
  std::set<std::vector<int>> out;
  for (int v = 0; v < n; ++v) {
    std::sort(below[v].begin(), below[v].end());
    if (below[v].size() >= 2 && below[v].size() < taxa) out.insert(below[v]);
  }
  return {out.begin(), out.end()};
}

std::vector<int> LeafLabels(const OTree& tree) {
  std::vector<bool> internal(tree.parent.size(), false);
  for (int p : tree.parent) {
    if (p >= 0) internal[p] = true;
  }
  std::vector<int> out;
  for (size_t v = 0; v < tree.parent.size(); ++v) {
    if (!internal[v]) out.push_back(tree.label[v]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Similarity(const Items& consensus, const Items& original) {
  auto min_distance = [](const Items& items) {
    std::map<std::pair<int, int>, int> out;
    for (const auto& [key, occurrences] : items) {
      const std::pair<int, int> pair{KeyLabelLo(key), KeyLabelHi(key)};
      auto [it, inserted] = out.emplace(pair, KeyTwice(key));
      if (!inserted) it->second = std::min(it->second, KeyTwice(key));
    }
    return out;
  };
  const auto c = min_distance(consensus);
  const auto t = min_distance(original);
  double score = 0.0;
  for (const auto& [pair, dc] : c) {
    auto it = t.find(pair);
    if (it != t.end()) score += std::exp2(-std::abs(dc - it->second) / 2.0);
  }
  return score;
}

double Distance(const Items& a, const Items& b) {
  int64_t inter = 0;
  int64_t uni = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      uni += a[i++].second;
    } else if (i == a.size() || b[j].first < a[i].first) {
      uni += b[j++].second;
    } else {
      inter += std::min(a[i].second, b[j].second);
      uni += std::max(a[i].second, b[j].second);
      ++i;
      ++j;
    }
  }
  return uni == 0 ? 0.0 : 1.0 - static_cast<double>(inter) / uni;
}

}  // namespace perfbench
