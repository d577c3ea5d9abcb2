// Open-addressing counter keyed by packed label pairs — the hot-path
// accumulator of the fast miner. A general-purpose unordered_map spends
// most of the mining time hashing; this linear-probing table with a
// 64-bit packed key is ~an order of magnitude cheaper.

#ifndef COUSINS_CORE_PAIR_COUNT_MAP_H_
#define COUSINS_CORE_PAIR_COUNT_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tree/label_table.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/overflow.h"

namespace cousins {
namespace internal {

/// Packs an unordered label pair canonically (min in the high word).
/// Labels are non-negative, so the all-ones empty sentinel is safe.
inline uint64_t PackLabelPair(LabelId a, LabelId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

inline LabelId UnpackFirst(uint64_t key) {
  return static_cast<LabelId>(key >> 32);
}
inline LabelId UnpackSecond(uint64_t key) {
  return static_cast<LabelId>(key & 0xFFFFFFFFu);
}

/// key -> int64 counter with linear probing; supports negative deltas
/// (inclusion–exclusion) as long as final counts are non-negative.
/// Entries whose count nets to exactly zero are invisible to ForEach
/// and are purged whenever the table rehashes, so alternating +/-
/// delta streams cannot inflate the load factor: the table only grows
/// when entries with nonzero counts genuinely crowd it.
class PairCountMap {
 public:
  /// Cumulative accounting of hash-table work. `rehashes` (reactive
  /// growth/purge rehashes, initial alloc excluded) is maintained
  /// unconditionally — it backs the regression test that accumulator
  /// reuse plus capacity presizing makes Grow a steady-state no-op;
  /// `probes` is telemetry-only.
  struct Stats {
    int64_t probes = 0;    // slots inspected across all Add calls
    int64_t rehashes = 0;  // growth/purge rehashes (initial alloc excluded)
  };

  PairCountMap() { Rehash(64); }

  /// Pre-sized construction: capacity is the smallest power of two
  /// that keeps `live_hint` entries under the 0.7 load-factor
  /// threshold, so a workload whose distinct-pair count is known (e.g.
  /// bounded by the forest label-table cardinality) never triggers a
  /// reactive Grow.
  explicit PairCountMap(size_t live_hint) {
    size_t capacity = 64;
    while (live_hint * 10 >= capacity * 7) capacity *= 2;
    Rehash(capacity);
  }

  void Add(uint64_t key, int64_t delta) {
    if (delta == 0) return;
    COUSINS_METRICS_ONLY(++stats_.probes;)
    size_t i = Slot(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) {
        // Saturating: adversarial corpora must clamp, not wrap into
        // negative counts (which ForEach would then drop as zero-net).
        values_[i] = SaturatingAdd(values_[i], delta);
        return;
      }
      COUSINS_METRICS_ONLY(++stats_.probes;)
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = delta;
    if (++size_ * 10 >= keys_.size() * 7) Grow();
  }

  /// Issues a software prefetch for `key`'s home slot so a later Add
  /// finds the probe line resident. The batched fold kernels run this
  /// a group of keys ahead of the key they are folding.
  void PrefetchKey(uint64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    const size_t i = Slot(key);
    __builtin_prefetch(&keys_[i], 1 /*write*/, 1);
    __builtin_prefetch(&values_[i], 1 /*write*/, 1);
#endif
  }

  /// Occupied slots, including zero-net entries not yet purged by a
  /// rehash; an upper bound on the number of entries ForEach visits.
  size_t size() const { return size_; }

  /// Current slot count (always a power of two).
  size_t capacity() const { return keys_.size(); }

  /// Cumulative probe/rehash counts. `probes` is always zero when
  /// telemetry is compiled out (COUSINS_METRICS=OFF); `rehashes` is
  /// counted in every build.
  const Stats& stats() const { return stats_; }

  /// Invokes fn(key, count) for every entry with count != 0
  /// (unspecified order). Zero-net entries are skipped.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty && values_[i] != 0) fn(keys_[i], values_[i]);
    }
  }

  void Clear() {
    size_ = 0;
    keys_.assign(keys_.size(), kEmpty);
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  size_t Slot(uint64_t key) const {
    uint64_t h = key;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(h ^ (h >> 31)) & mask_;
  }

  /// Load factor hit 0.7. Rehashing purges zero-net entries, so double
  /// the capacity only when live (nonzero) entries alone would keep the
  /// table more than half full after the purge.
  void Grow() {
    // The accumulator's only allocation point after construction —
    // where a real std::bad_alloc would surface on adversarial corpora.
    COUSINS_FAULT_POINT("paircount.grow");
    ++stats_.rehashes;
    size_t live = 0;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty && values_[i] != 0) ++live;
    }
    size_t capacity = keys_.size();
    if (live * 2 >= capacity) capacity *= 2;
    Rehash(capacity);
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int64_t> old_values = std::move(values_);
    keys_.assign(capacity, kEmpty);
    values_.assign(capacity, 0);
    mask_ = capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty && old_values[i] != 0) {
        Add(old_keys[i], old_values[i]);
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<int64_t> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
  Stats stats_;
};

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_PAIR_COUNT_MAP_H_
