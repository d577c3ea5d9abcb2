// Flat SoA accumulator for forest-wide support tallies — the fold/merge
// hot path of Multiple_Tree_Mining. Replaces the node-based
// unordered_map<CousinPairKey, Tally> the miner used to fold every
// mined item into: a node map pays a heap allocation per distinct pair
// plus a pointer chase per fold, while this open-addressing table keeps
// keys, supports and occurrence counts in three parallel flat arrays
// (structure-of-arrays), so the probe stream touches one dense key
// array and the counters it updates stay on their own cache lines.
//
// Keys are packed label pairs (PackLabelPair in pair_count_map.h):
// labels are interned into dense uint32 ids forest-wide, so a canonical
// unordered pair fits one uint64 and hashing is a single integer mix —
// no string or struct hashing anywhere in the fold. The cousin distance
// is NOT part of the key: the miner keeps one table per distance value
// (distances are small integers bounded by twice_maxdist), which keeps
// the key dense and makes per-distance iteration free.
//
// One class template serves every forest tally. TallyMap keys on the
// packed pair alone (cousin and free-tree variants); AuxTallyMap keys
// on the pair plus a 32-bit aux word, for the variants whose item
// identity does not fit (table, label pair): the generalized miner
// packs (h, v) into the aux word, the weighted miner its weight bucket.
// The aux word is mixed into the probe hash so entries sharing a label
// pair but differing in kinship/bucket spread apart; for the pair-only
// key the aux term is a constant zero and compiles away.

#ifndef COUSINS_CORE_TALLY_MAP_H_
#define COUSINS_CORE_TALLY_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/overflow.h"

namespace cousins {
namespace internal {

/// (packed label pair, aux word) composite key of AuxTallyMap.
struct AuxKey {
  uint64_t pair = 0;
  uint32_t aux = 0;
  friend bool operator==(const AuxKey&, const AuxKey&) = default;
};

/// Cumulative accounting of hash-table work. `grows` counts
/// load-factor-triggered rehashes and is maintained unconditionally
/// (it backs a regression test that presizing makes growth a no-op
/// on forest workloads); `probes` is telemetry-only.
struct TallyStats {
  int64_t probes = 0;  // slots inspected across all Add calls
  int64_t grows = 0;   // reactive (load-factor) rehashes
};

/// key -> (support, total_occurrences) with linear probing over
/// power-of-two capacity. `Key` is uint64_t (packed label pair) or
/// AuxKey. Counted deletion (Subtract, the RETRACT primitive of the
/// resident daemon) can leave zero-net slots behind: they keep
/// occupying their probe slot (erasing from a linear-probe chain would
/// break lookups for keys probing past them) but are invisible to
/// ForEach/live() and are purged on the next rehash, exactly the
/// PairCountMap discipline — growth only doubles capacity when the
/// *live* entries genuinely crowd the table, so a subtract-heavy
/// workload cannot ratchet capacity upward.
template <typename Key>
class TallyTable {
 public:
  using Stats = TallyStats;

  /// Bytes one slot occupies across the SoA arrays (memory budgets).
  static constexpr size_t kSlotBytes =
      sizeof(Key) + sizeof(int32_t) + sizeof(int64_t);

  /// Default construction allocates nothing; the table materializes on
  /// the first Add or ReserveLive.
  TallyTable() = default;

  /// Ensures capacity for `live` entries without a reactive grow:
  /// capacity becomes the smallest power of two keeping the load
  /// factor under 0.7. Never shrinks. Rehashes in place when the
  /// table already holds entries; such presizes are not counted as
  /// `grows`.
  void ReserveLive(size_t live) {
    size_t capacity = kMinCapacity;
    while (live * 10 >= capacity * 7) capacity *= 2;
    if (capacity > keys_.size()) Rehash(capacity);
  }

  /// Folds (support_delta, occ_delta) into `key`, inserting it if new.
  /// Saturating adds: adversarial corpora clamp instead of wrapping.
  /// Returns the live-entry delta: +1 when the key was newly inserted
  /// (or a zero-net slot was revived), 0 otherwise — callers keep
  /// their live-tally accounting by summing the return values of Add
  /// and Subtract.
  int Add(Key key, int32_t support_delta, int64_t occ_delta) {
    if (keys_.empty()) Rehash(kMinCapacity);
    COUSINS_METRICS_ONLY(++stats_.probes;)
    size_t i = Slot(key);
    while (PairOf(keys_[i]) != kEmpty) {
      if (keys_[i] == key) {
        const bool was_dead = supports_[i] == 0 && occurrences_[i] == 0;
        supports_[i] = SaturatingAddInt(supports_[i], support_delta);
        occurrences_[i] = SaturatingAdd(occurrences_[i], occ_delta);
        if (was_dead && !(supports_[i] == 0 && occurrences_[i] == 0)) {
          ++live_;
          return 1;
        }
        return 0;
      }
      COUSINS_METRICS_ONLY(++stats_.probes;)
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    supports_[i] = support_delta;
    occurrences_[i] = occ_delta;
    const int delta = (support_delta == 0 && occ_delta == 0) ? 0 : 1;
    live_ += delta;
    if (++size_ * 10 >= keys_.size() * 7) Grow();
    return delta;
  }

  /// Counted deletion: subtracts (support_delta, occ_delta) from `key`,
  /// clamping both counters at zero (SaturatingSub-to-zero — retracting
  /// more than was ever added cannot wrap into negative support). A key
  /// that was never added is a no-op. Returns the live-entry delta:
  /// -1 when the entry netted out to zero on this call, 0 otherwise.
  int Subtract(Key key, int32_t support_delta, int64_t occ_delta) {
    if (keys_.empty()) return 0;
    COUSINS_METRICS_ONLY(++stats_.probes;)
    size_t i = Slot(key);
    while (PairOf(keys_[i]) != kEmpty) {
      if (keys_[i] == key) {
        const bool was_dead = supports_[i] == 0 && occurrences_[i] == 0;
        const int64_t s =
            static_cast<int64_t>(supports_[i]) - support_delta;
        supports_[i] = s < 0 ? 0 : static_cast<int32_t>(s);
        const int64_t o = SaturatingSub(occurrences_[i], occ_delta);
        occurrences_[i] = o < 0 ? 0 : o;
        if (!was_dead && supports_[i] == 0 && occurrences_[i] == 0) {
          --live_;
          return -1;
        }
        return 0;
      }
      COUSINS_METRICS_ONLY(++stats_.probes;)
      i = (i + 1) & mask_;
    }
    return 0;
  }

  /// Issues a software prefetch for `key`'s home slot so a later Add
  /// finds the probe line resident. The fold loop runs this a few
  /// items ahead of the item it is folding.
  void PrefetchKey(Key key) const {
    if (keys_.empty()) return;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&keys_[Slot(key)], 1 /*write*/, 1);
#endif
  }

  /// Empties the table keeping its capacity — the per-tree variant
  /// scratch is cleared between trees so steady-state mining stays
  /// allocation-free (mirrors PairCountMap::Clear).
  void Clear() {
    size_ = 0;
    live_ = 0;
    keys_.assign(keys_.size(), Key{kEmpty});
  }

  /// Number of occupied slots, including zero-net ones awaiting purge
  /// (drives the load factor).
  size_t size() const { return size_; }

  /// Number of entries visible to ForEach (occupied minus zero-net).
  size_t live() const { return live_; }

  /// Current slot count (zero before first use, else a power of two).
  size_t capacity() const { return keys_.size(); }

  const Stats& stats() const { return stats_; }

  /// Invokes fn(key, support, occurrences) for every live entry
  /// (unspecified order); zero-net slots are skipped.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (PairOf(keys_[i]) == kEmpty) continue;
      if (supports_[i] == 0 && occurrences_[i] == 0) continue;
      fn(keys_[i], supports_[i], occurrences_[i]);
    }
  }

 private:
  /// Empty-slot marker in the pair word (never a valid packed pair).
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 64;

  static uint64_t PairOf(uint64_t key) { return key; }
  static uint64_t PairOf(const AuxKey& key) { return key.pair; }
  static uint32_t AuxOf(uint64_t /*key*/) { return 0; }
  static uint32_t AuxOf(const AuxKey& key) { return key.aux; }

  size_t Slot(Key key) const {
    uint64_t h = PairOf(key) ^ (static_cast<uint64_t>(AuxOf(key)) << 16);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(h ^ (h >> 31)) & mask_;
  }

  /// Load-factor response, purge-before-grow (the PairCountMap fix):
  /// rehashing drops zero-net slots, so capacity only doubles when the
  /// live entries alone would keep the table over half full.
  void Grow() {
    ++stats_.grows;
    const size_t capacity = keys_.size();
    Rehash(live_ * 2 >= capacity ? capacity * 2 : capacity);
  }

  void Rehash(size_t capacity) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<int32_t> old_supports = std::move(supports_);
    std::vector<int64_t> old_occurrences = std::move(occurrences_);
    keys_.assign(capacity, Key{kEmpty});
    supports_.assign(capacity, 0);
    occurrences_.assign(capacity, 0);
    mask_ = capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (PairOf(old_keys[i]) == kEmpty) continue;
      if (old_supports[i] == 0 && old_occurrences[i] == 0) continue;
      size_t j = Slot(old_keys[i]);
      while (PairOf(keys_[j]) != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      supports_[j] = old_supports[i];
      occurrences_[j] = old_occurrences[i];
      ++size_;
    }
    live_ = size_;
  }

  std::vector<Key> keys_;
  std::vector<int32_t> supports_;
  std::vector<int64_t> occurrences_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t live_ = 0;
  Stats stats_;
};

/// Cousin and free-tree forest tally: packed label pair keys.
using TallyMap = TallyTable<uint64_t>;
/// Generalized and weighted forest tally: (pair, aux word) keys.
using AuxTallyMap = TallyTable<AuxKey>;

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_TALLY_MAP_H_
