// RCU-style query snapshot of the resident miner. After every applied
// mutation (ingest batch, retraction, WAL replay) the daemon collects
// the miner's tallies into an immutable ServiceSnapshot and atomically
// publishes it; queries load the current pointer and read without any
// coordination with in-flight ingest — a query observes either the
// state before a batch or after it, never a half-folded table.
//
// A snapshot holds the variant's tally rows in canonical key order
// (label1, label2, then the variant's key fields) and a label view —
// an immutable copy of the label table, shared between snapshots until
// ingest interns a new label. Publishing renders no CSV:
//   * QUERY support binary-searches the rows for the label pair and
//     renders only the rows it returns;
//   * QUERY frequent-pairs renders the listing on its first call for a
//     snapshot and serves the cached bytes after that.
// Queries never touch the daemon's live label table, which ingest
// interns into without the readers' knowledge.
//
// The cell is a mutex-guarded shared_ptr rather than
// std::atomic<shared_ptr> for portability; the critical section is two
// pointer operations, so readers never block for longer than a swap.

#ifndef COUSINS_SVC_SNAPSHOT_H_
#define COUSINS_SVC_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/multi_tree_mining.h"
#include "tree/label_table.h"

namespace cousins::svc {

/// Every tally of the miner's variant, in canonical key order.
using TallyRows = std::variant<std::vector<FrequentCousinPair>,
                               std::vector<FrequentGeneralizedPair>,
                               std::vector<FrequentWeightedPair>>;

/// Immutable view of the miner at one publish point. The query methods
/// are defined in daemon.cc.
struct ServiceSnapshot {
  /// Monotone publish counter (0 = the empty pre-ingest snapshot).
  int64_t version = 0;
  int64_t trees = 0;
  int64_t live_batches = 0;
  int64_t tallies = 0;
  int min_support = 0;
  TallyRows rows;
  /// The label table as of this publish; every id in `rows` names an
  /// entry of it.
  std::shared_ptr<const LabelTable> labels =
      std::make_shared<const LabelTable>();

  /// The QUERY frequent-pairs reply (the byte-comparison target of the
  /// crash drill): the rows with support >= min_support, by descending
  /// support then key order. Rendered once, on the first call.
  const std::string& FrequentCsv() const;

  /// The QUERY support reply: the CSV header, then the rows of the
  /// label pair (either order) whose third rendered field — the
  /// distance, or the generalized horizontal — equals `field3`, in key
  /// order. Labels are given in their rendered CSV form (a label that
  /// needs quoting is asked for quoted).
  std::string SupportCsv(std::string_view label1, std::string_view label2,
                         std::string_view field3) const;

 private:
  mutable std::once_flag frequent_once_;
  mutable std::string frequent_csv_;
};

/// The publish/load cell.
class SnapshotCell {
 public:
  SnapshotCell()
      : current_(std::make_shared<const ServiceSnapshot>()) {}

  std::shared_ptr<const ServiceSnapshot> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  void Store(std::shared_ptr<const ServiceSnapshot> next) {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(next);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServiceSnapshot> current_;
};

}  // namespace cousins::svc

#endif  // COUSINS_SVC_SNAPSHOT_H_
