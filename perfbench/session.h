// One closed-loop daemon session: INGEST batches; after each, a few
// `QUERY frequent-pairs` listings and several `QUERY support` calls on
// pairs from the latest listing, in the orientation it shows; a RETRACT
// every fourth batch and one COMPACT midway. Every reply is checked
// against a model of the acknowledged state, which adds and subtracts
// the naive miner's tallies of each acked batch. The transport is
// either the real Unix socket (session.cc) or in-process
// CousinService::Handle (the traced run).
#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "oracle.h"

namespace perfbench {

struct SessionPlan {
  int batches = 32;
  int batch_size = 16;
  int listings = 2;   // per batch
  int supports = 12;  // per batch
  uint64_t seed = 1;
};

/// Batch payloads and their oracle tallies, built before any timing.
struct SessionInputs {
  std::vector<std::string> payloads;
  std::vector<Tally> tallies;
  Names names;
};

/// Splits the first batches * batch_size trees of `forest` (one tree
/// per line) into payloads and mines each with the naive miner.
bool BuildSessionInputs(const std::string& forest, const SessionPlan& plan,
                        SessionInputs* inputs, std::string* error);

/// The acked state: tallies plus the count of keys at support >= 2.
class SessionModel {
 public:
  void Apply(const Tally& batch, int64_t sign);
  /// Checks a `frequent-pairs` reply; fills `rows` with its data rows.
  bool CheckListing(const Names& names, const std::string& csv,
                    std::vector<std::string_view>* rows,
                    std::string* why) const;
  /// Checks a `support` reply for `row`'s key against the model.
  bool CheckSupport(const Names& names, std::string_view row,
                    const std::string& csv, std::string* why) const;

 private:
  Tally tally_;
  int64_t frequent_ = 0;
};

struct SessionStats {
  std::vector<double> ingest_ms;
  std::vector<double> support_ms;
  std::vector<double> listing_ms;
  double ingest_s = 0;
  int64_t trees_acked = 0;
  int64_t payload_bytes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;    // wrong answers
  std::vector<std::string> failures;  // refused or lost requests
};

/// Sends one request body, fills the raw reply body; false on a
/// transport failure.
using Transport = std::function<bool(const std::string&, std::string*)>;

/// Runs the plan over `send`, timing each request around the transport
/// call only. Leaves the final acked state in `model`.
void DriveSession(const SessionPlan& plan, SessionInputs& inputs,
                  const Transport& send, SessionStats* stats,
                  SessionModel* model);

/// Splits a reply body into its status line and payload.
bool ReplyOk(const std::string& reply, std::string* payload);

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
