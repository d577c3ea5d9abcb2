// Scheduler and accumulator telemetry for the parallel mining hot
// path. Mirrors obs/governance_events.h: core code calls these tiny
// inline recorders so the metric names live in one place and the util/
// core layers keep no direct dependency on registry plumbing. All
// recorders compile to nothing under COUSINS_METRICS=OFF.
//
// Counters:
//   sched.steals   — successful work-stealing transfers (a thief
//                    acquired chunks from a victim's deque)
//   sched.idle_ns  — wall nanoseconds workers spent out of work
//                    (searching victims or draining empty deques)
// Histogram:
//   accum.probe_len — mean open-addressing probe chain length per
//                     fold batch (one sample per fully-folded tree),
//                     the health signal of the SoA tally accumulator:
//                     growth in this histogram means the table is
//                     clustering and presizing needs a revisit.

#ifndef COUSINS_OBS_SCHED_EVENTS_H_
#define COUSINS_OBS_SCHED_EVENTS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace cousins::obs {

/// Records `count` successful steals by a worker.
inline void RecordSchedSteals(int64_t count) {
  if (count > 0) COUSINS_METRIC_COUNTER_ADD("sched.steals", count);
}

/// Records wall time a worker spent without work.
inline void RecordSchedIdleNs(int64_t nanos) {
  if (nanos > 0) COUSINS_METRIC_COUNTER_ADD("sched.idle_ns", nanos);
}

/// Records the mean probe chain length of one fold batch (`probes`
/// slots inspected across `adds` accumulator adds).
inline void RecordAccumProbeLen([[maybe_unused]] int64_t probes,
                                int64_t adds) {
  if (adds > 0) {
    COUSINS_METRIC_HISTOGRAM_RECORD("accum.probe_len", probes / adds);
  }
}

}  // namespace cousins::obs

#endif  // COUSINS_OBS_SCHED_EVENTS_H_
