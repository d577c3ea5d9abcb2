#!/usr/bin/env bash
# Sanitizer lanes for the tier-1 suite: builds the tree (tests
# included) under a sanitizer via the COUSINS_SANITIZE knob and runs
# the tests in each lane. Mirrors the CMakePresets.json asan/ubsan/tsan
# presets for environments whose cmake predates presets.
#
#   tools/run_sanitized_tests.sh            # address and undefined
#   tools/run_sanitized_tests.sh address    # one lane
#   tools/run_sanitized_tests.sh undefined
#   tools/run_sanitized_tests.sh thread     # the concurrent suites only
#
# The thread lane builds and runs only the suites that drive threads
# against shared state: the daemon (snapshot cell, connection threads,
# admission), the daemon fault sweep, the work-stealing driver, the
# parallel miner, every variant through the threaded and checkpointed
# drivers (variant pipeline) and the watchdog and lenient paths
# (degraded mining), and the per-thread scratch of one-shot mining
# (single-tree mining, Eq. 5 scoring). halt_on_error makes any report
# fail the lane.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
lanes=("${@:-address undefined}")
[[ $# -eq 0 ]] && lanes=(address undefined)

thread_tests=(svc_test fault_sweep_test work_stealing_test
              parallel_mining_test variant_pipeline_test
              degraded_mining_test similarity_test single_mining_test)

for lane in "${lanes[@]}"; do
  build="$repo/build-${lane/,/-}san"
  echo "=== sanitizer lane: $lane ($build) ==="
  cmake -B "$build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCOUSINS_SANITIZE="$lane"
  if [[ "$lane" == thread ]]; then
    cmake --build "$build" -j "$jobs" --target "${thread_tests[@]}"
    for test in "${thread_tests[@]}"; do
      echo "--- $test"
      TSAN_OPTIONS="halt_on_error=1" "$build/tests/$test"
    done
    continue
  fi
  cmake --build "$build" -j "$jobs"
  # halt_on_error makes UBSan findings fail the test instead of just
  # printing; leak detection is ASan's default on Linux but stated here
  # so the lane's contract is explicit.
  ASAN_OPTIONS="detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "$build" -j "$jobs" --output-on-failure
done
echo "=== all sanitizer lanes passed ==="
