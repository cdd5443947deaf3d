#!/usr/bin/env bash
# CI matrix for the GNRFET repo. Runs every gate the project defines:
#
#   werror    -Wall -Wextra -Werror build + full test suite (the lint
#             tests included)
#   asan-ubsan  AddressSanitizer + UndefinedBehaviorSanitizer test run
#   tsan      ThreadSanitizer run of every test that runs threads: the
#             *Parallel* suites plus the two tests that start their own
#             std::threads (concurrent saves of one table path, concurrent
#             failing DesignKit resolutions)
#   trace     fast suite under GNRFET_TRACE: the emitted Chrome trace JSON
#             must parse and summarize through gnrfet_trace_report, the
#             --json rollup must report spans from every core subsystem,
#             and the text report must derive the MNA factorizations per
#             transient step, the elimination updates per factorization,
#             and the reduced-CG iterations per Newton step and µs per
#             iteration; --json on perfbench's fixture trace must match
#             its fixture report on every key but "trace" (the shape
#             perfbench/rollup.py reads); and the same traced filter with
#             GNRFET_TRACE under a regular file must exit non-zero and
#             name the path (an unwritable trace is an error, not lost)
#   perf-smoke  the timed PerfGate.* tests, which ctest leaves out: the
#               two-sweep batched RGF kernel holds >= 2.46x the rate of the
#               three-sweep scalar oracle (1.5x once the oracle's drain
#               sweep, 39% of its time, is discounted) and uses the fast
#               reciprocal, and the row-blocked dense matvec holds >= 1.3x
#               the one-row loop's rate at n = 496. The deterministic perf
#               gates (IC(0) below Jacobi in PCG iterations, reduced Newton
#               vs the full-grid oracle, the reduced-CG iteration count of
#               those oracle systems (at most half an exact CG's), the
#               energy-grid accuracy, the MNA replay counters) are tier-1
#               tests: the werror and asan-ubsan stages run them.
#   analyze   every gnrfet_analyze pass: layering DAG, determinism rules,
#             contract-coverage baseline, library env knobs, repo rules;
#             plus perfbench's Python self-tests (rollup, checks, run.py
#             helpers)
#   thread-safety  clang -Wthread-safety -Werror=thread-safety build over the
#             capability annotations in src/common/annotations.hpp (skipped
#             when clang++ is not installed; gcc ignores the annotations)
#   tidy      clang-tidy over all translation units (skipped when clang-tidy
#             is not installed)
#
# Usage:
#   tools/ci_checks.sh               # run the full matrix
#   tools/ci_checks.sh werror tsan   # run selected stages
#
# Stages with their own flags configure their own build tree under
# build-ci-<stage>, so they never contaminate each other's flags. trace,
# perf-smoke and analyze want the same plain Release build, so they share
# build-ci-release, configured and built once per run. Configure output
# goes to configure.log inside each tree. Exits non-zero on the first
# failure.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
ALL_STAGES=(werror asan-ubsan tsan trace perf-smoke analyze thread-safety tidy)
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=("${ALL_STAGES[@]}")
fi

banner() { printf '\n=== ci_checks: %s ===\n' "$1"; }

configure_and_build() {
  local dir="$1"
  shift
  # The log lives inside the build tree: nothing to litter the repo root
  # with, and `rm -rf build-ci-*` removes stage and log together.
  mkdir -p "$dir"
  cmake -B "$dir" -S "$ROOT" "$@" >"$dir/configure.log" 2>&1 ||
    { cat "$dir/configure.log"; return 1; }
  cmake --build "$dir" -j "$JOBS"
}

RELEASE_DIR="$ROOT/build-ci-release"
release_built=0
release_tree() {
  if [ "$release_built" -eq 0 ]; then
    configure_and_build "$RELEASE_DIR" -DCMAKE_BUILD_TYPE=Release
    release_built=1
  fi
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    werror)
      banner "warnings-as-errors build + full suite (lint included)"
      configure_and_build "$ROOT/build-ci-werror" -DGNRFET_WERROR=ON
      ctest --test-dir "$ROOT/build-ci-werror" -j "$JOBS" --output-on-failure
      ;;
    asan-ubsan)
      banner "address,undefined sanitizers"
      configure_and_build "$ROOT/build-ci-asan" \
        -DGNRFET_SANITIZE=address,undefined -DGNRFET_WERROR=ON
      ctest --test-dir "$ROOT/build-ci-asan" -j "$JOBS" --output-on-failure
      ;;
    tsan)
      banner "thread sanitizer on the tests that run threads"
      configure_and_build "$ROOT/build-ci-tsan" -DGNRFET_SANITIZE=thread
      TSAN_TESTS='Parallel'
      TSAN_TESTS+='|^TableGen\.ConcurrentSavesOfOnePathLeaveOneWholeFile$'
      TSAN_TESTS+='|^DesignKit\.FailedResolutionLeavesNoEntryAndRetries$'
      ctest --test-dir "$ROOT/build-ci-tsan" -R "$TSAN_TESTS" -j "$JOBS" --output-on-failure
      ;;
    trace)
      banner "tracing enabled end-to-end: emit, parse, report"
      release_tree
      TRACE_JSON="$RELEASE_DIR/ci_trace.json"
      rm -f "$TRACE_JSON"
      # Real self-consistent and circuit solves (device -> poisson -> negf
      # -> linalg, plus circuit DC/transient) traced end-to-end; skips the
      # trace unit tests themselves, which reset the global buffers.
      GNRFET_TRACE="$TRACE_JSON" "$RELEASE_DIR/tests/gnrfet_tests" \
        --gtest_filter='SelfConsistent.*:Dc.*:Transient.*'
      test -s "$TRACE_JSON" || { echo "trace stage: no trace written" >&2; exit 1; }
      # Subsystem coverage is asserted against the report tool's --json
      # rollup (one machine-readable object) instead of grepping the raw
      # Chrome trace: the gate now also proves the aggregation pipeline.
      REPORT_JSON="$RELEASE_DIR/ci_trace_report.json"
      "$RELEASE_DIR/tools/gnrfet_trace_report" --json "$TRACE_JSON" >"$REPORT_JSON"
      test -s "$REPORT_JSON" || { echo "trace stage: --json produced no output" >&2; exit 1; }
      for cat in negf poisson device circuit linalg; do
        grep -q "\"subsystem\":\"$cat\"" "$REPORT_JSON" ||
          { echo "trace stage: no spans from subsystem '$cat' in --json rollup" >&2; exit 1; }
      done
      REPORT_TEXT="$("$RELEASE_DIR/tools/gnrfet_trace_report" "$TRACE_JSON")"
      echo "$REPORT_TEXT"
      # The Transient.* tests step transients and the SelfConsistent.*
      # tests run the reduced-Poisson CG, so every derived row prints.
      for row in "per step" "per factorization" "per Newton step" "µs per iteration"; do
        grep -q "^    $row " <<<"$REPORT_TEXT" ||
          { echo "trace stage: no '$row' row in the text report" >&2; exit 1; }
      done
      # The --json shape perfbench/rollup.py reads, pinned by its fixture.
      "$RELEASE_DIR/tools/gnrfet_trace_report" --json \
        "$ROOT/perfbench/tests/fixture_trace.json" | python3 -c '
import json, sys
got = json.load(sys.stdin)
want = json.load(open(sys.argv[1]))
got.pop("trace"); want.pop("trace")
sys.exit(0 if got == want else "trace stage: --json on the fixture trace differs from fixture_report.json")
' "$ROOT/perfbench/tests/fixture_report.json"
      # A trace path that cannot be opened fails the run and names itself.
      BLOCKER="$RELEASE_DIR/not_a_directory"
      rm -rf "$BLOCKER"
      : >"$BLOCKER"
      if BAD_OUT="$(GNRFET_TRACE="$BLOCKER/t.json" "$RELEASE_DIR/tests/gnrfet_tests" \
          --gtest_filter='SelfConsistent.*:Dc.*:Transient.*' 2>&1)"; then
        echo "trace stage: an unwritable GNRFET_TRACE exited 0" >&2; exit 1
      fi
      grep -qF "$BLOCKER/t.json" <<<"$BAD_OUT" ||
        { echo "trace stage: the unwritable-trace error does not name the path" >&2; exit 1; }
      ;;
    perf-smoke)
      banner "timed PerfGate tests (batched RGF >= 1.5x the scalar oracle's two sweeps, blocked matvec >= 1.3x one-row)"
      release_tree
      PERF_OUT="$("$RELEASE_DIR/tests/gnrfet_tests" --gtest_filter='PerfGate.*')" ||
        { echo "$PERF_OUT"; exit 1; }
      echo "$PERF_OUT"
      # A filter that matches nothing passes: make sure the gate ran.
      grep -q '^\[  PASSED  \] [1-9]' <<<"$PERF_OUT" ||
        { echo "perf-smoke: no PerfGate test ran" >&2; exit 1; }
      ;;
    analyze)
      banner "static analysis: layering/determinism/contract/env-knob/repo-rules passes + perfbench self-tests"
      release_tree
      "$RELEASE_DIR/tools/gnrfet_analyze" "$ROOT"
      (cd "$ROOT" && PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench/tests)
      ;;
    thread-safety)
      if ! command -v clang++ >/dev/null 2>&1; then
        banner "clang++ not installed; skipping thread-safety stage"
        continue
      fi
      banner "clang -Wthread-safety over the capability annotations"
      # The build is the check: -Werror=thread-safety fails it on any
      # GNRFET_GUARDED_BY/GNRFET_REQUIRES violation.
      configure_and_build "$ROOT/build-ci-tsafety" \
        -DCMAKE_CXX_COMPILER=clang++ -DGNRFET_THREAD_SAFETY=ON
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        banner "clang-tidy not installed; skipping tidy stage"
        continue
      fi
      banner "clang-tidy"
      configure_and_build "$ROOT/build-ci-tidy" -DGNRFET_CLANG_TIDY=ON
      ;;
    *)
      echo "ci_checks: unknown stage '$stage'" >&2
      echo "known stages: ${ALL_STAGES[*]}" >&2
      exit 2
      ;;
  esac
done

banner "all requested stages passed"
