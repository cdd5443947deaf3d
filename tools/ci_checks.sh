#!/usr/bin/env bash
# CI matrix for the GNRFET repo. Runs every gate the project defines:
#
#   werror    -Wall -Wextra -Werror build + full test suite + lint label
#   asan-ubsan  AddressSanitizer + UndefinedBehaviorSanitizer test run
#   tsan      ThreadSanitizer run of the parallel determinism suites
#   trace     fast suite under GNRFET_TRACE: the emitted Chrome trace JSON
#             must parse and summarize through gnrfet_trace_report, and the
#             --json rollup must report spans from every core subsystem
#   perf-smoke  Poisson PCG microbench on a reduced grid (and its 2x
#               refinement) with the production IC(0) preconditioner and
#               the Jacobi reference; asserts IC(0) needs fewer total
#               iterations than Jacobi at both scales, and that on four
#               real N = 12 Newton systems the capacitance-matrix solve
#               matches the full-grid oracle on its charge nodes to 1e-8 V
#               with the same Newton count. Then the
#               NEGF grid bench: on a cold real-device sub-table the
#               uniform energy grid must stay within 0.5% current and
#               0.5% of Qmax charge of a 4x-finer uniform reference, and
#               its synthetic-sweep currents must be bit-identical across
#               GNRFET_THREADS=1 and 4. Finally the batched-RGF bench: the
#               SoA kernel holds >= 1.5x the scalar solve rate with
#               bit-identical transmission, and the transport currents
#               are bit-identical across GNRFET_THREADS=1 and 4. Last, a
#               counter gate with no timing: the traced CircuitGolden ring
#               transient does one MNA symbolic analysis in its one
#               workspace, replays every later factorization, and takes
#               exactly 2001 steps and 6003 factorizations.
#   analyze   gnrfet_lint repo rules + the gnrfet_analyze passes: layering
#             DAG, determinism rules, contract-coverage baseline
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
# Each stage configures its own build tree under build-ci-<stage> so stages
# never contaminate each other's flags; configure output goes to
# build-ci-<stage>/configure.log inside the tree. Exits non-zero on the
# first failure.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(werror asan-ubsan tsan trace perf-smoke analyze thread-safety tidy)
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

for stage in "${STAGES[@]}"; do
  case "$stage" in
    werror)
      banner "warnings-as-errors build + full suite + lint"
      configure_and_build "$ROOT/build-ci-werror" -DGNRFET_WERROR=ON
      ctest --test-dir "$ROOT/build-ci-werror" -j "$JOBS" --output-on-failure
      ctest --test-dir "$ROOT/build-ci-werror" -L lint --output-on-failure
      ;;
    asan-ubsan)
      banner "address,undefined sanitizers"
      configure_and_build "$ROOT/build-ci-asan" \
        -DGNRFET_SANITIZE=address,undefined -DGNRFET_WERROR=ON
      ctest --test-dir "$ROOT/build-ci-asan" -j "$JOBS" --output-on-failure
      ;;
    tsan)
      banner "thread sanitizer on the parallel suites"
      configure_and_build "$ROOT/build-ci-tsan" -DGNRFET_SANITIZE=thread
      ctest --test-dir "$ROOT/build-ci-tsan" -R 'Parallel' -j "$JOBS" --output-on-failure
      ;;
    trace)
      banner "tracing enabled end-to-end: emit, parse, report"
      configure_and_build "$ROOT/build-ci-trace"
      TRACE_JSON="$ROOT/build-ci-trace/ci_trace.json"
      rm -f "$TRACE_JSON"
      # Real self-consistent and circuit solves (device -> poisson -> negf
      # -> linalg, plus circuit DC/transient) traced end-to-end; skips the
      # trace unit tests themselves, which reset the global buffers.
      GNRFET_TRACE="$TRACE_JSON" "$ROOT/build-ci-trace/tests/gnrfet_tests" \
        --gtest_filter='SelfConsistent.*:Dc.*:Transient.*'
      test -s "$TRACE_JSON" || { echo "trace stage: no trace written" >&2; exit 1; }
      # Subsystem coverage is asserted against the report tool's --json
      # rollup (one machine-readable object) instead of grepping the raw
      # Chrome trace: the gate now also proves the aggregation pipeline.
      REPORT_JSON="$ROOT/build-ci-trace/ci_trace_report.json"
      "$ROOT/build-ci-trace/tools/gnrfet_trace_report" --json "$TRACE_JSON" >"$REPORT_JSON"
      test -s "$REPORT_JSON" || { echo "trace stage: --json produced no output" >&2; exit 1; }
      for cat in negf poisson device circuit linalg; do
        grep -q "\"subsystem\":\"$cat\"" "$REPORT_JSON" ||
          { echo "trace stage: no spans from subsystem '$cat' in --json rollup" >&2; exit 1; }
      done
      "$ROOT/build-ci-trace/tools/gnrfet_trace_report" "$TRACE_JSON"
      ;;
    perf-smoke)
      banner "Poisson perf smoke (ic0 beats jacobi; reduced Newton matches the full-grid oracle)"
      # Reduced grid so the preconditioner sweeps stay in CI budget; the
      # full-scale numbers live in EXPERIMENTS.md. The TSan coverage of
      # the concurrent PoissonSolver path and the parallel capacitance
      # build rides in the tsan stage above (its -R 'Parallel' filter picks
      # up PoissonSolverParallel.*, CapacitanceParallel.*, and
      # DesignKitParallel.*).
      DIR="$ROOT/build-ci-perf"
      mkdir -p "$DIR"
      cmake -B "$DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >"$DIR/configure.log" 2>&1 ||
        { cat "$DIR/configure.log"; exit 1; }
      cmake --build "$DIR" -j "$JOBS" --target bench_poisson_solver
      (cd "$DIR" &&
        GNRFET_BENCH_POISSON_NX=24 GNRFET_BENCH_POISSON_NY=16 GNRFET_BENCH_POISSON_NZ=16 \
        GNRFET_BENCH_POISSON_REPEATS=1 ./bench/bench_poisson_solver)
      PERF_JSON="$DIR/bench_out/BENCH_poisson.json"
      test -s "$PERF_JSON" || { echo "perf-smoke: no BENCH_poisson.json written" >&2; exit 1; }
      # One {"preconditioner":...,"grid_scale":...,"iterations":...} per
      # line, then the real-device {"capacitance_build_s":...} and
      # {"device_system":...} rows.
      iters() {
        sed -n "s/.*\"preconditioner\":\"$1\",\"grid_scale\":$2,\"iterations\":\([0-9]*\).*/\1/p" \
          "$PERF_JSON"
      }
      for scale in 1 2; do
        JAC="$(iters jacobi $scale)"; IC0="$(iters ic0 $scale)"
        [ -n "$JAC" ] && [ -n "$IC0" ] ||
          { echo "perf-smoke: missing preconditioner records in $PERF_JSON" >&2; exit 1; }
        echo "perf-smoke: jacobi=$JAC ic0=$IC0 PCG iterations (scale $scale)"
        [ "$IC0" -lt "$JAC" ] ||
          { echo "perf-smoke: ic0 ($IC0) not below jacobi ($JAC) at scale $scale" >&2; exit 1; }
      done

      # Real device: the capacitance-matrix Newton (the only device Poisson
      # path) against the full-grid oracle on four real N = 12 Newton
      # systems — max |dphi_S| <= 1e-8 V and the same Newton count on each.
      # One {"device_system":...} record per system.
      SYSTEMS="$(grep -c '"device_system"' "$PERF_JSON" || true)"
      [ "$SYSTEMS" -ge 4 ] ||
        { echo "perf-smoke: expected 4 device_system records in $PERF_JSON, got $SYSTEMS" >&2; exit 1; }
      while IFS= read -r rec; do
        NAME="$(sed -n 's/.*"device_system":"\([^"]*\)".*/\1/p' <<<"$rec")"
        DPHI="$(sed -n 's/.*"max_dphi_V":\([0-9.e+-]*\),.*/\1/p' <<<"$rec")"
        N_RED="$(sed -n 's/.*"reduced_newton":\([0-9]*\),.*/\1/p' <<<"$rec")"
        N_ORA="$(sed -n 's/.*"oracle_newton":\([0-9]*\),.*/\1/p' <<<"$rec")"
        [ -n "$DPHI" ] && [ -n "$N_RED" ] && [ -n "$N_ORA" ] ||
          { echo "perf-smoke: malformed device_system record: $rec" >&2; exit 1; }
        echo "perf-smoke: $NAME max |dphi_S| = $DPHI V, Newton $N_RED (reduced) vs $N_ORA (oracle)"
        [ "$N_RED" = "$N_ORA" ] ||
          { echo "perf-smoke: $NAME Newton count $N_RED differs from the oracle's $N_ORA" >&2; exit 1; }
        awk -v d="$DPHI" 'BEGIN { exit (d <= 1e-8) ? 0 : 1 }' ||
          { echo "perf-smoke: $NAME reduced solve off the oracle by $DPHI V (> 1e-8)" >&2; exit 1; }
      done < <(grep '"device_system"' "$PERF_JSON")

      # NEGF energy-grid smoke, on a reduced synthetic ramp family to stay
      # in CI budget. The real-device section runs on a reduced 3 x 2
      # sub-table (VG 0.2/0.6/1.0 V x VD 0/0.75 V) of the 9 x 4 one the
      # bench defaults to; EXPERIMENTS.md has the full-size numbers.
      NEGF_SIZE=(GNRFET_BENCH_NEGF_NCOL=32 GNRFET_BENCH_NEGF_NVD=3
                 GNRFET_BENCH_NEGF_DEVICE_NVG=3 GNRFET_BENCH_NEGF_DEVICE_NVD=2)
      cmake --build "$DIR" -j "$JOBS" --target bench_negf_grid
      (cd "$DIR" && env "${NEGF_SIZE[@]}" ./bench/bench_negf_grid)
      NEGF_JSON="$DIR/bench_out/BENCH_negf.json"
      test -s "$NEGF_JSON" || { echo "perf-smoke: no BENCH_negf.json written" >&2; exit 1; }
      # Real-device accuracy of the default grid: the uniform 2.5 meV table
      # against the 4x-finer uniform reference, max |dI/I| over the points
      # with |I| > 1e-3 Imax and max |dQ| / Qmax, both <= 0.5%.
      dev_err() {
        sed -n "s/.*\"device_grid\":\"$1\".*\"$2\":\([0-9.e+-]*\)[,}].*/\1/p" "$NEGF_JSON"
      }
      DEV_I="$(dev_err uniform max_rel_current_err)"
      DEV_Q="$(dev_err uniform max_charge_err_of_qmax)"
      [ -n "$DEV_I" ] && [ -n "$DEV_Q" ] ||
        { echo "perf-smoke: missing device_grid records in $NEGF_JSON" >&2; exit 1; }
      echo "perf-smoke: real-device uniform grid vs 4x-finer reference:" \
           "max |dI/I| = $DEV_I, max |dQ|/Qmax = $DEV_Q"
      awk -v e="$DEV_I" 'BEGIN { exit (e <= 5e-3) ? 0 : 1 }' ||
        { echo "perf-smoke: real-device current error $DEV_I above 0.5%" >&2; exit 1; }
      awk -v e="$DEV_Q" 'BEGIN { exit (e <= 5e-3) ? 0 : 1 }' ||
        { echo "perf-smoke: real-device charge error $DEV_Q above 0.5% of Qmax" >&2; exit 1; }

      # Energy-grid thread-count determinism: the uniform grid may not
      # depend on GNRFET_THREADS. The bench emits an FNV-1a hash over the
      # raw synthetic sweep currents; equal hashes mean bit-identical
      # doubles.
      for t in 1 4; do
        (cd "$DIR" && rm -rf "bench_out_t$t" && mkdir -p "bench_out_t$t" &&
          cd "bench_out_t$t" && env GNRFET_THREADS=$t "${NEGF_SIZE[@]}" \
          ../bench/bench_negf_grid >/dev/null)
      done
      t_hash() {
        sed -n "s/.*\"grid\":\"$2\".*\"current_hash\":\"\([0-9a-f]*\)\".*/\1/p" \
          "$DIR/bench_out_t$1/bench_out/BENCH_negf.json"
      }
      H1="$(t_hash 1 uniform)"; H4="$(t_hash 4 uniform)"
      [ -n "$H1" ] && [ -n "$H4" ] ||
        { echo "perf-smoke: missing thread-sweep current hashes" >&2; exit 1; }
      [ "$H1" = "$H4" ] ||
        { echo "perf-smoke: uniform grid not thread-deterministic ($H1 vs $H4)" >&2; exit 1; }
      echo "perf-smoke: uniform currents bit-identical across GNRFET_THREADS=1/4"

      # Batched-RGF smoke: the SoA energy-batch kernel must hold >= 1.5x
      # the scalar solve rate with a bit-identical transmission stream,
      # and the batched transport sweep must give the same current hash
      # at every thread count.
      cmake --build "$DIR" -j "$JOBS" --target bench_rgf_batch
      for t in 1 4; do
        (cd "$DIR" && rm -rf "bench_rgf_t$t" && mkdir -p "bench_rgf_t$t" &&
          cd "bench_rgf_t$t" && GNRFET_THREADS=$t GNRFET_BENCH_RGF_NCOL=32 \
          GNRFET_BENCH_RGF_NVD=3 GNRFET_BENCH_RGF_NE=304 GNRFET_BENCH_RGF_REPEATS=2 \
          ../bench/bench_rgf_batch >/dev/null)
      done
      RGF_JSON="$DIR/bench_rgf_t1/bench_out/BENCH_rgf.json"
      test -s "$RGF_JSON" || { echo "perf-smoke: no BENCH_rgf.json written" >&2; exit 1; }
      rgf_khash() {  # kernel transmission hash: $1 = threads, $2 = path
        sed -n "s/.*\"kind\":\"kernel\",\"path\":\"$2\".*\"transmission_hash\":\"\([0-9a-f]*\)\".*/\1/p" \
          "$DIR/bench_rgf_t$1/bench_out/BENCH_rgf.json"
      }
      rgf_thash() {  # transport current hash: $1 = threads
        sed -n "s/.*\"kind\":\"transport\".*\"current_hash\":\"\([0-9a-f]*\)\".*/\1/p" \
          "$DIR/bench_rgf_t$1/bench_out/BENCH_rgf.json"
      }
      RGF_SPEED="$(sed -n 's/.*\"kind\":\"kernel\",\"path\":\"batch\".*\"speedup\":\([0-9.e+-]*\).*/\1/p' \
        "$RGF_JSON")"
      KH_S="$(rgf_khash 1 scalar)"; KH_B="$(rgf_khash 1 batch)"
      TH1="$(rgf_thash 1)"; TH4="$(rgf_thash 4)"
      [ -n "$RGF_SPEED" ] && [ -n "$KH_S" ] && [ -n "$KH_B" ] && [ -n "$TH1" ] && [ -n "$TH4" ] ||
        { echo "perf-smoke: missing batched-RGF records in $RGF_JSON" >&2; exit 1; }
      echo "perf-smoke: batched RGF ${RGF_SPEED}x scalar solve rate," \
           "kernel hash $KH_B, transport hash $TH1"
      [ "$KH_S" = "$KH_B" ] ||
        { echo "perf-smoke: batched kernel not bit-identical ($KH_S vs $KH_B)" >&2; exit 1; }
      [ "$TH1" = "$TH4" ] ||
        { echo "perf-smoke: batched transport not thread-deterministic" \
               "($TH1 vs $TH4)" >&2; exit 1; }
      awk -v s="$RGF_SPEED" 'BEGIN { exit (s >= 1.5) ? 0 : 1 }' ||
        { echo "perf-smoke: batched RGF speedup $RGF_SPEED below 1.5x" >&2; exit 1; }

      # MNA replay smoke, counters only: the CircuitGolden ring transient,
      # traced, must do exactly one symbolic analysis in its one workspace
      # and replay every later factorization. Pivot churn that sends the
      # replay back to the dense analysis fails here. Its step and
      # factorization counts are pinned exactly (its horizon is 2001 steps
      # of 0.5 ps), so a change in Newton work fails in either direction. The test resets the counters after the DC solve
      # of the ring's kick state, so they cover the transient alone.
      cmake --build "$DIR" -j "$JOBS" --target gnrfet_tests gnrfet_trace_report
      MNA_TRACE="$DIR/mna_replay_trace.json"
      rm -f "$MNA_TRACE"
      GNRFET_TRACE="$MNA_TRACE" "$DIR/tests/gnrfet_tests" \
        --gtest_filter='MnaReplay.GoldenRingTransientAnalysesOnce' >/dev/null
      MNA_JSON="$("$DIR/tools/gnrfet_trace_report" --json "$MNA_TRACE")"
      mna_counter() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" <<<"$MNA_JSON"; }
      mna_spans() {
        sed -n "s/.*\"subsystem\":\"circuit\",\"span\":\"$1\",\"count\":\([0-9]*\).*/\1/p" \
          <<<"$MNA_JSON"
      }
      WORKSPACES="$(mna_spans run_transient)"
      ANALYSES="$(mna_counter mna_symbolic_analyses)"; FACTS="$(mna_counter mna_factorizations)"
      STEPS="$(mna_counter transient_steps)"
      [ -n "$WORKSPACES" ] && [ -n "$ANALYSES" ] && [ -n "$FACTS" ] && [ -n "$STEPS" ] ||
        { echo "perf-smoke: missing MNA counters or run_transient spans in the trace" >&2; exit 1; }
      echo "perf-smoke: ring transient: $STEPS steps, $ANALYSES MNA analyses," \
           "$FACTS factorizations, $WORKSPACES workspace(s)"
      [ "$WORKSPACES" = 1 ] ||
        { echo "perf-smoke: expected one run_transient span, got $WORKSPACES" >&2; exit 1; }
      [ "$ANALYSES" = "$WORKSPACES" ] ||
        { echo "perf-smoke: $ANALYSES MNA analyses in $WORKSPACES workspace(s):" \
               "the replay fell back to the dense analysis" >&2; exit 1; }
      [ "$FACTS" -gt "$ANALYSES" ] ||
        { echo "perf-smoke: no replayed factorization ($FACTS factorizations)" >&2; exit 1; }
      [ "$STEPS" = 2001 ] ||
        { echo "perf-smoke: ring transient took $STEPS steps, expected 2001" >&2; exit 1; }
      [ "$FACTS" = 6003 ] ||
        { echo "perf-smoke: ring transient did $FACTS MNA factorizations, expected 6003:" \
               "the Newton work changed" >&2; exit 1; }
      ;;
    analyze)
      banner "static analysis: repo lint + layering/determinism/contract/env-knob passes"
      configure_and_build "$ROOT/build-ci-analyze"
      cmake --build "$ROOT/build-ci-analyze" -j "$JOBS" \
        --target gnrfet_lint gnrfet_analyze
      "$ROOT/build-ci-analyze/tools/gnrfet_lint" "$ROOT"
      "$ROOT/build-ci-analyze/tools/gnrfet_analyze" "$ROOT"
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
      echo "known stages: werror asan-ubsan tsan trace perf-smoke" \
           "analyze thread-safety tidy" >&2
      exit 2
      ;;
  esac
done

banner "all requested stages passed"
