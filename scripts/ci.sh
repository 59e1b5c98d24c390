#!/usr/bin/env bash
# CI entry point: build the Release tree plus the sanitizer presets and run
# the test suite in each. Any failure aborts the script.
#
# Usage:
#   scripts/ci.sh            # Release + asan + ubsan (the default matrix)
#   scripts/ci.sh release    # one configuration only
#   scripts/ci.sh asan
#   scripts/ci.sh ubsan
#   scripts/ci.sh fault      # Release build, fault-labeled tests only,
#                            # with the env-driven fault injector armed
#   scripts/ci.sh store      # store-labeled tests under asan, then the
#                            # cold-then-warm pipeline-resume smoke
#   scripts/ci.sh obs        # observability + report-JSON tests under tsan,
#                            # then a traced synthesize_cli smoke whose
#                            # trace/metrics output must parse as JSON
#   scripts/ci.sh perf       # regression gate: fresh C1 ledger + bench_obs
#                            # + bench_solvers vs baselines/*.json via
#                            # report_cli, plus a negative check that a
#                            # violated baseline exits nonzero
#   scripts/ci.sh fuzz       # soundness fuzz campaign: fuzz-labeled tests,
#                            # then a 64-system fixed-seed fuzz_cli run with
#                            # zero tolerated soundness violations, gated by
#                            # baselines/fuzz_campaign.json, plus a negative
#                            # perturbed-certificate check
#   scripts/ci.sh race       # racing + cancellation suite: race-labeled
#                            # tests (race_test, job_context_test) under
#                            # tsan (speculative arms + cancellation must be
#                            # data-race free) and in Release, then
#                            # a raced-vs-replayed determinism smoke where
#                            # the pinned winner must reproduce bitwise
#   scripts/ci.sh simd       # SCS_SIMD=OFF build + full tests (the scalar
#                            # fallback must stand alone), then the
#                            # simd-labeled suite under ubsan so the
#                            # intrinsics paths run sanitized
#
# Label shortcuts (run from any built tree): ctest -L property|fault|golden|store.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_release() {
  echo "==> Release build + full test suite"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}"
  ctest --preset default -j "${JOBS}" --output-on-failure
}

run_asan() {
  echo "==> AddressSanitizer build + full test suite"
  cmake --preset asan
  cmake --build --preset asan -j "${JOBS}"
  ctest --preset asan-all -j "${JOBS}" --output-on-failure
}

run_ubsan() {
  echo "==> UndefinedBehaviorSanitizer build + full test suite"
  cmake --preset ubsan
  cmake --build --preset ubsan -j "${JOBS}"
  ctest --preset ubsan-all -j "${JOBS}" --output-on-failure
}

run_fault() {
  echo "==> Release build + fault-injection suite (SCS_FAULT_SEED armed)"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}"
  (cd build && SCS_FAULT_SEED="${SCS_FAULT_SEED:-12345}" \
      ctest -L fault --output-on-failure)
}

run_store() {
  echo "==> Artifact-store suite under AddressSanitizer"
  cmake --preset asan
  cmake --build --preset asan -j "${JOBS}"
  (cd build-asan && ctest -L store --output-on-failure)

  echo "==> Cold-then-warm pipeline-resume smoke (C1 fast mode, temp cache)"
  # bench_store runs synthesize twice against a fresh cache directory and
  # exits nonzero unless the warm run reports an rl-stage cache hit AND
  # returns the cold run's verdict + controller bit for bit.
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target bench_store
  local tmp
  tmp="$(mktemp -d)"
  (cd "${tmp}" && TMPDIR="${tmp}" "${OLDPWD}/build/bench/bench_store")
  rm -rf "${tmp}"
}

run_obs() {
  echo "==> Observability suite under ThreadSanitizer"
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" --target obs_test report_json_test
  ctest --preset tsan-obs -j "${JOBS}" --output-on-failure

  echo "==> Traced synthesize_cli smoke (C1 fast mode)"
  # The run must succeed with tracing + metrics armed, and both emitted
  # files must parse as JSON under the library's own strict parser.
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
      --target synthesize_cli json_check
  local tmp rc
  tmp="$(mktemp -d)"
  # Exit 1 (= synthesis UNVERIFIED on the shrunken budget) is tolerated --
  # the smoke asserts the observability output, not the verdict. Exit 2+
  # (usage / crash) still fails.
  rc=0
  ./build/examples/synthesize_cli --fast --no-cache \
      --trace "${tmp}/trace.json" --metrics "${tmp}/metrics.json" \
      C1 "${tmp}/out.txt" 5 || rc=$?
  if [ "${rc}" -gt 1 ]; then
    echo "synthesize_cli smoke exited with ${rc}" >&2; exit "${rc}"
  fi
  ./build/examples/json_check "${tmp}/trace.json" "${tmp}/metrics.json"
  grep -q '"name":"stage.pac"' "${tmp}/trace.json" || {
    echo "trace is missing the stage.pac span" >&2; exit 1; }
  rm -rf "${tmp}"
}

run_perf() {
  echo "==> Perf regression gate (run ledger + baselines + Table-2 dashboard)"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
      --target synthesize_cli report_cli bench_obs bench_solvers bench_race
  local tmp rc
  tmp="$(mktemp -d)"

  # Fresh ledger from a fast C1 synthesis. Exit 1 (= UNVERIFIED on the
  # shrunken fast budget) is tolerated -- the gate checks the recorded PAC
  # facts, timings and solver counters, never the fast-mode verdict. Exit
  # 2+ still fails. --metrics turns the registry on, so the ledger record
  # carries the counters (C1.metrics.counters.*) that table2_fast.json pins.
  rc=0
  ./build/examples/synthesize_cli --fast --no-cache \
      --metrics "${tmp}/metrics.json" \
      --ledger "${tmp}/ledger.jsonl" C1 "${tmp}/out.txt" 5 || rc=$?
  if [ "${rc}" -gt 1 ]; then
    echo "synthesize_cli exited with ${rc}" >&2; exit "${rc}"
  fi

  # bench_obs writes BENCH_obs.json into its cwd and self-checks traced
  # determinism; bench_solvers emits google-benchmark JSON for a small,
  # stable subset (full sweeps stay in the manual bench workflow). The
  # kernel row carries the counter the baseline pins: SIMD matmul
  # speedup >= 1.5. TemplateSweep/2 (K = 20,000, 15 basis terms) runs
  # support LPs of a few hundred rows, so it is the row that catches a
  # return to dense simplex pricing, which the tiny LPs of
  # SamplesSweep/1000 cannot.
  (cd "${tmp}" && "${OLDPWD}/build/bench/bench_obs")
  # bench_race times the serial ladder against the raced arms on a
  # BMI-heavy system and self-checks the >= 1.3x speedup gate plus the
  # bitwise replay of the recorded winner; the baseline re-pins both so
  # the numbers land in the dashboard next to the other suites.
  (cd "${tmp}" && "${OLDPWD}/build/bench/bench_race")
  ./build/bench/bench_solvers \
      --benchmark_filter='BM_Matmul/64/100$|BM_MinimaxFit_SamplesSweep/1000$|BM_MinimaxFit_TemplateSweep/2$|BM_KernelSpeedup_Matmul$' \
      --benchmark_format=json \
      --benchmark_out="${tmp}/BENCH_solvers.json" \
      --benchmark_out_format=json > /dev/null

  ./build/examples/report_cli \
      --ledger "${tmp}/ledger.jsonl" \
      --bench bench_obs="${tmp}/BENCH_obs.json" \
      --bench bench_solvers="${tmp}/BENCH_solvers.json" \
      --bench bench_race="${tmp}/BENCH_race.json" \
      --baseline baselines/bench_obs.json \
      --baseline baselines/bench_solvers.json \
      --baseline baselines/race.json \
      --baseline baselines/table2_fast.json \
      --markdown "${tmp}/report.md" --json "${tmp}/report.json"
  grep -q 'Table 2 reproduction dashboard' "${tmp}/report.md" || {
    echo "report.md is missing the Table-2 dashboard" >&2; exit 1; }

  echo "==> Negative check: a violated baseline must exit nonzero"
  printf '%s\n' \
    '{"schema":1,"name":"tampered","metrics":{' \
    ' "C1.total_seconds":{"kind":"timing","value":1e-9,"rel_tol":0.0}}}' \
    > "${tmp}/tampered.json"
  if ./build/examples/report_cli --ledger "${tmp}/ledger.jsonl" \
      --no-dashboard --baseline "${tmp}/tampered.json" > /dev/null; then
    echo "report_cli passed a deliberately violated baseline" >&2; exit 1
  fi

  echo "==> Negative check: a violated kernel baseline must exit nonzero"
  printf '%s\n' \
    '{"schema":1,"name":"tampered_kernel","metrics":{' \
    ' "bench_solvers.BM_KernelSpeedup_Matmul.speedup":' \
    '  {"kind":"min","value":1000.0}}}' \
    > "${tmp}/tampered_kernel.json"
  if ./build/examples/report_cli --ledger "${tmp}/ledger.jsonl" \
      --bench bench_solvers="${tmp}/BENCH_solvers.json" \
      --no-dashboard --baseline "${tmp}/tampered_kernel.json" > /dev/null; then
    echo "report_cli passed a deliberately violated kernel baseline" >&2
    exit 1
  fi
  rm -rf "${tmp}"
}

run_fuzz() {
  echo "==> Soundness fuzz suite (fuzz-labeled tests)"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
      --target family_gen_test independent_check_test fuzz_campaign_test \
      fuzz_cli report_cli
  (cd build && ctest -L fuzz --output-on-failure)

  echo "==> 64-system fixed-seed fuzz campaign (zero tolerated violations)"
  # Fixed seed + fixed count keep the campaign bit-reproducible, so the
  # baseline can pin exact counts, not just bounds. fuzz_cli itself exits 1
  # on any VERIFIED-but-checker-rejected system; the baseline additionally
  # pins the verified rate so a silent collapse to all-UNVERIFIED (which
  # would make the soundness check vacuous) also fails CI.
  local tmp
  tmp="$(mktemp -d)"
  ./build/examples/fuzz_cli --seed 2024 --count 64 --dims 2,3 \
      --fast --episodes 10 --no-cache \
      --ledger "${tmp}/fuzz.jsonl" --summary "${tmp}/fuzz.json"

  ./build/examples/report_cli \
      --ledger "${tmp}/fuzz.jsonl" --no-dashboard \
      --baseline baselines/fuzz_campaign.json \
      --markdown "${tmp}/report.md" --json "${tmp}/report.json"
  grep -q 'Fuzz campaign' "${tmp}/report.md" || {
    echo "report.md is missing the fuzz-campaign section" >&2; exit 1; }

  echo "==> Negative check: a violated fuzz baseline must exit nonzero"
  # Demand an impossible verified count from the same ledger; report_cli
  # must fail, proving the gate actually reads the campaign record.
  printf '%s\n' \
    '{"schema":1,"name":"tampered_fuzz","metrics":{' \
    ' "fuzz_campaign.campaign.verified":{"kind":"min","value":10000}}}' \
    > "${tmp}/tampered_fuzz.json"
  if ./build/examples/report_cli --ledger "${tmp}/fuzz.jsonl" \
      --no-dashboard --baseline "${tmp}/tampered_fuzz.json" > /dev/null; then
    echo "report_cli passed a deliberately violated fuzz baseline" >&2
    exit 1
  fi
  rm -rf "${tmp}"
}

run_race() {
  echo "==> Racing + cancellation suite under ThreadSanitizer"
  # race_test runs speculative arms on the pool and cancels losers through
  # child JobControl scopes, and job_context_test cancels jobs mid-solver;
  # both must be clean under tsan.
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" --target race_test job_context_test
  ctest --preset tsan-race -j "${JOBS}" --output-on-failure

  echo "==> Race-labeled tests in the Release tree"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
      --target race_test job_context_test bench_race
  (cd build && ctest -L race --output-on-failure)

  echo "==> Replay-determinism smoke (raced winner pinned and reproduced)"
  # bench_race itself exits nonzero unless the replay of the recorded
  # winning arm is bitwise-identical to the raced result; SCS_FAST skips
  # the wall-clock speedup gate (that stays in the perf job) so this smoke
  # asserts determinism only.
  local tmp
  tmp="$(mktemp -d)"
  (cd "${tmp}" && SCS_FAST=1 "${OLDPWD}/build/bench/bench_race")
  rm -rf "${tmp}"
}

run_simd() {
  echo "==> SCS_SIMD=OFF build + full test suite (scalar kernels only)"
  cmake --preset scalar
  cmake --build --preset scalar -j "${JOBS}"
  ctest --preset scalar-all -j "${JOBS}" --output-on-failure

  echo "==> SIMD kernel suite under UndefinedBehaviorSanitizer"
  # The ubsan tree builds with SCS_SIMD=ON (the default), so the AVX2
  # intrinsics paths themselves run sanitized here.
  cmake --preset ubsan
  cmake --build --preset ubsan -j "${JOBS}" --target simd_kernel_test
  ctest --preset ubsan-simd -j "${JOBS}" --output-on-failure
}

case "${1:-all}" in
  release) run_release ;;
  asan)    run_asan ;;
  ubsan)   run_ubsan ;;
  fault)   run_fault ;;
  store)   run_store ;;
  obs)     run_obs ;;
  perf)    run_perf ;;
  fuzz)    run_fuzz ;;
  race)    run_race ;;
  simd)    run_simd ;;
  all)     run_release; run_asan; run_ubsan; run_store; run_obs; run_perf; run_fuzz; run_race; run_simd ;;
  *) echo "unknown configuration: $1 (want release|asan|ubsan|fault|store|obs|perf|fuzz|race|simd|all)" >&2
     exit 2 ;;
esac

echo "==> CI matrix passed"
