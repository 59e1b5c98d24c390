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
#   scripts/ci.sh perf       # regression gate: fresh C1 ledger (traced,
#                            # its span profile printed) + bench_obs
#                            # + bench_solvers vs baselines/*.json via
#                            # report_cli, plus a negative check that a
#                            # violated baseline exits nonzero
#   scripts/ci.sh fuzz       # soundness fuzz campaign: fuzz-labeled tests,
#                            # then a 64-system fixed-seed fuzz_cli run with
#                            # zero tolerated soundness violations, gated by
#                            # baselines/fuzz_campaign.json, plus a negative
#                            # perturbed-certificate check
#   scripts/ci.sh cancel     # cancellation suite: the cancel-labeled
#                            # job_context_test under tsan (jobs cancelled
#                            # mid-solver must be data-race free) and in
#                            # Release, ten times over (its mid-run
#                            # deadline test times itself, so one pass
#                            # says little about a timing flake)
#   scripts/ci.sh simd       # SCS_SIMD=OFF build + full tests (the scalar
#                            # fallback must stand alone), then the
#                            # simd-labeled suite under ubsan so the
#                            # intrinsics paths run sanitized
#   scripts/ci.sh parallel   # thread-pool + 1-vs-4-thread determinism
#                            # tests and the PAC/minimax fit tests under
#                            # tsan (the tsan-parallel preset)
#
# Label shortcuts (run from any built tree):
# ctest -L property|fault|golden|store|cancel.
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
      --target synthesize_cli report_cli bench_obs bench_solvers
  local tmp rc
  tmp="$(mktemp -d)"

  # Fresh ledger from a fast C1 synthesis. Exit 1 (= UNVERIFIED on the
  # shrunken fast budget) is tolerated -- the gate checks the recorded PAC
  # facts, timings and solver counters, never the fast-mode verdict. Exit
  # 2+ still fails. --metrics turns the registry on, so the ledger record
  # carries the counters (C1.metrics.counters.*) that table2_fast.json pins.
  # The run is traced and its per-span profile printed, so a timing gate
  # that trips names the layer that slowed.
  rc=0
  ./build/examples/synthesize_cli --fast --no-cache \
      --metrics "${tmp}/metrics.json" --trace "${tmp}/trace.json" \
      --ledger "${tmp}/ledger.jsonl" C1 "${tmp}/out.txt" 5 || rc=$?
  if [ "${rc}" -gt 1 ]; then
    echo "synthesize_cli exited with ${rc}" >&2; exit "${rc}"
  fi
  echo "==> Fast C1 profile (self time per span name)"
  ./build/examples/report_cli profile "${tmp}/trace.json"

  # bench_obs writes BENCH_obs.json into its cwd and self-checks traced
  # determinism; bench_solvers emits google-benchmark JSON for a small,
  # stable subset (full sweeps stay in the manual bench workflow). The
  # kernel row carries the counter the baseline pins: SIMD matmul
  # speedup >= 1.5. SupportLp/270 solves one 540-row exchange LP with its
  # pivot count pinned exactly, so a return to an O(m^2) pivot (about 6x
  # slower there) fails its band; TemplateSweep/2 (K = 20,000, 15 basis
  # terms) times the whole fit around smaller LPs, SamplesSweep/1000
  # the small-K fit, and SamplesSweep/65536 a fit whose Lawson sweeps
  # dominate, so a return to the scalar normal-equation loop fails it.
  # DdpgTrain is 94 DDPG minibatch updates on
  # C1's shapes, so a 2x slower update fails its band. SdpBarrierProgram
  # solves one 155-constraint barrier program, the size that dominates a
  # campaign's SDP time, so a 2x slower interior-point step fails its band.
  (cd "${tmp}" && "${OLDPWD}/build/bench/bench_obs")
  ./build/bench/bench_solvers \
      --benchmark_filter='BM_Matmul/64/100$|BM_MinimaxFit_SamplesSweep/1000$|BM_MinimaxFit_SamplesSweep/65536$|BM_MinimaxFit_TemplateSweep/2$|BM_KernelSpeedup_Matmul$|BM_DdpgTrain$|BM_SdpBarrierProgram$|BM_SupportLp/270$' \
      --benchmark_format=json \
      --benchmark_out="${tmp}/BENCH_solvers.json" \
      --benchmark_out_format=json > /dev/null

  ./build/examples/report_cli \
      --ledger "${tmp}/ledger.jsonl" \
      --bench bench_obs="${tmp}/BENCH_obs.json" \
      --bench bench_solvers="${tmp}/BENCH_solvers.json" \
      --baseline baselines/bench_obs.json \
      --baseline baselines/bench_solvers.json \
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

run_cancel() {
  echo "==> Cancellation suite under ThreadSanitizer"
  # job_context_test cancels jobs and arms deadlines while solvers run on
  # the pool; it must be clean under tsan.
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" --target job_context_test
  ctest --preset tsan-cancel -j "${JOBS}" --output-on-failure

  echo "==> Cancel-labeled tests in the Release tree, ten times"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target job_context_test
  (cd build && ctest -L cancel --repeat until-fail:10 --output-on-failure)
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

run_parallel() {
  echo "==> Thread-pool + determinism suite under ThreadSanitizer"
  # Nested regions, exceptions leaving a region and workers joining and
  # withdrawing regions must all be data-race free, and so must the PAC
  # fit's pooled scenario draw (pac_fit_test) and the fits it feeds
  # (minimax_test).
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}" \
      --target thread_pool_test parallel_determinism_test minimax_test \
      pac_fit_test
  ctest --preset tsan-parallel -j "${JOBS}" --output-on-failure
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
  cancel)  run_cancel ;;
  simd)    run_simd ;;
  parallel) run_parallel ;;
  all)     run_release; run_asan; run_ubsan; run_store; run_obs; run_perf; run_fuzz; run_cancel; run_simd; run_parallel ;;
  *) echo "unknown configuration: $1 (want release|asan|ubsan|fault|store|obs|perf|fuzz|cancel|simd|parallel|all)" >&2
     exit 2 ;;
esac

echo "==> CI matrix passed"
