#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md). Everything runs offline: the
# workspace has no external dependencies.
#
#   scripts/ci.sh           # full gate
#
# Steps:
#   1. release build of every crate, bins included
#   2. full test suite (unit + integration + property + doc tests),
#      with a per-suite/total test-count summary from the harness
#      "test result:" lines
#  2b. the alloc_count gates again at --test-threads=4: the allocation
#      gauge counts per thread, and on a 1-CPU host libtest runs one
#      thread, which would hide a gate that counts its neighbours'
#      allocations
#   3. formatting
#   4. clippy, warnings promoted to errors
#   5. fault-matrix smoke: stalls/link faults/RPC failures across the
#      cached and uncached write paths, plus a node crash recovered
#      from the cache journal (exit != 0 on any data loss); runs with
#      E10_JOBS=4 so the worker-pool path is exercised under CI
#   6. bench_baseline smoke: the parallel sweep must produce
#      byte-identical figures and bit-identical sim times vs the
#      sequential path (exit != 0 on divergence)
#   7. multi_job smoke: the fixed-seed multi-tenant cache arms; the
#      binary itself gates on the contended arm degrading + evicting
#      while the control arms stay clean, and the JSON output (minus
#      the host_secs wall-clock field) must be byte-identical at
#      E10_JOBS=1 and E10_JOBS=8
#   8. node_agg smoke: the three collective-write algorithms on the
#      test-scale grid; the binary gates on intra-node aggregation
#      strictly reducing inter-node shuffle bytes AND messages vs the
#      extended algorithm on every cell (exit != 0 otherwise), with
#      every run byte-verified
#   9. chaos-soak smoke: fixed-seed randomized corruption schedules
#      (SSD bit-flips/torn sectors, wire corruption, lazy PFS rot,
#      stalls, RPC failures) against the fault-free oracle; exit != 0
#      if any seed silently diverges from the oracle's bytes; the seeds
#      cycle through all three cache classes so the NVM front and the
#      hybrid split sit under the same oracle. Journal format-version
#      compat is covered by the test suite in step 2 (v1 journals
#      without Cksum records must still replay).
#  10. nvm_sweep smoke: the SSD/NVM/hybrid cache-tier grid; the binary
#      gates on the nvm class strictly reducing cache-write stall per
#      cached byte on small-buffer cells and on hybrid bandwidth never
#      losing to the better pure class (exit != 0 otherwise), and the
#      JSON (minus the worker-count field) must be byte-identical at
#      E10_JOBS=1 and E10_JOBS=8
#  11. bench_perf smoke: the quick-scale perf baseline vs the
#      committed BENCH_perf.json — events and allocator-call counts
#      must match exactly (the sim is deterministic), the densest
#      cell's median wall-clock per event must stay within the
#      baseline's tolerance factor, and the JSON minus the
#      wall-clock/host fields must be byte-identical at --jobs 1
#      and --jobs 8
#  12. degraded smoke: the failure-intensity × cache-class ×
#      algorithm survivability grid; the binary gates on every cell
#      verifying all acked bytes (device failure, mid-collective node
#      crash, both), on the zero-failure arms being byte-identical
#      with the crash-tolerant engine forced on, and the JSON (minus
#      host_secs) must be byte-identical at E10_JOBS=1 and E10_JOBS=8.
#      The zero-cost-when-off half of the gate is the alloc_count
#      steady-state test in step 2 (tolerance hints at defaults add
#      exactly 0 allocator calls per round).
#
# Each step prints its wall-clock seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  echo "==> $*"
  local t0=$SECONDS
  "$@"
  echo "    [$(($SECONDS - t0))s] $1 ${2-}"
}

step cargo build --release --workspace

echo "==> cargo test -q --workspace"
t0=$SECONDS
mkdir -p target
cargo test -q --workspace 2>&1 | tee target/ci-test.log
awk '/^test result:/ {
       suites += 1; passed += $4; failed += $6
     }
     END {
       printf "    test summary: %d suites, %d passed, %d failed\n",
              suites, passed, failed
     }' target/ci-test.log
echo "    [$(($SECONDS - t0))s] cargo test"

step cargo test -q -p e10-romio --test alloc_count -- --test-threads=4

step cargo fmt --all --check

step cargo clippy --workspace --all-targets -- -D warnings

echo "==> fault-matrix smoke (E10_JOBS=4)"
t0=$SECONDS
E10_JOBS=4 cargo run --release -q -p e10-bench --bin fault_sweep -- --smoke
echo "    [$(($SECONDS - t0))s] fault-matrix smoke"

echo "==> bench_baseline smoke (parallel vs sequential divergence gate)"
t0=$SECONDS
cargo run --release -q -p e10-bench --bin bench_baseline -- --smoke --jobs 4 --out -
echo "    [$(($SECONDS - t0))s] bench_baseline smoke"

echo "==> multi_job smoke (arbiter gate + E10_JOBS=1 vs 8 byte-identity)"
t0=$SECONDS
E10_JOBS=1 cargo run --release -q -p e10-bench --bin multi_job -- --json \
  > target/ci-multi-job-1.json
E10_JOBS=8 cargo run --release -q -p e10-bench --bin multi_job -- --json \
  > target/ci-multi-job-8.json
# host_secs is the only wall-clock (non-simulated) field; everything
# else must not depend on the worker count.
sed 's/"host_secs":[^,]*,//' target/ci-multi-job-1.json \
  > target/ci-multi-job-1.stripped.json
sed 's/"host_secs":[^,]*,//' target/ci-multi-job-8.json \
  > target/ci-multi-job-8.stripped.json
cmp target/ci-multi-job-1.stripped.json target/ci-multi-job-8.stripped.json
echo "    [$(($SECONDS - t0))s] multi_job smoke"

echo "==> node_agg smoke (inter-node traffic reduction gate)"
t0=$SECONDS
cargo run --release -q -p e10-bench --bin node_agg -- --smoke --jobs 4 \
  --out target/ci-node-agg.json
echo "    [$(($SECONDS - t0))s] node_agg smoke"

echo "==> chaos-soak smoke (E10_JOBS=4, fixed seeds, divergence gate)"
t0=$SECONDS
E10_JOBS=4 cargo run --release -q -p e10-bench --bin chaos_soak -- --smoke --json
echo "    [$(($SECONDS - t0))s] chaos-soak smoke"

echo "==> nvm_sweep smoke (cache-tier gate + E10_JOBS=1 vs 8 byte-identity)"
t0=$SECONDS
E10_JOBS=1 cargo run --release -q -p e10-bench --bin nvm_sweep -- --smoke --json \
  --out - > target/ci-nvm-sweep-1.json
E10_JOBS=8 cargo run --release -q -p e10-bench --bin nvm_sweep -- --smoke --json \
  --out - > target/ci-nvm-sweep-8.json
# The worker count is recorded in the document; everything else —
# stall counters, front bytes, bandwidth — must not depend on it.
sed 's/"jobs":[^,]*,//' target/ci-nvm-sweep-1.json \
  > target/ci-nvm-sweep-1.stripped.json
sed 's/"jobs":[^,]*,//' target/ci-nvm-sweep-8.json \
  > target/ci-nvm-sweep-8.stripped.json
cmp target/ci-nvm-sweep-1.stripped.json target/ci-nvm-sweep-8.stripped.json
echo "    [$(($SECONDS - t0))s] nvm_sweep smoke"

echo "==> bench_perf smoke (perf-baseline gate + E10_JOBS=1 vs 8 byte-identity)"
t0=$SECONDS
cargo run --release -q -p e10-bench --bin bench_perf -- --jobs 1 \
  --check BENCH_perf.json --out target/ci-bench-perf-1.json
cargo run --release -q -p e10-bench --bin bench_perf -- --jobs 8 \
  --check BENCH_perf.json --out target/ci-bench-perf-8.json
# Events, sim times, bandwidth and allocator-call counts are
# deterministic; only the wall-clock / host fields may differ between
# job counts (and vs the committed baseline's host).
STRIP='"host_secs"|"wall_ns_per_event"|"jobs"|"host_cpus"|"wall_densest_median_ns_per_event"'
grep -Ev "$STRIP" target/ci-bench-perf-1.json \
  > target/ci-bench-perf-1.stripped.json
grep -Ev "$STRIP" target/ci-bench-perf-8.json \
  > target/ci-bench-perf-8.stripped.json
cmp target/ci-bench-perf-1.stripped.json target/ci-bench-perf-8.stripped.json
echo "    [$(($SECONDS - t0))s] bench_perf smoke"

echo "==> degraded smoke (survivability gate + E10_JOBS=1 vs 8 byte-identity)"
t0=$SECONDS
E10_JOBS=1 cargo run --release -q -p e10-bench --bin degraded -- --smoke --json \
  --out - > target/ci-degraded-1.json
E10_JOBS=8 cargo run --release -q -p e10-bench --bin degraded -- --smoke --json \
  --out - > target/ci-degraded-8.json
# host_secs is the only wall-clock field; verdicts, injection counts
# and file digests must not depend on the worker count.
sed 's/"host_secs":[^,]*,//' target/ci-degraded-1.json \
  > target/ci-degraded-1.stripped.json
sed 's/"host_secs":[^,]*,//' target/ci-degraded-8.json \
  > target/ci-degraded-8.stripped.json
cmp target/ci-degraded-1.stripped.json target/ci-degraded-8.stripped.json
echo "    [$(($SECONDS - t0))s] degraded smoke"

echo "==> ci: all green"
