#!/bin/sh
# Build, test, and regenerate every paper artifact.
# Usage: scripts/run_all.sh [scale]
set -e
SCALE=${1:-1.0}
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Robustness pass: the fault-injection / recoverable-error tests again
# under AddressSanitizer + UBSan, so a recovered error path that leaks
# or trips UB fails the run. The cache, branch-predictor, hierarchy
# and contention tests are here because checkpoint restore indexes
# their arrays with values read from payload bytes; the core,
# multicore and skip tests because the core's ring queues index their
# slots with computed offsets.
cmake -B build-asan -G Ninja -DHETSIM_SANITIZE="address;undefined"
cmake --build build-asan --target test_status test_trace_file \
      test_fault_inject test_sweep test_result_store test_json \
      test_server test_checkpoint test_cache test_branch_pred \
      test_hierarchy test_sync test_ooo_core test_multicore test_skip
ctest --test-dir build-asan --output-on-failure \
      -R 'test_status|test_trace_file|test_fault_inject|test_sweep|test_result_store|test_json|test_server|test_checkpoint|test_cache|test_branch_pred|test_hierarchy|test_sync|test_ooo_core|test_multicore|test_skip'

# Concurrency pass: the thread-pool, design-space-exploration, and
# shared-memory contention tests under ThreadSanitizer, so a data race
# in the parallel evaluator or the sync/contention subsystem fails the
# run.
cmake -B build-tsan -G Ninja -DHETSIM_SANITIZE=thread
cmake --build build-tsan --target test_thread_pool test_dse test_sync
ctest --test-dir build-tsan --output-on-failure \
      -R 'test_thread_pool|test_dse|test_sync'

# DSE smoke: a parallel exploration must print byte-identical output
# to a serial one (the core/dse determinism contract).
build/examples/hetsim_cli dse --space cpu --app fft --jobs 1 \
      --scale 0.02 > build/dse_jobs1.txt
build/examples/hetsim_cli dse --space cpu --app fft --jobs 8 \
      --scale 0.02 > build/dse_jobs8.txt
diff build/dse_jobs1.txt build/dse_jobs8.txt
build/examples/hetsim_cli dse --space gpu --jobs 4 --scale 0.05 \
      > /dev/null

# Report smoke: machine-readable artifacts must be deterministic.
# Two identical runs produce byte-identical RunReport JSON, and a
# parallel DSE report matches a serial one byte for byte.
build/examples/hetsim_cli run --config AdvHet --app fft \
      --scale 0.05 --report-json build/report_a.json > /dev/null
build/examples/hetsim_cli run --config AdvHet --app fft \
      --scale 0.05 --report-json build/report_b.json > /dev/null
cmp build/report_a.json build/report_b.json
build/examples/hetsim_cli dse --space cpu --app fft --jobs 1 \
      --scale 0.02 --report-json build/dse_report_jobs1.json \
      > /dev/null
build/examples/hetsim_cli dse --space cpu --app fft --jobs 8 \
      --scale 0.02 --report-json build/dse_report_jobs8.json \
      > /dev/null
cmp build/dse_report_jobs1.json build/dse_report_jobs8.json
build/examples/hetsim_cli run --config BaseCMOS --app fft \
      --scale 0.02 --trace-out build/trace_smoke.json > /dev/null
grep -q traceEvents build/trace_smoke.json

# Event-horizon smoke: skipping must be invisible in every report.
# Each pair runs once with cycle skipping (default) and once with
# --no-skip 1 (the per-cycle reference loop); the JSON documents must
# match byte for byte.
build/examples/hetsim_cli run --config BaseTFET --app canneal \
      --scale 0.05 --report-json build/skip_cpu_a.json > /dev/null
build/examples/hetsim_cli run --config BaseTFET --app canneal \
      --scale 0.05 --no-skip 1 --report-json build/skip_cpu_b.json \
      > /dev/null
cmp build/skip_cpu_a.json build/skip_cpu_b.json
build/examples/hetsim_cli gpu --config AdvHet --kernel reduction \
      --scale 0.2 --report-json build/skip_gpu_a.json > /dev/null
build/examples/hetsim_cli gpu --config AdvHet --kernel reduction \
      --scale 0.2 --no-skip 1 --report-json build/skip_gpu_b.json \
      > /dev/null
cmp build/skip_gpu_a.json build/skip_gpu_b.json
build/examples/hetsim_cli dse --space cpu --app fft --jobs 8 \
      --scale 0.02 --report-json build/skip_dse_a.json > /dev/null
build/examples/hetsim_cli dse --space cpu --app fft --jobs 8 \
      --scale 0.02 --no-skip 1 --report-json build/skip_dse_b.json \
      > /dev/null
cmp build/skip_dse_a.json build/skip_dse_b.json
# The same invariant must hold when cores contend: lock handoff and
# barrier blocking go through the event horizon too, so a lock-heavy
# trace with skipping on must match the per-cycle reference loop.
build/examples/hetsim_cli run --config BaseHet --app lock_heavy \
      --scale 0.2 --report-json build/skip_lock_a.json > /dev/null
build/examples/hetsim_cli run --config BaseHet --app lock_heavy \
      --scale 0.2 --no-skip 1 --report-json build/skip_lock_b.json \
      > /dev/null
cmp build/skip_lock_a.json build/skip_lock_b.json

# Durable-store smoke: a warm rerun against the result store must be
# byte-identical to the cold run that populated it, for single runs
# and for resumed sweeps alike.
rm -rf build/store_smoke
build/examples/hetsim_cli run --config AdvHet --app fft \
      --scale 0.05 --store build/store_smoke \
      --report-json build/store_cold.json > /dev/null
build/examples/hetsim_cli run --config AdvHet --app fft \
      --scale 0.05 --store build/store_smoke \
      --report-json build/store_warm.json \
      | grep -q 'store: verified hit'
cmp build/store_cold.json build/store_warm.json
build/examples/hetsim_cli sweep --configs all --workloads fft,lu \
      --scale 0.05 --store build/store_smoke \
      --report-json build/sweep_cold.json > /dev/null
build/examples/hetsim_cli sweep --configs all --workloads fft,lu \
      --scale 0.05 --store build/store_smoke --resume 1 \
      --report-json build/sweep_warm.json > /dev/null
cmp build/sweep_cold.json build/sweep_warm.json

# Parallel sweep smoke: --jobs N keeps several forked cells in flight
# but results land in plan order, so the report must be byte-identical
# to a serial sweep — including on a contention workload.
build/examples/hetsim_cli sweep --configs all \
      --workloads lock_heavy,fft --scale 0.05 \
      --report-json build/sweep_jobs1.json > /dev/null
build/examples/hetsim_cli sweep --configs all \
      --workloads lock_heavy,fft --scale 0.05 --jobs 4 \
      --report-json build/sweep_jobs4.json > /dev/null
cmp build/sweep_jobs1.json build/sweep_jobs4.json

# Kill/resume round trip: SIGKILL a journaling sweep mid-flight, then
# resume it; the resumed report must match an uninterrupted run byte
# for byte (the crash costs the in-flight cell, not the prefix).
rm -rf build/store_kill
build/examples/hetsim_cli sweep --configs all \
      --workloads fft,lu,radix,cholesky --scale 0.5 \
      --report-json build/sweep_ref.json > /dev/null
build/examples/hetsim_cli sweep --configs all \
      --workloads fft,lu,radix,cholesky --scale 0.5 \
      --store build/store_kill > /dev/null 2>&1 &
sweep_pid=$!
tries=0
while [ "$(ls build/store_kill 2>/dev/null | grep -c '\.hres$')" \
        -eq 0 ] && [ $tries -lt 200 ]; do
    sleep 0.05; tries=$((tries + 1))
done
kill -9 $sweep_pid 2>/dev/null || true
wait $sweep_pid 2>/dev/null || true
build/examples/hetsim_cli sweep --configs all \
      --workloads fft,lu,radix,cholesky --scale 0.5 \
      --store build/store_kill --resume 1 \
      --report-json build/sweep_resumed.json > /dev/null
cmp build/sweep_ref.json build/sweep_resumed.json

# Checkpoint/restore smoke, single run: SIGKILL a checkpointed run
# mid-flight, rerun the same command; it restores from the last
# durable checkpoint and the finished report must be byte-identical
# to an uninterrupted run at the same cadence. Works for any kill
# point: a torn final write is quarantined and .prev restores.
rm -f build/ckpt_run.hckp build/ckpt_run.hckp.prev
build/examples/hetsim_cli run --config AdvHet --app cholesky \
      --scale 4 --checkpoint build/ckpt_run.hckp \
      --checkpoint-every 20000 \
      --report-json build/ckpt_ref.json > /dev/null
build/examples/hetsim_cli run --config AdvHet --app cholesky \
      --scale 4 --checkpoint build/ckpt_run.hckp \
      --checkpoint-every 20000 > /dev/null 2>&1 &
ckpt_pid=$!
sleep 0.5
kill -9 $ckpt_pid 2>/dev/null || true
wait $ckpt_pid 2>/dev/null || true
build/examples/hetsim_cli run --config AdvHet --app cholesky \
      --scale 4 --checkpoint build/ckpt_run.hckp \
      --checkpoint-every 20000 \
      --report-json build/ckpt_resumed.json > /dev/null
cmp build/ckpt_ref.json build/ckpt_resumed.json
test ! -e build/ckpt_run.hckp # removed on completion

# Checkpoint/restore smoke, sweep: SIGTERM a journaling sweep
# mid-cell. The in-flight cell is preempted at its next periodic
# drain (exit code 3) and its mid-run checkpoint lands in the store;
# --resume then continues that cell from mid-run and the final report
# must match an uninterrupted sweep at the same cadence byte for
# byte.
rm -rf build/store_ckpt build/store_ckpt_ref
build/examples/hetsim_cli sweep --configs all \
      --workloads fft,lu,radix,cholesky --scale 0.5 \
      --store build/store_ckpt_ref --checkpoint-every 20000 \
      --report-json build/ckpt_sweep_ref.json > /dev/null
build/examples/hetsim_cli sweep --configs all \
      --workloads fft,lu,radix,cholesky --scale 0.5 \
      --store build/store_ckpt --checkpoint-every 20000 \
      > /dev/null 2>&1 &
sweep_pid=$!
sleep 0.5
kill -TERM $sweep_pid 2>/dev/null || true
wait $sweep_pid && exit 1 || true # preempted: must exit nonzero
build/examples/hetsim_cli sweep --configs all \
      --workloads fft,lu,radix,cholesky --scale 0.5 \
      --store build/store_ckpt --checkpoint-every 20000 --resume 1 \
      --report-json build/ckpt_sweep_resumed.json > /dev/null
cmp build/ckpt_sweep_ref.json build/ckpt_sweep_resumed.json

# Store triage smoke: fsck flags an orphaned O_EXCL temp (nonzero
# exit), gc prunes it, and a re-fsck comes back clean while leaving
# the journaled entries untouched.
touch build/store_ckpt/cell-dead.hckp.tmp.99.1
build/examples/hetsim_cli store fsck --dir build/store_ckpt \
      && exit 1 || true
build/examples/hetsim_cli store gc --dir build/store_ckpt
build/examples/hetsim_cli store fsck --dir build/store_ckpt

# Batch-server smoke: a resident daemon answers ping/run/stats jobs,
# survives a malformed request, drains cleanly on SIGTERM, and writes
# a counter-carrying server report.
rm -rf build/store_serve
SOCK=build/hetsim_serve.sock
rm -f "$SOCK" "$SOCK.lock"
build/examples/hetsim_cli serve --socket "$SOCK" \
      --store build/store_serve --verbose 0 \
      --report-json build/serve_report.json &
serve_pid=$!
build/examples/hetsim_cli submit --socket "$SOCK" \
      --request '{"cmd":"ping"}' | grep -q '"ok":true'
build/examples/hetsim_cli submit --socket "$SOCK" \
      --request '{"cmd":"run","config":"AdvHet","workload":"fft","scale":0.05}' \
      | grep -q '"ok":true'
build/examples/hetsim_cli submit --socket "$SOCK" \
      --request 'not json at all' && exit 1 || true
build/examples/hetsim_cli submit --socket "$SOCK" \
      --request '{"cmd":"stats"}' | grep -q 'jobs_accepted'
kill -TERM $serve_pid
wait $serve_pid
grep -q '"kind":"server"' build/serve_report.json
test ! -e "$SOCK"

# Substrate microbenchmarks (simulator speed, not simulated machine),
# exported as machine-readable JSON for regression tracking.
build/bench/bench_micro_substrate \
      --benchmark_out=build/BENCH_report.json \
      --benchmark_out_format=json

# Simulation-speed benchmark: skip vs. the --no-skip reference loop
# on memory-bound workloads; the sim_cycles_per_sec counters record
# the skip speedup (CPU target: >= 1.5x).
build/bench/bench_micro_substrate \
      --benchmark_filter=SimThroughput \
      --benchmark_out=build/BENCH_simspeed.json \
      --benchmark_out_format=json

for b in build/bench/bench_table* build/bench/bench_fig* \
         build/bench/bench_ext*; do
    echo "##### $(basename "$b")"
    "$b" "$SCALE"
done
