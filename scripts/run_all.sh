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
# or trips UB fails the run. UBSan is built not to recover
# (CMakeLists.txt), so its first report ends the test with an error
# instead of printing a line and passing. The cache, branch-predictor,
# hierarchy and contention tests are here because checkpoint restore
# indexes their arrays (and a cache's recency ranks) with values read
# from payload bytes, and because a cache and a BTB keep each filled
# set's ways in a chunk behind a per-set pointer
# (common/set_store.hh), a cache with its ranks after them, where a
# way or rank index past the chunk's end reads a red zone (test_gpu
# covers the GPU caches); the
# core, multicore and skip tests because the core's ring queues index
# their slots with computed offsets; the GPU, wavefront and RF-cache
# tests because the GPU run loop indexes per-CU wake cycles and each
# CU keeps an occupied-slot count; the DSE tests because the DSE decodes
# run records read back from the store, and that test feeds the record
# decoder every prefix and bit flip of an encoding; the CPU workload
# tests because replay cursors index a recording shared by many runs;
# the figure-suite test because the CPU suite's pool threads build,
# replay and free each app's recording, and the GPU suite's pool
# threads each write their own outcome slot;
# the FU-pool tests because the pool picks a unit array per op class;
# the serialization tests because checksum64 loads 8-byte words at any
# offset of a payload (through memcpy, so UBSan must report no
# misaligned load) and the Serializer writes into a reused buffer;
# hetsim_cli,
# bench_fig10_gpu_time and cli_contracts because that test feeds the
# option parser, the bench scale parser and the trace decoder bad input
# and kills, preempts and resumes checkpointed runs and sweeps.
cmake -B build-asan -G Ninja -DHETSIM_SANITIZE="address;undefined"
cmake --build build-asan --target test_status test_serialize \
      test_trace_file test_fault_inject test_sweep test_result_store \
      test_checkpoint test_cache test_branch_pred test_hierarchy test_sync \
      test_ooo_core test_multicore test_skip test_gpu test_wavefront \
      test_rf_cache test_dse test_workload_cpu test_func_unit \
      test_cpu_suite hetsim_cli bench_fig10_gpu_time
ctest --test-dir build-asan --output-on-failure \
      -R 'test_status|test_serialize|test_trace_file|test_fault_inject|test_sweep|test_result_store|test_checkpoint|test_cache|test_branch_pred|test_hierarchy|test_sync|test_ooo_core|test_multicore|test_skip|test_gpu|test_wavefront|test_rf_cache|test_dse|test_workload_cpu|test_func_unit|test_cpu_suite|cli_contracts'

# Concurrency pass: the thread-pool, design-space-exploration,
# figure-suite and shared-memory contention tests under
# ThreadSanitizer, so a data race in the parallel evaluator, in the
# CPU figure suite (whose pool threads share recorded workloads, which
# the last cell of an app frees), in the GPU figure suite (whose three
# pool threads simulate GPU cells side by side) or in the
# sync/contention subsystem fails the run.
cmake -B build-tsan -G Ninja -DHETSIM_SANITIZE=thread
cmake --build build-tsan --target test_thread_pool test_dse \
      test_cpu_suite test_sync
ctest --test-dir build-tsan --output-on-failure \
      -R 'test_thread_pool|test_dse|test_cpu_suite|test_sync'

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

# Durable-store smoke: a resumed sweep against the result store must
# be byte-identical to the cold sweep that populated it (ctest's
# cli_contracts covers warm run --store and gpu --store hits).
rm -rf build/store_smoke
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
