/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate itself:
 * cache access throughput, branch-predictor throughput, OoO core
 * simulation speed, GPU compute-unit simulation speed, and the
 * checksums and serialization a checkpoint save runs. These guard
 * against performance regressions in the simulator (the figure benches
 * above measure the *simulated* machine, not the simulator).
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "core/configs.hh"
#include "cpu/branch_pred.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;

namespace
{

void
BM_StatCounterStringLookup(benchmark::State &state)
{
    // The old hot-path pattern: a string-keyed map lookup on every
    // simulated event. Kept as the baseline the handle fix beats.
    StatGroup sg("bench");
    // A realistic population: hot-path groups hold ~10 counters.
    for (int i = 0; i < 12; ++i)
        ++sg.counter("counter_" + std::to_string(i));
    for (auto _ : state) {
        ++sg.counter("counter_7");
        benchmark::DoNotOptimize(sg);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterStringLookup);

void
BM_StatCounterHandle(benchmark::State &state)
{
    // The new pattern: the reference is resolved once at construction
    // (StatGroup references are stable), so each event is a plain
    // increment.
    StatGroup sg("bench");
    for (int i = 0; i < 12; ++i)
        ++sg.counter("counter_" + std::to_string(i));
    Counter &c = sg.counter("counter_7");
    for (auto _ : state) {
        ++c;
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterHandle);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheParams params{"bench", 32 * 1024, 8, 64, false};
    mem::Cache cache(params);
    Rng rng(42);
    for (auto _ : state) {
        const uint64_t addr = rng.range(1 << 20) * 64;
        auto r = cache.access(addr);
        if (!r.hit)
            cache.fill(addr, mem::CoherenceState::Shared);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyLoad(benchmark::State &state)
{
    mem::HierarchyParams params;
    params.numCores = 4;
    mem::MemHierarchy hier(params);
    Rng rng(42);
    mem::Cycle now = 0;
    for (auto _ : state) {
        const uint64_t addr = rng.range(1 << 18) * 64;
        auto r = hier.access(rng.range(4), addr,
                             mem::AccessType::Load, ++now);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyLoad);

void
BM_BranchPredictor(benchmark::State &state)
{
    cpu::BranchPredictor bp;
    Rng rng(7);
    cpu::MicroOp op;
    op.cls = cpu::OpClass::Branch;
    for (auto _ : state) {
        op.pc = 0x1000 + rng.range(256) * 4;
        op.taken = rng.chance(0.7);
        op.target = op.taken ? op.pc - 64 : op.pc + 4;
        benchmark::DoNotOptimize(bp.predictAndTrain(op));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void
BM_OooCoreSimulation(benchmark::State &state)
{
    // Simulated instructions per second of the full 4-core model.
    const auto found = workload::findCpuApp("water-sp");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &app = *found.value();
    for (auto _ : state) {
        auto bundle = core::makeCpuConfig(core::CpuConfig::BaseCmos);
        auto traces = workload::makeCpuWorkload(
            app, bundle.numCores, 1, 0.05);
        std::vector<cpu::TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        cpu::Multicore mc(bundle.sim, ptrs);
        auto res = mc.run();
        state.SetItemsProcessed(state.items_processed() +
                                res.committedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_OooCoreSimulation)->Unit(benchmark::kMillisecond);

void
BM_GpuSimulation(benchmark::State &state)
{
    const auto found = workload::findGpuKernel("matrixmul");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &prof = *found.value();
    for (auto _ : state) {
        auto bundle = core::makeGpuConfig(core::GpuConfig::BaseCmos);
        workload::SyntheticKernel kernel(prof, 1, 0.05);
        gpu::Gpu gpu(bundle.sim);
        auto res = gpu.run(kernel);
        state.SetItemsProcessed(state.items_processed() +
                                res.issuedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_GpuSimulation)->Unit(benchmark::kMillisecond);

void
BM_CpuSimThroughput(benchmark::State &state)
{
    // Simulated cycles per second with event-horizon skipping on
    // (Arg 0) vs. the per-cycle reference loop (Arg 1), on a
    // memory-bound app whose long DRAM stalls are the skip loop's
    // best case. The ratio of the two sim_cycles_per_sec counters is
    // the skip speedup reported in BENCH_simspeed.json.
    const bool no_skip = state.range(0) != 0;
    const auto found = workload::findCpuApp("canneal");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &app = *found.value();
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto bundle = core::makeCpuConfig(core::CpuConfig::BaseTfet);
        bundle.sim.skipEnabled = !no_skip;
        auto traces = workload::makeCpuWorkload(
            app, bundle.numCores, 1, 0.5);
        std::vector<cpu::TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        cpu::Multicore mc(bundle.sim, ptrs);
        auto res = mc.run();
        cycles += res.cycles;
        state.SetItemsProcessed(state.items_processed() +
                                res.committedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(cycles),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CpuSimThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_GpuSimThroughput(benchmark::State &state)
{
    // GPU twin of BM_CpuSimThroughput: a memory-heavy kernel on the
    // half-clock all-TFET GPU, skip (Arg 0) vs. reference (Arg 1).
    const bool no_skip = state.range(0) != 0;
    const auto found = workload::findGpuKernel("reduction");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &prof = *found.value();
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto bundle = core::makeGpuConfig(core::GpuConfig::BaseTfet);
        bundle.sim.skipEnabled = !no_skip;
        workload::SyntheticKernel kernel(prof, 1, 0.5);
        gpu::Gpu gpu(bundle.sim);
        auto res = gpu.run(kernel);
        cycles += res.cycles;
        state.SetItemsProcessed(state.items_processed() +
                                res.issuedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(cycles),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GpuSimThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** About one 4-core checkpoint payload. */
constexpr size_t kChecksumBytes = 150 * 1024;

std::string
randomBytes(size_t n)
{
    Rng rng(11);
    std::string bytes(n, '\0');
    for (char &c : bytes)
        c = static_cast<char>(rng.range(256));
    return bytes;
}

void
BM_Fnv1a(benchmark::State &state)
{
    // The byte-serial hash checkpoints used before checksum64.
    const std::string bytes = randomBytes(kChecksumBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(fnv1a(bytes));
    state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_Fnv1a);

void
BM_Checksum64(benchmark::State &state)
{
    const std::string bytes = randomBytes(kChecksumBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(checksum64(bytes));
    state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_Checksum64);

void
BM_CheckpointSerialize(benchmark::State &state)
{
    // The bulk of a 4-core checkpoint: an AdvHet hierarchy and four
    // branch predictors, warmed by a prodcons run, saved into one
    // reused buffer the way Multicore::run saves.
    const auto found = workload::findCpuApp("prodcons");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    auto bundle = core::makeCpuConfig(core::CpuConfig::AdvHet);
    auto traces = workload::makeCpuWorkload(*found.value(),
                                            bundle.numCores, 1, 0.2);
    std::vector<cpu::TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    cpu::Multicore mc(bundle.sim, ptrs);
    mc.run();
    std::string buf;
    for (auto _ : state) {
        Serializer ser(std::move(buf));
        mc.hierarchy().saveState(ser);
        for (uint32_t c = 0; c < mc.numCores(); ++c)
            mc.core(c).branchPredictor().saveState(ser);
        buf = ser.take();
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * buf.size());
    state.counters["payload_bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_CheckpointSerialize);

} // namespace

BENCHMARK_MAIN();
