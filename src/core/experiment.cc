#include "core/experiment.hh"

#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "core/checkpoint.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"

namespace hetsim::core
{

using power::CpuUnit;

namespace
{

/** JSON names of the Figure 8 energy groups (EnergyGroup order). */
const char *const kEnergyGroupNames[power::kNumEnergyGroups] = {
    "core", "l2", "l3"};

/** Fields shared by CPU and GPU reports. */
template <typename Outcome>
void
fillReportHeader(obs::RunReport &rep, const Outcome &out,
                 const ExperimentOptions &opts,
                 const power::EnergyBreakdown &energy)
{
    rep.config = out.config;
    rep.seed = opts.seed;
    rep.scale = opts.scale;
    rep.freqGhz = opts.freqGhz;
    rep.cycles = out.cycles;
    rep.timedOut = out.timedOut;
    rep.seconds = out.metrics.seconds;
    rep.energyJ = out.metrics.energyJ;
    for (int g = 0; g < power::kNumEnergyGroups; ++g)
        rep.energyGroups.push_back({kEnergyGroupNames[g],
                                    energy.groupDynamicJ[g],
                                    energy.groupLeakageJ[g]});
}

/** Snapshot `group` under a per-core name so the shared "fu_pool" /
 *  "branch_pred" group names stay unique in the report. */
obs::GroupSnapshot
snapshotAs(const StatGroup &group, uint32_t core)
{
    obs::GroupSnapshot snap = obs::snapshotGroup(group);
    snap.name = "core." + std::to_string(core) + "." + snap.name;
    return snap;
}

void
fillCpuReport(obs::RunReport &rep, cpu::Multicore &mc,
              const power::CpuActivity &activity,
              const CpuOutcome &out, const ExperimentOptions &opts)
{
    rep.kind = "cpu";
    rep.workload = out.app;
    rep.ops = out.committedOps;
    fillReportHeader(rep, out, opts, out.energy);
    for (int i = 0; i < power::kNumCpuUnits; ++i) {
        obs::UnitEnergy u;
        u.name = power::cpuUnitPower(static_cast<CpuUnit>(i)).name;
        u.activity = activity[i];
        u.dynamicJ = out.energy.dynamicJ[i];
        u.leakageJ = out.energy.leakageJ[i];
        rep.units.push_back(std::move(u));
    }
    for (uint32_t c = 0; c < mc.numCores(); ++c) {
        cpu::OooCore &core = mc.core(c);
        rep.groups.push_back(obs::snapshotGroup(core.stats()));
        rep.groups.push_back(snapshotAs(core.fuPool().stats(), c));
        rep.groups.push_back(
            snapshotAs(core.branchPredictor().stats(), c));
    }
    mem::MemHierarchy &h = mc.hierarchy();
    for (uint32_t c = 0; c < mc.numCores(); ++c) {
        rep.groups.push_back(obs::snapshotGroup(h.il1(c).stats()));
        rep.groups.push_back(obs::snapshotGroup(h.dl1(c).stats()));
        rep.groups.push_back(obs::snapshotGroup(h.l2(c).stats()));
    }
    rep.groups.push_back(obs::snapshotGroup(h.l3().stats()));
    rep.groups.push_back(obs::snapshotGroup(h.ring().stats()));
    rep.groups.push_back(obs::snapshotGroup(h.dram().stats()));
    rep.groups.push_back(obs::snapshotGroup(h.stats()));
    // Sync observability: lock/barrier/event contention counters and
    // wait-cycle distributions (zero groups on sharing-free runs).
    rep.groups.push_back(obs::snapshotGroup(mc.sync().stats()));
    if (h.scratchpad())
        rep.groups.push_back(
            obs::snapshotGroup(h.scratchpad()->stats()));
}

void
fillGpuReport(obs::RunReport &rep, gpu::Gpu &g,
              const power::GpuActivity &activity,
              const GpuOutcome &out, const ExperimentOptions &opts)
{
    rep.kind = "gpu";
    rep.workload = out.kernel;
    rep.ops = out.issuedOps;
    fillReportHeader(rep, out, opts, out.energy);
    for (int i = 0; i < power::kNumGpuUnits; ++i) {
        obs::UnitEnergy u;
        u.name = power::gpuUnitPower(
            static_cast<power::GpuUnit>(i)).name;
        u.activity = activity[i];
        u.dynamicJ = out.energy.dynamicJ[i];
        u.leakageJ = out.energy.leakageJ[i];
        rep.units.push_back(std::move(u));
    }
    gpu::GpuMemSystem &mem = g.memSystem();
    for (uint32_t c = 0; c < g.numCus(); ++c) {
        rep.groups.push_back(obs::snapshotGroup(g.cu(c).stats()));
        rep.groups.push_back(obs::snapshotGroup(mem.l1(c).stats()));
    }
    rep.groups.push_back(obs::snapshotGroup(mem.l2().stats()));
    rep.groups.push_back(obs::snapshotGroup(mem.dram().stats()));
}

/** Exact (bit-level) double rendering for identity keys, independent
 *  of locale and formatting width. */
std::string
keyBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return std::to_string(bits);
}

/** Run-identity key for checkpoint fencing: every option that changes
 *  the simulated machine or workload participates, so a checkpoint is
 *  only ever restored into the exact invocation that wrote it. The
 *  cadence is included because only a matching cadence preserves the
 *  restore-equals-uninterrupted guarantee. */
std::string
checkpointKeyFor(const char *kind, const std::string &config,
                 const std::string &workload,
                 const ExperimentOptions &opts)
{
    if (!opts.checkpointKey.empty())
        return opts.checkpointKey;
    return std::string(kind) + "|" + config + "|" + workload +
           "|seed=" + std::to_string(opts.seed) +
           "|scale=" + keyBits(opts.scale) +
           "|freq=" + keyBits(opts.freqGhz) +
           "|cores=" + std::to_string(opts.coresOverride) +
           "|wd=" + std::to_string(opts.watchdogCycles) +
           "|skip=" + (opts.noSkip ? "0" : "1") +
           "|every=" + std::to_string(opts.checkpointEveryCycles);
}

/** Build the save/preempt hook for a checkpointed run. */
CheckpointHook
makeHook(const ExperimentOptions &opts, const std::string &key)
{
    CheckpointHook hook;
    hook.everyCycles = opts.checkpointEveryCycles;
    hook.preempt = opts.preempt;
    const std::string path = opts.checkpointPath;
    hook.save = [path, key](uint64_t cycle,
                            const std::string &payload) {
        const Status st = saveCheckpoint(path, key, cycle, payload);
        if (!st.ok())
            warn("checkpoint save failed (%s): %s", path.c_str(),
                 st.message().c_str());
    };
    return hook;
}

} // namespace

CpuOutcome
runCpuExperiment(CpuConfig cfg, const workload::AppProfile &app,
                 const ExperimentOptions &opts, obs::RunReport *report,
                 obs::TraceBuffer *trace)
{
    return runCpuBundle(makeCpuConfig(cfg, opts.freqGhz),
                        cpuConfigName(cfg), app, opts, report, trace);
}

CpuOutcome
runCpuBundle(const CpuConfigBundle &bundle_in,
             const std::string &config_name,
             const workload::AppProfile &app,
             const ExperimentOptions &opts, obs::RunReport *report,
             obs::TraceBuffer *trace)
{
    CpuConfigBundle bundle = bundle_in;
    if (opts.coresOverride > 0) {
        bundle.numCores = opts.coresOverride;
        bundle.sim.mem.numCores = opts.coresOverride;
    }
    bundle.sim.watchdogCycles = opts.watchdogCycles;
    bundle.sim.skipEnabled = !opts.noSkip;

    auto traces = workload::makeCpuWorkload(app, bundle.numCores,
                                            opts.seed, opts.scale);
    std::vector<cpu::TraceSource *> ptrs;
    ptrs.reserve(traces.size());
    for (auto &t : traces)
        ptrs.push_back(t.get());

    auto mc = std::make_unique<cpu::Multicore>(bundle.sim, ptrs);
    if (!opts.checkpointPath.empty()) {
        const std::string key =
            checkpointKeyFor("cpu", config_name, app.name, opts);
        auto loaded = loadCheckpoint(opts.checkpointPath, key);
        if (loaded.ok()) {
            Deserializer des(loaded->payload);
            if (mc->restoreState(des)) {
                inform("resumed %s/%s from %s (cycle %llu)",
                       config_name.c_str(), app.name,
                       loaded->path.c_str(),
                       static_cast<unsigned long long>(
                           loaded->cycle));
            } else {
                warn("checkpoint restore failed (%s); cold start",
                     des.status().message().c_str());
                // The failed restore part-consumed the seeded traces:
                // rebuild workload and chip from scratch.
                traces = workload::makeCpuWorkload(
                    app, bundle.numCores, opts.seed, opts.scale);
                ptrs.clear();
                for (auto &t : traces)
                    ptrs.push_back(t.get());
                mc = std::make_unique<cpu::Multicore>(bundle.sim,
                                                      ptrs);
            }
        }
        mc->setCheckpointHook(makeHook(opts, key));
    }
    if (trace != nullptr)
        mc->attachTrace(trace);
    cpu::MulticoreResult run = mc->run();
    if (!opts.checkpointPath.empty() && !run.preempted)
        removeCheckpoint(opts.checkpointPath);

    // Split ALU activity between the clusters of a dual-speed design.
    power::CpuActivity activity = run.activity;
    if (bundle.sim.core.fu.dualSpeedAlu) {
        uint64_t fast_ops = 0;
        for (uint32_t c = 0; c < mc->numCores(); ++c)
            fast_ops +=
                mc->core(c).fuPool().stats().value("fast_alu_ops");
        const int alu = static_cast<int>(CpuUnit::Alu);
        const int fast = static_cast<int>(CpuUnit::AluFast);
        hetsim_assert(activity[alu] >= fast_ops,
                      "fast ALU ops exceed total ALU ops");
        activity[alu] -= fast_ops;
        activity[fast] += fast_ops;
    }

    // Operating point: the voltage pair for this frequency, plus
    // optional process-variation guardbands.
    OperatingPoint op = cpuOperatingPoint(opts.freqGhz);
    if (opts.variationGuardband)
        op = withVariationGuardband(op);

    CpuOutcome out;
    out.config = config_name;
    out.app = app.name;
    out.cycles = run.cycles;
    out.committedOps = run.committedOps;
    out.timedOut = run.timedOut;
    out.preempted = run.preempted;
    out.energy = power::computeCpuEnergy(activity, bundle.units,
                                         run.seconds, bundle.numCores,
                                         op.scales);
    out.metrics.seconds = run.seconds;
    out.metrics.energyJ = out.energy.totalJ();
    if (report != nullptr)
        fillCpuReport(*report, *mc, activity, out, opts);
    return out;
}

GpuOutcome
runGpuExperiment(GpuConfig cfg, const workload::KernelProfile &kernel,
                 const ExperimentOptions &opts, obs::RunReport *report,
                 obs::TraceBuffer *trace)
{
    // The GPU design point is half the CPU frequency (1 GHz at the
    // paper's 2 GHz CPU point).
    return runGpuBundle(makeGpuConfig(cfg, opts.freqGhz / 2.0),
                        gpuConfigName(cfg), kernel, opts, report,
                        trace);
}

GpuOutcome
runGpuBundle(const GpuConfigBundle &bundle_in,
             const std::string &config_name,
             const workload::KernelProfile &kernel,
             const ExperimentOptions &opts, obs::RunReport *report,
             obs::TraceBuffer *trace)
{
    GpuConfigBundle bundle = bundle_in;
    bundle.sim.watchdogCycles = opts.watchdogCycles;
    bundle.sim.skipEnabled = !opts.noSkip;

    workload::SyntheticKernel k(kernel, opts.seed, opts.scale);
    auto gpu = std::make_unique<gpu::Gpu>(bundle.sim);
    if (!opts.checkpointPath.empty()) {
        const std::string key =
            checkpointKeyFor("gpu", config_name, kernel.name, opts);
        auto loaded = loadCheckpoint(opts.checkpointPath, key);
        if (loaded.ok()) {
            Deserializer des(loaded->payload);
            if (gpu->restoreState(des)) {
                inform("resumed %s/%s from %s (cycle %llu)",
                       config_name.c_str(), kernel.name,
                       loaded->path.c_str(),
                       static_cast<unsigned long long>(
                           loaded->cycle));
            } else {
                warn("checkpoint restore failed (%s); cold start",
                     des.status().message().c_str());
                // SyntheticKernel is stateless per workgroup index,
                // so only the chip needs rebuilding.
                gpu = std::make_unique<gpu::Gpu>(bundle.sim);
            }
        }
        gpu->setCheckpointHook(makeHook(opts, key));
    }
    if (trace != nullptr)
        gpu->attachTrace(trace);
    gpu::GpuResult run = gpu->run(k);
    if (!opts.checkpointPath.empty() && !run.preempted)
        removeCheckpoint(opts.checkpointPath);

    GpuOutcome out;
    out.config = config_name;
    out.kernel = kernel.name;
    out.cycles = run.cycles;
    out.issuedOps = run.issuedOps;
    out.timedOut = run.timedOut;
    out.preempted = run.preempted;
    out.energy = power::computeGpuEnergy(run.activity, bundle.units,
                                         run.seconds, bundle.numCus);
    out.metrics.seconds = run.seconds;
    out.metrics.energyJ = out.energy.totalJ();
    if (report != nullptr)
        fillGpuReport(*report, *gpu, run.activity, out, opts);
    return out;
}

std::vector<CpuOutcome>
runCpuSuite(const std::vector<CpuConfig> &cfgs,
            const std::vector<workload::AppProfile> &apps,
            const ExperimentOptions &opts)
{
    std::vector<CpuOutcome> out;
    out.reserve(cfgs.size() * apps.size());
    for (CpuConfig cfg : cfgs)
        for (const workload::AppProfile &app : apps)
            out.push_back(runCpuExperiment(cfg, app, opts));
    return out;
}

} // namespace hetsim::core
