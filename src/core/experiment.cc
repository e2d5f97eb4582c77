#include "core/experiment.hh"

#include <cstdio>
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

/** Name of the one section a run record is encoded as. */
constexpr const char *kRunRecordSection = "run-record";

/** The record of a finished, timed-out or preempted run; a preempted
 *  run keeps only its cycle count. */
template <typename Outcome>
RunRecord
recordOf(const Outcome &out, uint64_t ops)
{
    RunRecord rec;
    rec.cycles = out.cycles;
    if (out.preempted) {
        rec.status = Status::error(ErrorCode::Preempted,
                                   "preempted at a mid-run checkpoint");
        return rec;
    }
    if (out.timedOut)
        rec.status = Status::error(
            ErrorCode::Timeout, "cycle watchdog fired at %llu cycles",
            static_cast<unsigned long long>(out.cycles));
    rec.ops = ops;
    rec.seconds = out.metrics.seconds;
    rec.energyJ = out.metrics.energyJ;
    return rec;
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

std::string
runKey(uint64_t design_hash, const std::string &workload,
       const ExperimentOptions &opts)
{
    // Every field is named here, so a new one fails to compile until
    // it is keyed or ignored below.
    const auto &[seed, scale, freq_ghz, guardband, cores, watchdog,
                 no_skip, checkpoint_path, checkpoint_every, preempt] =
        opts;
    // Where a run checkpoints and who may preempt it do not change
    // its result. The cadence does: a drain pauses fetch.
    (void)checkpoint_path;
    (void)preempt;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "run-v1|%016llx|seed=%llu|scale=%a|freq=%a|guard=%d|"
                  "cores=%u|wd=%llu|skip=%d|every=%llu|",
                  static_cast<unsigned long long>(design_hash),
                  static_cast<unsigned long long>(seed), scale, freq_ghz,
                  guardband ? 1 : 0, cores,
                  static_cast<unsigned long long>(watchdog),
                  no_skip ? 0 : 1,
                  static_cast<unsigned long long>(checkpoint_every));
    return buf + workload;
}

RunRecord
runRecord(const CpuOutcome &out)
{
    return recordOf(out, out.committedOps);
}

RunRecord
runRecord(const GpuOutcome &out)
{
    return recordOf(out, out.issuedOps);
}

std::string
encodeRunRecord(const RunRecord &rec)
{
    Serializer ser;
    ser.beginSection(kRunRecordSection);
    ser.putU8(static_cast<uint8_t>(rec.status.code()));
    ser.putString(rec.status.message());
    ser.putU64(rec.cycles);
    ser.putU64(rec.ops);
    ser.putDouble(rec.seconds);
    ser.putDouble(rec.energyJ);
    ser.putString(rec.reportJson);
    ser.endSection();
    return ser.take();
}

Result<RunRecord>
decodeRunRecord(std::string_view bytes)
{
    Deserializer des(bytes);
    des.openSection(kRunRecordSection);
    const uint8_t code = des.getU8();
    const std::string message = des.getString();
    RunRecord rec;
    rec.cycles = des.getU64();
    rec.ops = des.getU64();
    rec.seconds = des.getDouble();
    rec.energyJ = des.getDouble();
    rec.reportJson = des.getString();
    des.closeSection();
    if (!des.atEnd())
        des.fail("bytes after the run record");
    // Preempted is the last ErrorCode.
    if (code > static_cast<uint8_t>(ErrorCode::Preempted))
        des.fail("run record error code out of range");
    if (!des.ok())
        return des.status();
    if (code != static_cast<uint8_t>(ErrorCode::Ok))
        rec.status = Status::error(static_cast<ErrorCode>(code), "%s",
                                   message.c_str());
    return rec;
}

CpuOutcome
runCpuExperiment(CpuConfig cfg, const workload::AppProfile &app,
                 const ExperimentOptions &opts, obs::RunReport *report,
                 obs::TraceBuffer *trace,
                 const workload::CpuRecording *recording)
{
    return runCpuBundle(makeCpuConfig(cfg, opts.freqGhz),
                        cpuConfigName(cfg),
                        designHash(cpuHybridFromConfig(cfg)), app, opts,
                        report, trace, recording);
}

CpuOutcome
runCpuBundle(const CpuConfigBundle &bundle_in,
             const std::string &config_name, uint64_t design_hash,
             const workload::AppProfile &app,
             const ExperimentOptions &opts, obs::RunReport *report,
             obs::TraceBuffer *trace,
             const workload::CpuRecording *recording)
{
    CpuConfigBundle bundle = bundle_in;
    if (opts.coresOverride > 0) {
        bundle.numCores = opts.coresOverride;
        bundle.sim.mem.numCores = opts.coresOverride;
    }
    applyChipOptions(bundle.sim, opts);

    hetsim_assert(recording == nullptr ||
                      recording->records(app, opts.seed, opts.scale),
                  "recording is not this run's workload (%s, seed "
                  "%llu, scale %g)", app.name,
                  static_cast<unsigned long long>(opts.seed),
                  opts.scale);
    // Fresh cursors at every thread's first op: over the recording
    // when it has one thread per core, else new generators.
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    std::vector<cpu::TraceSource *> ptrs;
    auto open_traces = [&] {
        traces = recording != nullptr &&
                recording->numThreads() == bundle.numCores
            ? recording->open()
            : workload::makeCpuWorkload(app, bundle.numCores,
                                        opts.seed, opts.scale);
        ptrs.clear();
        for (auto &t : traces)
            ptrs.push_back(t.get());
    };
    open_traces();

    auto mc = std::make_unique<cpu::Multicore>(bundle.sim, ptrs);
    if (!opts.checkpointPath.empty()) {
        const std::string key = runKey(design_hash, app.name, opts);
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
                // The failed restore part-consumed the traces:
                // reopen them and rebuild the chip from scratch.
                open_traces();
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
                        gpuConfigName(cfg),
                        designHash(gpuHybridFromConfig(cfg)), kernel,
                        opts, report, trace);
}

GpuOutcome
runGpuBundle(const GpuConfigBundle &bundle_in,
             const std::string &config_name, uint64_t design_hash,
             const workload::KernelProfile &kernel,
             const ExperimentOptions &opts, obs::RunReport *report,
             obs::TraceBuffer *trace)
{
    GpuConfigBundle bundle = bundle_in;
    applyChipOptions(bundle.sim, opts);

    workload::SyntheticKernel k(kernel, opts.seed, opts.scale);
    auto gpu = std::make_unique<gpu::Gpu>(bundle.sim);
    if (!opts.checkpointPath.empty()) {
        const std::string key = runKey(design_hash, kernel.name, opts);
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

} // namespace hetsim::core
