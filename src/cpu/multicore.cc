#include "cpu/multicore.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::cpu
{

using power::CpuUnit;

namespace
{

constexpr int
unitIdx(CpuUnit u)
{
    return static_cast<int>(u);
}

} // namespace

Multicore::Multicore(const MulticoreParams &params,
                     std::vector<TraceSource *> traces)
    : params_(params)
{
    hetsim_assert(traces.size() == params.mem.numCores,
                  "need one trace per core (%zu vs %u)", traces.size(),
                  params.mem.numCores);
    hetsim_assert(params.coreSpecs.empty() ||
                  params.coreSpecs.size() == params.mem.numCores,
                  "coreSpecs must be empty or one per core");
    hier_ = std::make_unique<mem::MemHierarchy>(params.mem);
    sync_ = std::make_unique<SyncController>(params.mem.numCores,
                                             hier_.get());
    for (uint32_t c = 0; c < params.mem.numCores; ++c) {
        CoreParams cp = params.coreSpecs.empty()
            ? params.core : params.coreSpecs[c].core;
        // --no-skip selects the reference per-cycle loop end to end:
        // no event-horizon jumps and no wakeup-driven issue, so the
        // bit-identity comparison exercises the plain scheduler.
        if (!params.skipEnabled)
            cp.wakeupIssue = false;
        cores_.push_back(std::make_unique<OooCore>(
            cp, c, hier_.get(), traces[c]));
        cores_.back()->setSyncController(sync_.get());
    }
    resumeRunning_ = cores_.size(); // a cold start runs every core
}

void
Multicore::attachTrace(obs::TraceBuffer *buf)
{
    for (auto &core : cores_)
        core->attachTrace(buf);
    hier_->attachTrace(buf);
}

MulticoreResult
Multicore::run()
{
    MulticoreResult res;
    mem::Cycle now = resumeCycle_;
    res.barrierReleases = resumeBarrierReleases_;
    res.skippedCycles = resumeSkippedCycles_;
    // A restored chip resumes with the loop's own count, which can be
    // stale: releasing the last barrier may finish every core after
    // `running` was counted, and the uninterrupted loop then runs one
    // more (empty) iteration before it exits.
    uint64_t running = resumeRunning_;

    // Next periodic checkpoint cycle. Computed the same way at cold
    // start, after each save, and on resume, so an interrupted run
    // and its uninterrupted twin drain at identical cycles.
    mem::Cycle ckpt_target = hook_.everyCycles > 0
        ? (now / hook_.everyCycles + 1) * hook_.everyCycles
        : mem::kNoEvent;
    bool draining = false;

    while (running > 0) {
        if (params_.watchdogCycles > 0 &&
            now >= params_.watchdogCycles) {
            res.timedOut = true;
            break;
        }
        hetsim_assert(now < params_.maxCycles,
                      "exceeded cycle budget; deadlock?");

        // Arm a checkpoint drain when the periodic cadence is due:
        // cores stop pulling trace ops and the in-flight window
        // retires toward a quiesce point. A preemption request rides
        // the next periodic drain — that quiesce point is one the
        // uninterrupted twin also passes through, which is what keeps
        // a resumed run byte-identical to it. Only in preempt-only
        // mode (no cadence) does a preemption drain immediately.
        if (!draining && hook_.save &&
            (now >= ckpt_target ||
             (hook_.everyCycles == 0 && hook_.preempt &&
              *hook_.preempt))) {
            draining = true;
            for (auto &core : cores_)
                core->setDrainGate(true);
        }

        bool any_progress = false;
        for (uint32_t c = 0; c < cores_.size(); ++c) {
            // Slower (e.g. TFET) cores tick every Nth chip cycle.
            const uint32_t div = params_.coreSpecs.empty()
                ? 1 : params_.coreSpecs[c].tickDivisor;
            if (div > 1 && now % div != 0)
                continue;
            if (!cores_[c]->finished())
                any_progress |= cores_[c]->tick(now);
        }

        // Barrier protocol: once every unfinished core is parked at a
        // barrier, release them all together.
        running = 0;
        uint64_t at_barrier = 0;
        for (auto &core : cores_) {
            if (core->finished())
                continue;
            ++running;
            if (core->waitingAtBarrier())
                ++at_barrier;
        }
        if (running > 0 && at_barrier == running) {
            for (auto &core : cores_) {
                if (!core->finished() && core->waitingAtBarrier()) {
                    sync_->noteBarrierWait(now -
                                           core->barrierParkedAt());
                    core->releaseBarrier();
                }
            }
            ++res.barrierReleases;
        }
        ++now;

        if (draining) {
            bool quiesced = true;
            for (auto &core : cores_) {
                if (!core->quiescedForCheckpoint()) {
                    quiesced = false;
                    break;
                }
            }
            if (quiesced) {
                Serializer ser;
                saveState(ser, now, running, res);
                hook_.save(now, ser.data());
                for (auto &core : cores_)
                    core->setDrainGate(false);
                draining = false;
                if (hook_.preempt && *hook_.preempt) {
                    res.preempted = true;
                    break;
                }
                ckpt_target = hook_.everyCycles > 0
                    ? (now / hook_.everyCycles + 1) *
                        hook_.everyCycles
                    : mem::kNoEvent;
                continue; // skip decisions belong to ungated state
            }
        }

        if (params_.skipEnabled && running > 0 && !any_progress) {
            // Event horizon: the earliest cycle any unfinished core
            // can act, aligned up to that core's own tick grid. Every
            // skipped-over tick is a pure stall the core reproduces
            // via creditStalledTicks(), so reports are bit-identical
            // to the per-cycle reference loop. Only consulted once a
            // whole tick passes with no pipeline motion: during active
            // phases the horizon is almost always `now`, so computing
            // it would be pure overhead.
            mem::Cycle target = mem::kNoEvent;
            bool any_unfinished = false;
            for (uint32_t c = 0; c < cores_.size(); ++c) {
                if (cores_[c]->finished())
                    continue;
                any_unfinished = true;
                mem::Cycle e = cores_[c]->nextEventCycle(now);
                if (e == mem::kNoEvent)
                    continue;
                const uint64_t div = params_.coreSpecs.empty()
                    ? 1 : params_.coreSpecs[c].tickDivisor;
                if (div > 1)
                    e = (e + div - 1) / div * div;
                target = std::min(target, e);
                if (target == now)
                    break; // no skip possible; stop walking
            }
            // A barrier release can retire the last cores mid-
            // iteration (stale `running`); with no unfinished core
            // there is nothing to wait for, so never skip.
            if (!any_unfinished)
                target = now;
            // Never skip past the point where the reference loop
            // would stop (watchdog timeout or cycle-budget panic).
            const mem::Cycle limit = params_.watchdogCycles > 0
                ? params_.watchdogCycles : params_.maxCycles;
            if (target > limit)
                target = limit;
            if (target > now) {
                for (uint32_t c = 0; c < cores_.size(); ++c) {
                    if (cores_[c]->finished())
                        continue;
                    const uint64_t div = params_.coreSpecs.empty()
                        ? 1 : params_.coreSpecs[c].tickDivisor;
                    // Ticked cycles in [now, target) on this core's
                    // grid (multiples of div).
                    const uint64_t n =
                        (target - 1) / div - (now - 1) / div;
                    cores_[c]->creditStalledTicks(n);
                }
                res.skippedCycles += target - now;
                now = target;
            }
        }
    }

    res.cycles = now;
    res.seconds = power::secondsAtFreq(now, params_.freqGhz);
    for (auto &core : cores_) {
        res.committedOps += core->committedOps();
        const power::CpuActivity &a = core->activity();
        for (int i = 0; i < power::kNumCpuUnits; ++i)
            res.activity[i] += a[i];
    }
    collectMemActivity(res.activity);
    return res;
}

power::CpuActivity
Multicore::coreActivity(uint32_t c) const
{
    power::CpuActivity activity = cores_[c]->activity();
    const auto &il1s = hier_->il1(c).stats();
    const auto &dl1s = hier_->dl1(c).stats();
    const auto &l2s = hier_->l2(c).stats();
    activity[unitIdx(CpuUnit::Il1)] +=
        il1s.value("accesses") + il1s.value("fills");
    if (params_.mem.asymDl1) {
        // Every access probes the fast way; the slow array is
        // touched on fast-way misses and on the swap traffic of
        // promotions/demotions (each swap costs one slow-array
        // transfer plus the fast-way write counted with the fill).
        const uint64_t acc = dl1s.value("accesses");
        const uint64_t fast_hits = dl1s.value("fast_hits");
        const uint64_t fills = dl1s.value("fills");
        activity[unitIdx(CpuUnit::Dl1Fast)] += acc + fills;
        activity[unitIdx(CpuUnit::Dl1)] +=
            (acc - fast_hits) + dl1s.value("demotions");
    } else {
        activity[unitIdx(CpuUnit::Dl1)] +=
            dl1s.value("accesses") + dl1s.value("fills");
    }
    activity[unitIdx(CpuUnit::L2)] +=
        l2s.value("accesses") + l2s.value("fills");
    if (const mem::Scratchpad *sp = hier_->scratchpad())
        activity[unitIdx(CpuUnit::Scratchpad)] +=
            sp->coreAccesses(c);
    return activity;
}

power::CpuActivity
Multicore::sharedActivity() const
{
    power::CpuActivity activity{};
    const auto &l3s = hier_->l3().stats();
    activity[unitIdx(CpuUnit::L3)] =
        l3s.value("accesses") + l3s.value("fills");
    activity[unitIdx(CpuUnit::Noc)] =
        hier_->ring().stats().value("messages") +
        l3s.value("accesses");
    return activity;
}

void
Multicore::collectMemActivity(power::CpuActivity &activity) const
{
    for (uint32_t c = 0; c < cores_.size(); ++c) {
        const power::CpuActivity per_core = coreActivity(c);
        const power::CpuActivity &raw = cores_[c]->activity();
        // coreActivity includes the core-unit counts already summed
        // by the caller; add only the cache deltas here.
        for (int i = 0; i < power::kNumCpuUnits; ++i)
            activity[i] += per_core[i] - raw[i];
    }
    const power::CpuActivity shared = sharedActivity();
    for (int i = 0; i < power::kNumCpuUnits; ++i)
        activity[i] += shared[i];
}

void
Multicore::saveState(Serializer &ser, uint64_t now, uint64_t running,
                     const MulticoreResult &res) const
{
    ser.beginSection("chip");
    ser.putU32(static_cast<uint32_t>(cores_.size()));
    ser.putU64(now);
    ser.putU64(running);
    ser.putU64(res.barrierReleases);
    ser.putU64(res.skippedCycles);
    ser.endSection();
    hier_->saveState(ser);
    sync_->saveState(ser);
    for (const auto &core : cores_)
        core->saveState(ser);
}

bool
Multicore::restoreState(Deserializer &des)
{
    des.openSection("chip");
    if (des.getU32() != cores_.size()) {
        des.fail("core count mismatch");
        return false;
    }
    resumeCycle_ = des.getU64();
    resumeRunning_ = des.getU64();
    if (resumeRunning_ > cores_.size()) {
        des.fail("running core count above core count");
        return false;
    }
    resumeBarrierReleases_ = des.getU64();
    resumeSkippedCycles_ = des.getU64();
    des.closeSection();
    hier_->restoreState(des);
    sync_->restoreState(des);
    for (auto &core : cores_)
        core->restoreState(des);
    return des.ok();
}

} // namespace hetsim::cpu
