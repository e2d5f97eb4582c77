#include "gpu/gpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::gpu
{

using power::GpuUnit;

GpuMemSystem::GpuMemSystem(const GpuParams &params)
    : params_(params), dram_(params.dramRt, 2, 4)
{
    for (uint32_t c = 0; c < params.numCus; ++c) {
        mem::CacheParams p{"gpu.l1." + std::to_string(c),
                           params.l1SizeBytes, params.l1Ways,
                           mem::kLineBytes, false};
        l1_.push_back(std::make_unique<mem::Cache>(p));
    }
    mem::CacheParams p{"gpu.l2", params.l2SizeBytes, params.l2Ways,
                       mem::kLineBytes, false};
    l2_ = std::make_unique<mem::Cache>(p);
}

uint32_t
GpuMemSystem::access(uint32_t cu, uint64_t addr, bool is_store,
                     Cycle now)
{
    addr = mem::lineAlign(addr);
    mem::Cache &l1 = *l1_[cu];

    auto handle_l1_eviction = [&](const mem::Eviction &ev) {
        if (!ev.valid || !ev.dirty)
            return;
        // Non-inclusive L2: merge into L2 if resident, else go to
        // memory.
        if (l2_->contains(ev.lineAddr))
            l2_->markDirty(ev.lineAddr);
        else
            dram_.writeback(ev.lineAddr, now);
    };

    if (l1.access(addr).hit) {
        if (is_store)
            l1.markDirty(addr);
        return params_.l1Rt;
    }

    uint32_t latency;
    if (l2_->access(addr).hit) {
        latency = params_.l2Rt;
    } else {
        latency = params_.l2Rt + dram_.access(addr, now);
        const mem::Eviction ev =
            l2_->fill(addr, mem::CoherenceState::Shared);
        if (ev.valid && ev.dirty)
            dram_.writeback(ev.lineAddr, now);
    }
    handle_l1_eviction(l1.fill(addr, mem::CoherenceState::Shared));
    if (is_store)
        l1.markDirty(addr);
    return latency;
}

Gpu::Gpu(const GpuParams &params) : params_(params), mem_(params_)
{
    hetsim_assert(params_.numCus >= 1, "GPU needs compute units");
    for (uint32_t c = 0; c < params_.numCus; ++c)
        cus_.push_back(
            std::make_unique<ComputeUnit>(params_.cu, c, &mem_));
}

void
Gpu::attachTrace(obs::TraceBuffer *buf)
{
    for (auto &cu : cus_)
        cu->attachTrace(buf);
}

GpuResult
Gpu::run(GpuKernel &kernel)
{
    const uint32_t wpg = kernel.wavefrontsPerGroup();
    hetsim_assert(wpg >= 1 && wpg <= params_.cu.maxWavefronts,
                  "workgroup does not fit a CU (%u wavefronts)", wpg);

    uint32_t next_group = resumeNextGroup_;
    const uint32_t total_groups = kernel.numWorkgroups();
    Cycle now = resumeCycle_;

    bool timed_out = false;
    bool preempted = false;
    uint64_t skipped = resumeSkipped_;
    uint64_t cu_ticks = 0;

    // The clock tree toggles once per CU per cycle, ticked or not, so
    // it is credited by arithmetic whenever activity is read: before
    // each checkpoint save and at exit.
    Cycle clocked = now;
    auto credit_clock = [&] {
        for (auto &cu : cus_)
            cu->creditCycles(now - clocked);
        clocked = now;
    };

    // Skip path: a CU is ticked only once `now` reaches its wake
    // cycle, before which its tick could change nothing. All start
    // awake, so the first tick rebuilds each wake from the CU's
    // (possibly restored) state.
    std::vector<Cycle> wake(cus_.size(), now);

    // Next periodic checkpoint cycle; same formula at cold start,
    // after each save, and on resume (see CheckpointHook).
    Cycle ckpt_target = hook_.everyCycles > 0
        ? (now / hook_.everyCycles + 1) * hook_.everyCycles
        : mem::kNoEvent;
    bool draining = false;

    while (true) {
        if (params_.watchdogCycles > 0 &&
            now >= params_.watchdogCycles) {
            timed_out = true;
            break;
        }
        hetsim_assert(now < params_.maxCycles,
                      "GPU exceeded cycle budget; deadlock?");

        // Arm a checkpoint drain when the periodic cadence is due:
        // workgroup launches stop and the resident wavefronts run to
        // completion (all-idle quiesce). A preemption request rides
        // the next periodic drain — a quiesce point the uninterrupted
        // twin also passes through, which is what keeps a resumed run
        // byte-identical to it. Only in preempt-only mode (no
        // cadence) does a preemption drain immediately.
        if (!draining && hook_.save &&
            (now >= ckpt_target ||
             (hook_.everyCycles == 0 && hook_.preempt &&
              *hook_.preempt)))
            draining = true;

        // Dispatch: each CU may receive one workgroup per cycle
        // (gated while a checkpoint drain is in progress).
        if (!draining) {
            for (uint32_t c = 0;
                 c < cus_.size() && next_group < total_groups; ++c) {
                if (cus_[c]->freeSlots() >= wpg) {
                    cus_[c]->launchWorkgroup(kernel, next_group++);
                    wake[c] = now;
                }
            }
        }

        bool all_idle = true;
        bool slot_free = false; // some CU could take a workgroup
        Cycle next_wake = mem::kNoEvent;
        for (uint32_t c = 0; c < cus_.size(); ++c) {
            ComputeUnit &cu = *cus_[c];
            if (!params_.skipEnabled || wake[c] <= now) {
                ++cu_ticks;
                if (cu.tick(now))
                    wake[c] = now + 1;
                else if (params_.skipEnabled)
                    wake[c] = cu.nextEventCycle(now + 1);
            }
            next_wake = std::min(next_wake, wake[c]);
            all_idle = all_idle && cu.idle();
            slot_free = slot_free || cu.freeSlots() >= wpg;
        }
        ++now;

        if (next_group >= total_groups && all_idle)
            break;

        if (draining && all_idle) {
            credit_clock();
            Serializer ser(std::move(ckptBuf_));
            saveState(ser, now, next_group, skipped);
            ckptBuf_ = ser.take();
            hook_.save(now, ckptBuf_);
            draining = false;
            if (hook_.preempt && *hook_.preempt) {
                preempted = true;
                break;
            }
            ckpt_target = hook_.everyCycles > 0
                ? (now / hook_.everyCycles + 1) * hook_.everyCycles
                : mem::kNoEvent;
            continue; // re-enter with launches ungated
        }

        if (params_.skipEnabled) {
            // Jump to the earliest wake. A free slot pins the clock
            // while workgroups are pending: the next cycle launches
            // one. Launches are gated during a drain, so the drain
            // itself skips forward through the resident wavefronts'
            // memory waits.
            if (!draining && next_group < total_groups && slot_free)
                next_wake = now;
            // Never skip past where the reference loop would stop. A
            // kNoEvent horizon (a deadlocked kernel) degenerates to a
            // jump to that same stopping point.
            const Cycle limit = params_.watchdogCycles > 0
                ? params_.watchdogCycles : params_.maxCycles;
            next_wake = std::min(next_wake, limit);
            if (next_wake > now) {
                skipped += next_wake - now;
                now = next_wake;
            }
        }
    }
    credit_clock();

    GpuResult res;
    res.timedOut = timed_out;
    res.preempted = preempted;
    res.skippedCycles = skipped;
    res.cuTicks = cu_ticks;
    res.cycles = now;
    res.seconds = power::secondsAtFreq(now, params_.freqGhz);
    for (auto &cu : cus_) {
        res.issuedOps += cu->issuedOps();
        const power::GpuActivity &a = cu->activity();
        for (int i = 0; i < power::kNumGpuUnits; ++i)
            res.activity[i] += a[i];
    }
    // Cache activity.
    uint64_t l1 = 0;
    for (uint32_t c = 0; c < params_.numCus; ++c) {
        const auto &s = mem_.l1(c).stats();
        l1 += s.value("accesses") + s.value("fills");
    }
    const auto &l2s = mem_.l2().stats();
    res.activity[static_cast<int>(GpuUnit::L1)] += l1;
    res.activity[static_cast<int>(GpuUnit::L2)] +=
        l2s.value("accesses") + l2s.value("fills");
    return res;
}

void
GpuMemSystem::saveState(Serializer &ser) const
{
    for (const auto &l1 : l1_)
        l1->saveState(ser);
    l2_->saveState(ser);
    dram_.saveState(ser);
}

void
GpuMemSystem::restoreState(Deserializer &des)
{
    for (auto &l1 : l1_)
        l1->restoreState(des);
    l2_->restoreState(des);
    dram_.restoreState(des);
}

void
Gpu::saveState(Serializer &ser, uint64_t now, uint32_t next_group,
               uint64_t skipped) const
{
    ser.beginSection("gpu");
    ser.putU32(static_cast<uint32_t>(cus_.size()));
    ser.putU64(now);
    ser.putU32(next_group);
    ser.putU64(skipped);
    ser.endSection();
    mem_.saveState(ser);
    for (const auto &cu : cus_)
        cu->saveState(ser);
}

bool
Gpu::restoreState(Deserializer &des)
{
    des.openSection("gpu");
    if (des.getU32() != cus_.size()) {
        des.fail("CU count mismatch");
        return false;
    }
    resumeCycle_ = des.getU64();
    resumeNextGroup_ = des.getU32();
    resumeSkipped_ = des.getU64();
    des.closeSection();
    mem_.restoreState(des);
    for (auto &cu : cus_)
        cu->restoreState(des);
    return des.ok();
}

} // namespace hetsim::gpu
