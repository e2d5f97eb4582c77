#include "gpu/compute_unit.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::gpu
{

using power::GpuUnit;

namespace
{

constexpr int
unitIdx(GpuUnit u)
{
    return static_cast<int>(u);
}

} // namespace

ComputeUnit::CuCounters::CuCounters(StatGroup &sg)
    : workgroupsLaunched(sg.counter("workgroups_launched")),
      workgroupsRetired(sg.counter("workgroups_retired")),
      rfCacheReadHits(sg.counter("rf_cache_read_hits")),
      rfCacheReadMisses(sg.counter("rf_cache_read_misses")),
      rfFastPartitionReads(sg.counter("rf_fast_partition_reads")),
      vloads(sg.counter("vloads")),
      vstores(sg.counter("vstores")),
      barrierReleases(sg.counter("barrier_releases"))
{
}

ComputeUnit::ComputeUnit(const CuParams &params, uint32_t cu_id,
                         GpuMemInterface *mem)
    : params_(params), cuId_(cu_id), mem_(mem),
      stats_("cu." + std::to_string(cu_id)), ctrs_(stats_)
{
    hetsim_assert(mem_ != nullptr, "CU needs a memory interface");
    hetsim_assert(params_.lanes >= 1 &&
                  kWavefrontSize % params_.lanes == 0,
                  "wavefront size must be a multiple of lane count");
    beats_ = kWavefrontSize / params_.lanes;
    slots_.reserve(params_.maxWavefronts);
    for (uint32_t i = 0; i < params_.maxWavefronts; ++i)
        slots_.emplace_back(params_.rfCacheEntries);
    groups_.resize(params_.maxWavefronts);
}

void
ComputeUnit::launchWorkgroup(GpuKernel &kernel, uint32_t workgroup)
{
    const uint32_t wpg = kernel.wavefrontsPerGroup();
    hetsim_assert(freeSlots() >= wpg,
                  "launching a workgroup without enough slots");

    // Find a free group slot.
    uint32_t gslot = 0;
    while (gslot < groups_.size() && groups_[gslot].valid)
        ++gslot;
    hetsim_assert(gslot < groups_.size(), "no free group slot");
    groups_[gslot].valid = true;
    groups_[gslot].wavefronts = wpg;

    uint32_t launched = 0;
    for (Wavefront &wf : slots_) {
        if (launched == wpg)
            break;
        if (wf.state() != WavefrontState::Idle)
            continue;
        wf.assign(kernel.makeWavefront(workgroup, launched), gslot);
        ++launched;
    }
    occupied_ += wpg;
    ++ctrs_.workgroupsLaunched;
}

uint32_t
ComputeUnit::readLatency(Wavefront &wf, int16_t vreg)
{
    if (vreg < 0)
        return 0;
    const GpuTimings &t = params_.timings;
    if (t.useRfCache && wf.rfCache().readHit(vreg)) {
        ++activity_[unitIdx(GpuUnit::RfCache)];
        ++ctrs_.rfCacheReadHits;
        return t.rfCacheLat;
    }
    if (t.partitionedRf &&
        vreg < static_cast<int16_t>(t.fastPartitionRegs)) {
        ++activity_[unitIdx(GpuUnit::VectorRfFast)];
        ++ctrs_.rfFastPartitionReads;
        return 1;
    }
    ++activity_[unitIdx(GpuUnit::VectorRf)];
    if (t.useRfCache)
        ++ctrs_.rfCacheReadMisses;
    return t.rfLat;
}

uint32_t
ComputeUnit::writeLatency(Wavefront &wf, int16_t vreg)
{
    if (vreg < 0)
        return 0;
    const GpuTimings &t = params_.timings;
    if (t.partitionedRf &&
        vreg < static_cast<int16_t>(t.fastPartitionRegs)) {
        ++activity_[unitIdx(GpuUnit::VectorRfFast)];
        return 1;
    }
    // Writes are always sent to the main RF (write-through); with the
    // RF cache they also allocate there and complete at cache speed.
    ++activity_[unitIdx(GpuUnit::VectorRf)];
    if (t.useRfCache) {
        wf.rfCache().write(vreg);
        ++activity_[unitIdx(GpuUnit::RfCache)];
        return t.rfCacheLat;
    }
    return t.rfLat;
}

Cycle
ComputeUnit::portFreeAt(GpuOpClass cls) const
{
    switch (cls) {
      case GpuOpClass::VAlu:
        return simdFreeAt_;
      case GpuOpClass::SAlu:
        return saluFreeAt_;
      case GpuOpClass::LdsOp:
        return ldsFreeAt_;
      case GpuOpClass::VLoad:
      case GpuOpClass::VStore:
        return memFreeAt_;
      case GpuOpClass::SBarrier:
        break;
    }
    return 0;
}

bool
ComputeUnit::tryIssue(Wavefront &wf, Cycle now)
{
    const GpuOp &op = wf.currentOp();
    const GpuTimings &t = params_.timings;

    // A busy port refuses the op before any side effect, which is
    // what lets a CU sleep until nextEventCycle().
    if (portFreeAt(op.cls) > now)
        return false;

    switch (op.cls) {
      case GpuOpClass::VAlu:
      {
        // Operand collection through the banked vector RF gates the
        // SIMD pipe: each source is read through a bank port, so a
        // 3-operand FMA occupies the unit for the larger of its
        // issue beats and its serialized operand reads. This is how
        // the slower TFET RF costs *throughput*, and what the
        // register-file cache buys back (Section IV-C3).
        uint32_t read_sum = 0;
        uint32_t read_max = 0;
        for (int i = 0; i < op.numSrcs; ++i) {
            const uint32_t lat = readLatency(wf, op.src[i]);
            read_sum += lat;
            read_max = std::max(read_max, lat);
        }
        const uint32_t write_lat = writeLatency(wf, op.dst);
        // The destination write-back consumes a bank port too, so a
        // CMOS FMA (3 reads + 1 write at 1 cycle each) exactly fills
        // its 4 issue beats while the TFET RF halves the sustainable
        // rate unless the RF cache absorbs the traffic.
        const uint32_t occupancy =
            std::max(beats_, read_sum + write_lat);
        simdFreeAt_ = now + occupancy;
        const Cycle dst_ready = now + read_max + (beats_ - 1)
            + t.fmaLat + write_lat;
        ++activity_[unitIdx(GpuUnit::SimdFma)];
        wf.completeIssue(now, dst_ready);
        return true;
      }

      case GpuOpClass::SAlu:
      {
        saluFreeAt_ = now + 1;
        ++activity_[unitIdx(GpuUnit::Salu)];
        wf.completeIssue(now, now + t.saluLat);
        return true;
      }

      case GpuOpClass::LdsOp:
      {
        uint32_t read_sum = 0, read_max = 0;
        for (int i = 0; i < op.numSrcs; ++i) {
            const uint32_t lat = readLatency(wf, op.src[i]);
            read_sum += lat;
            read_max = std::max(read_max, lat);
        }
        ldsFreeAt_ = now + std::max(1u, read_sum);
        const uint32_t write_lat = writeLatency(wf, op.dst);
        ++activity_[unitIdx(GpuUnit::Lds)];
        wf.completeIssue(now,
                         now + read_max + t.ldsLat + write_lat);
        return true;
      }

      case GpuOpClass::VLoad:
      case GpuOpClass::VStore:
      {
        const bool is_store = op.cls == GpuOpClass::VStore;
        uint32_t read_sum = 0, read_lat = 0;
        for (int i = 0; i < op.numSrcs; ++i) {
            const uint32_t lat = readLatency(wf, op.src[i]);
            read_sum += lat;
            read_lat = std::max(read_lat, lat);
        }
        // Address (and store-data) operand reads gate the memory
        // port just like they gate the SIMD pipe.
        memFreeAt_ = now + std::max(beats_, read_sum);
        // The coalescer issues one line per cycle.
        uint32_t mem_lat = 0;
        for (uint32_t l = 0; l < op.numLines; ++l) {
            const uint32_t lat = mem_->access(
                cuId_, op.addr + static_cast<uint64_t>(l) * 64,
                is_store, now + l);
            mem_lat = std::max(mem_lat, l + lat);
        }
        Cycle done = now + read_lat + mem_lat;
        if (!is_store)
            done += writeLatency(wf, op.dst);
        ++(is_store ? ctrs_.vstores : ctrs_.vloads);
        wf.completeIssue(now, is_store ? now + 1 : done);
        return true;
      }

      case GpuOpClass::SBarrier:
        // Barriers never reach tryIssue: staging one parks the
        // wavefront.
        panic("barrier reached issue");
    }
    return false;
}

bool
ComputeUnit::checkBarriers()
{
    bool released = false;
    for (uint32_t g = 0; g < groups_.size(); ++g) {
        if (!groups_[g].valid)
            continue;
        uint32_t members = 0, parked = 0;
        for (const Wavefront &wf : slots_) {
            if (wf.state() == WavefrontState::Idle ||
                wf.workgroupSlot() != g)
                continue;
            if (wf.state() == WavefrontState::Done)
                continue;
            ++members;
            if (wf.state() == WavefrontState::AtBarrier)
                ++parked;
        }
        if (members > 0 && parked == members) {
            for (Wavefront &wf : slots_) {
                if (wf.state() == WavefrontState::AtBarrier &&
                    wf.workgroupSlot() == g)
                    wf.releaseBarrier();
            }
            ++ctrs_.barrierReleases;
            released = true;
        }
    }
    return released;
}

bool
ComputeUnit::reapFinished()
{
    bool reaped = false;
    for (Wavefront &wf : slots_) {
        if (wf.state() != WavefrontState::Done)
            continue;
        reaped = true;
        const uint32_t g = wf.workgroupSlot();
        hetsim_assert(groups_[g].valid && groups_[g].wavefronts > 0,
                      "group accounting broken");
        --groups_[g].wavefronts;
        if (groups_[g].wavefronts == 0) {
            groups_[g].valid = false;
            ++ctrs_.workgroupsRetired;
        }
        wf.release();
        --occupied_;
    }
    return reaped;
}

bool
ComputeUnit::tick(Cycle now)
{
    // Round-robin: try each wavefront once, starting after the last
    // issuer; at most one instruction issues per cycle.
    bool progress = false;
    const uint32_t n = static_cast<uint32_t>(slots_.size());
    for (uint32_t i = 0; i < n; ++i) {
        Wavefront &wf = slots_[(rrNext_ + i) % n];
        if (!wf.canIssue(now))
            continue;
        // completeIssue() advances the staged op, so capture the one
        // being issued before tryIssue.
        const GpuOp staged = wf.currentOp();
        if (tryIssue(wf, now)) {
            rrNext_ = (rrNext_ + i + 1) % n;
            ++issuedOps_;
            ++activity_[unitIdx(GpuUnit::FetchIssue)];
            HETSIM_TRACE(traceBuf_, now, cuId_,
                         obs::TraceEvent::WavefrontIssue, staged.addr,
                         static_cast<uint8_t>(staged.cls));
            progress = true;
            break;
        }
    }
    progress |= checkBarriers();
    progress |= reapFinished();
    return progress;
}

Cycle
ComputeUnit::nextEventCycle(Cycle from) const
{
    // Only Active wavefronts act on their own. AtBarrier slots wake
    // through another wavefront's issue reaching the barrier, Done
    // slots are reaped in the tick that completes them, and Idle
    // slots wait for an external launch. Port free cycles move only
    // when an op issues, which is progress, after which the run loop
    // ticks the CU again anyway.
    Cycle next = mem::kNoEvent;
    for (const Wavefront &wf : slots_) {
        if (wf.state() != WavefrontState::Active)
            continue;
        next = std::min(next, std::max(wf.nextReadyCycle(),
                                       portFreeAt(wf.currentOp().cls)));
    }
    return next == mem::kNoEvent ? next : std::max(from, next);
}

void
ComputeUnit::creditCycles(uint64_t n)
{
    activity_[unitIdx(GpuUnit::ClockTree)] += n;
}

void
ComputeUnit::saveState(Serializer &ser) const
{
    hetsim_assert(idle(), "CU checkpoint outside an idle quiesce");
    ser.beginSection("cu");
    ser.putU32(cuId_);
    ser.putU64(simdFreeAt_);
    ser.putU64(saluFreeAt_);
    ser.putU64(ldsFreeAt_);
    ser.putU64(memFreeAt_);
    ser.putU32(rrNext_);
    ser.putU64(issuedOps_);
    for (uint64_t a : activity_)
        ser.putU64(a);
    stats_.saveState(ser);
    ser.endSection();
}

void
ComputeUnit::restoreState(Deserializer &des)
{
    des.openSection("cu");
    if (des.getU32() != cuId_) {
        des.fail("CU id mismatch");
        return;
    }
    simdFreeAt_ = des.getU64();
    saluFreeAt_ = des.getU64();
    ldsFreeAt_ = des.getU64();
    memFreeAt_ = des.getU64();
    rrNext_ = des.getU32();
    issuedOps_ = des.getU64();
    for (uint64_t &a : activity_)
        a = des.getU64();
    stats_.restoreState(des);
    des.closeSection();
}

} // namespace hetsim::gpu
