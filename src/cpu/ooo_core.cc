#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "cpu/sync.hh"

namespace hetsim::cpu
{

using mem::AccessType;
using mem::Cycle;
using power::CpuUnit;

namespace
{

constexpr size_t kFetchQueueCap = 16;

constexpr int
unitIdx(CpuUnit u)
{
    return static_cast<int>(u);
}

} // namespace

OooCore::CoreCounters::CoreCounters(StatGroup &sg)
    : il1MissStalls(sg.counter("il1_miss_stalls")),
      mispredictBlocks(sg.counter("mispredict_blocks")),
      barrierDrainStalls(sg.counter("barrier_drain_stalls")),
      barriers(sg.counter("barriers")),
      syncDrainStalls(sg.counter("sync_drain_stalls")),
      syncOps(sg.counter("sync_ops")),
      robFullStalls(sg.counter("rob_full_stalls")),
      iqFullStalls(sg.counter("iq_full_stalls")),
      lsqFullStalls(sg.counter("lsq_full_stalls")),
      intRfStalls(sg.counter("int_rf_stalls")),
      fpRfStalls(sg.counter("fp_rf_stalls")),
      steeredFast(sg.counter("steered_fast")),
      forwardedLoads(sg.counter("forwarded_loads")),
      partialForwardReplays(sg.counter("partial_forward_replays")),
      mispredictRedirects(sg.counter("mispredict_redirects")),
      ticks(sg.counter("ticks")),
      robOccCycles(sg.counter("rob_occ_cycles")),
      iqOccCycles(sg.counter("iq_occ_cycles")),
      lsqOccCycles(sg.counter("lsq_occ_cycles"))
{
}

OooCore::OooCore(const CoreParams &params, uint32_t core_id,
                 mem::MemHierarchy *hierarchy, TraceSource *trace)
    : params_(params), coreId_(core_id), hier_(hierarchy),
      trace_(trace), bpred_(params.bp), fuPool_(params.fu),
      fetchQueue_(kFetchQueueCap), rob_(params.robSize),
      scoreboard_(kNumIntRegs + kNumFpRegs, 0),
      storeQueue_(params.lsqSize),
      stats_("core." + std::to_string(core_id)), ctrs_(stats_)
{
    hetsim_assert(hier_ != nullptr && trace_ != nullptr,
                  "core needs a hierarchy and a trace");
    hetsim_assert(params_.intRegs > kNumIntRegs,
                  "need more physical than logical INT registers");
    hetsim_assert(params_.fpRegs > kNumFpRegs,
                  "need more physical than logical FP registers");
    freeIntRegs_ = params_.intRegs - kNumIntRegs;
    freeFpRegs_ = params_.fpRegs - kNumFpRegs;
    iq_.reserve(params_.iqSize);
}

void
OooCore::countRegAccess(const MicroOp &op)
{
    auto count_read = [&](int16_t reg) {
        if (reg < 0)
            return;
        if (reg < kNumIntRegs)
            ++activity_[unitIdx(CpuUnit::IntRf)];
        else
            ++activity_[unitIdx(CpuUnit::FpRf)];
    };
    count_read(op.src1);
    count_read(op.src2);
    if (op.dst >= 0) {
        if (op.dst < kNumIntRegs)
            ++activity_[unitIdx(CpuUnit::IntRf)];
        else
            ++activity_[unitIdx(CpuUnit::FpRf)];
    }
}

bool
OooCore::tick(Cycle now)
{
    // Occupancy integrals over the state at the start of the cycle.
    // Between ticks the structures are frozen, so creditStalledTicks()
    // can reproduce these samples exactly for skipped cycles.
    ++ctrs_.ticks;
    ctrs_.robOccCycles += rob_.size();
    ctrs_.iqOccCycles += iq_.size();
    ctrs_.lsqOccCycles += lsqCount_;

    const uint64_t c0 = committedOps_;
    const size_t r0 = rob_.size();
    const size_t i0 = iq_.size();
    const size_t f0 = fetchQueue_.size();
    const bool h0 = haveStaged_;
    const bool b0 = atBarrier_;

    // A sync-parked core resumes when its controller-decided wake
    // cycle arrives; the rest of the tick then runs normally, so the
    // wake cycle can dispatch ops already sitting in the fetch queue.
    bool unparked = false;
    if (atSync_ && sync_->tryUnpark(coreId_, now)) {
        atSync_ = false;
        unparked = true;
    }

    commit(now);
    issue(now);
    dispatch(now);
    fetch(now);

    // Progress hint for the chip-level skip loop: did this tick move
    // anything between pipeline structures? Purely an optimization
    // signal -- the runner only consults nextEventCycle() (which is
    // exact on its own) once a tick reports no motion, so a wrong
    // answer in either direction costs cycles, never correctness.
    return unparked || committedOps_ != c0 || rob_.size() != r0 ||
        iq_.size() != i0 || fetchQueue_.size() != f0 ||
        haveStaged_ != h0 || atBarrier_ != b0;
}

OooCore::DispatchGate
OooCore::dispatchGate() const
{
    if (atBarrier_ || atSync_ || fetchQueue_.empty())
        return DispatchGate::NoWork;
    const MicroOp &op = fetchQueue_.front().op;
    if (op.cls == OpClass::Barrier) {
        return rob_.empty() ? DispatchGate::Progress
                            : DispatchGate::BarrierDrain;
    }
    if (isSyncClass(op.cls)) {
        return rob_.empty() ? DispatchGate::Progress
                            : DispatchGate::SyncDrain;
    }
    if (rob_.size() >= params_.robSize)
        return DispatchGate::RobFull;
    if (iq_.size() >= params_.iqSize)
        return DispatchGate::IqFull;
    if (isMemClass(op.cls) && lsqCount_ >= params_.lsqSize)
        return DispatchGate::LsqFull;
    if (op.dst >= 0) {
        if (op.dst < kNumIntRegs) {
            if (freeIntRegs_ == 0)
                return DispatchGate::IntRf;
        } else if (freeFpRegs_ == 0) {
            return DispatchGate::FpRf;
        }
    }
    return DispatchGate::Progress;
}

mem::Cycle
OooCore::nextEventCycle(Cycle from) const
{
    if (finished() || atBarrier_)
        return mem::kNoEvent;

    // Sync park: the controller knows the wake cycle, or kNoEvent
    // while blocked on another core's release/signal (which wakes
    // this core through that core's own ticking, like a barrier).
    if (atSync_) {
        const Cycle w = sync_->wakeCycle(coreId_);
        return w == mem::kNoEvent ? mem::kNoEvent : std::max(from, w);
    }

    Cycle best = mem::kNoEvent;

    // Commit: the oldest op retires when it completes.
    if (!rob_.empty() && rob_.front().issued)
        best = std::min(best, std::max(from, rob_.front().doneCycle));

    // Issue: the cached wakeup horizon. A dispatch since the last
    // scan may have put a new entry in the select window, in which
    // case the next tick must rescan.
    if (!iq_.empty()) {
        if (issueScanNeeded_)
            return from;
        if (iqNextReady_ != mem::kNoEvent)
            best = std::min(best, std::max(from, iqNextReady_));
    }

    // Dispatch: makes progress next tick unless blocked, and every
    // blocked case resolves through a commit or issue event that is
    // already accounted above.
    if (dispatchGate() == DispatchGate::Progress)
        return from;

    // Fetch: gated by IL1 miss stalls and mispredict redirects. A
    // pending redirect with no resume cycle yet wakes up via the
    // blocking branch's issue event.
    if (fetchQueue_.size() < kFetchQueueCap &&
        !(traceDone_ && !haveStaged_)) {
        Cycle c = std::max(from, fetchStallUntil_);
        if (fetchBlocked_) {
            c = fetchResumeAt_ == 0 ? mem::kNoEvent
                                    : std::max(c, fetchResumeAt_);
        }
        best = std::min(best, c);
    }

    return best;
}

void
OooCore::creditStalledTicks(uint64_t n)
{
    if (n == 0)
        return;
    ctrs_.ticks += n;
    ctrs_.robOccCycles += n * rob_.size();
    ctrs_.iqOccCycles += n * iq_.size();
    ctrs_.lsqOccCycles += n * lsqCount_;
    switch (dispatchGate()) {
      case DispatchGate::BarrierDrain:
        ctrs_.barrierDrainStalls += n;
        break;
      case DispatchGate::SyncDrain:
        ctrs_.syncDrainStalls += n;
        break;
      case DispatchGate::RobFull:
        ctrs_.robFullStalls += n;
        break;
      case DispatchGate::IqFull:
        ctrs_.iqFullStalls += n;
        break;
      case DispatchGate::LsqFull:
        ctrs_.lsqFullStalls += n;
        break;
      case DispatchGate::IntRf:
        ctrs_.intRfStalls += n;
        break;
      case DispatchGate::FpRf:
        ctrs_.fpRfStalls += n;
        break;
      case DispatchGate::NoWork:
        break;
      case DispatchGate::Progress:
        hetsim_assert(false, "credited a cycle that would dispatch");
        break;
    }
}

void
OooCore::fetch(Cycle now)
{
    if (atBarrier_ || atSync_ || now < fetchStallUntil_)
        return;
    if (fetchBlocked_) {
        if (fetchResumeAt_ == 0 || now < fetchResumeAt_)
            return;
        fetchBlocked_ = false;
        fetchResumeAt_ = 0;
    }

    uint32_t fetched = 0;
    while (fetched < params_.fetchWidth &&
           fetchQueue_.size() < kFetchQueueCap) {
        if (!haveStaged_) {
            if (drainGated_)
                break; // checkpoint drain: stop pulling new work
            if (traceDone_ || !trace_->next(staged_)) {
                traceDone_ = true;
                break;
            }
            ++traceConsumed_;
            haveStaged_ = true;
        }

        // Instruction cache access on a line crossing.
        if (staged_.cls != OpClass::Barrier) {
            const uint64_t line = staged_.pc >> mem::kLineShift;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                const auto r = hier_->access(coreId_, staged_.pc,
                                             AccessType::Ifetch, now);
                if (r.latency > hier_->params().lat.il1Rt) {
                    // IL1 miss: stall fetch until the line arrives.
                    fetchStallUntil_ = now + r.latency;
                    ++ctrs_.il1MissStalls;
                    break;
                }
            }
        }

        FetchedOp f;
        f.op = staged_;
        haveStaged_ = false;
        ++activity_[unitIdx(CpuUnit::Frontend)];

        bool end_group = false;
        if (isBranchClass(f.op.cls)) {
            f.mispredicted = bpred_.predictAndTrain(f.op);
            const bool actually_taken =
                f.op.cls == OpClass::Branch ? f.op.taken : true;
            if (f.mispredicted) {
                // Stop fetching down the wrong path; resume when the
                // branch executes (set at issue) plus refill.
                fetchBlocked_ = true;
                fetchResumeAt_ = 0;
                ++ctrs_.mispredictBlocks;
                end_group = true;
            } else if (actually_taken) {
                // A taken branch ends the fetch group.
                end_group = true;
            }
        }

        HETSIM_TRACE(traceBuf_, now, coreId_, obs::TraceEvent::Fetch,
                     f.op.pc, 0);
        fetchQueue_.push_back(f);
        ++fetched;
        if (end_group)
            break;
    }
}

void
OooCore::dispatch(Cycle now)
{
    if (atBarrier_ || atSync_)
        return;
    uint32_t dispatched = 0;
    while (dispatched < params_.issueWidth && !fetchQueue_.empty()) {
        FetchedOp &f = fetchQueue_.front();
        MicroOp &op = f.op;

        if (op.cls == OpClass::Barrier) {
            // Drain the pipeline, then park at the barrier.
            if (!rob_.empty()) {
                ++ctrs_.barrierDrainStalls;
                break;
            }
            fetchQueue_.pop_front();
            atBarrier_ = true;
            barrierParkedAt_ = now;
            ++ctrs_.barriers;
            break;
        }

        if (isSyncClass(op.cls)) {
            // Like a barrier: drain the pipeline, then hand the op to
            // the chip's sync controller and park until it wakes us.
            if (!rob_.empty()) {
                ++ctrs_.syncDrainStalls;
                break;
            }
            hetsim_assert(sync_ != nullptr,
                          "sync micro-op but no SyncController set");
            const MicroOp sop = op;
            fetchQueue_.pop_front();
            atSync_ = true;
            ++ctrs_.syncOps;
            HETSIM_TRACE(traceBuf_, now, coreId_,
                         obs::TraceEvent::Dispatch, sop.pc, 0);
            sync_->execute(coreId_, sop, now);
            break;
        }

        if (rob_.size() >= params_.robSize) {
            ++ctrs_.robFullStalls;
            break;
        }
        if (iq_.size() >= params_.iqSize) {
            ++ctrs_.iqFullStalls;
            break;
        }
        const bool is_mem = isMemClass(op.cls);
        if (is_mem && lsqCount_ >= params_.lsqSize) {
            ++ctrs_.lsqFullStalls;
            break;
        }
        if (op.dst >= 0) {
            if (op.dst < kNumIntRegs) {
                if (freeIntRegs_ == 0) {
                    ++ctrs_.intRfStalls;
                    break;
                }
            } else if (freeFpRegs_ == 0) {
                ++ctrs_.fpRfStalls;
                break;
            }
        }

        RobEntry e;
        e.op = op;
        e.seq = nextSeq_++;
        e.mispredicted = f.mispredicted;

        // AdvHet dual-speed steering: an ALU producer whose consumer
        // appears within the next issue-width ops goes to the CMOS
        // ALU (Section IV-C2).
        if (params_.steerDependents && op.cls == OpClass::IntAlu &&
            op.dst >= 0) {
            const size_t window =
                std::min<size_t>(params_.issueWidth + 1,
                                 fetchQueue_.size());
            for (size_t i = 1; i < window; ++i) {
                const MicroOp &later = fetchQueue_[i].op;
                if (later.src1 == op.dst || later.src2 == op.dst) {
                    e.preferFast = true;
                    ++ctrs_.steeredFast;
                    break;
                }
            }
        }

        if (op.src1 >= 0)
            e.dep1 = scoreboard_[op.src1];
        if (op.src2 >= 0)
            e.dep2 = scoreboard_[op.src2];

        if (op.cls == OpClass::Load) {
            // Perfect memory disambiguation against in-flight stores,
            // at byte granularity: the youngest store whose written
            // bytes overlap the loaded bytes is the dependence. The
            // LSQ forwards only when the load is fully contained in
            // that store; a partial overlap waits for the store and
            // then reads memory (no byte merging in the LSQ).
            const uint64_t lbeg = op.addr;
            const uint64_t lend = op.addr + op.accessSize;
            for (size_t i = storeQueue_.size(); i-- > 0;) {
                const StoreRec &s = storeQueue_[i];
                const uint64_t sbeg = s.addr;
                const uint64_t send = s.addr + s.size;
                if (sbeg < lend && lbeg < send) {
                    e.storeDep = s.seq;
                    e.forwardable = sbeg <= lbeg && lend <= send;
                    break;
                }
            }
        } else if (op.cls == OpClass::Store) {
            storeQueue_.push_back({e.seq, op.addr, op.accessSize});
        }

        if (op.dst >= 0) {
            scoreboard_[op.dst] = e.seq;
            if (op.dst < kNumIntRegs)
                --freeIntRegs_;
            else
                --freeFpRegs_;
        }
        if (is_mem) {
            ++lsqCount_;
            ++activity_[unitIdx(CpuUnit::Lsq)];
        }

        ++activity_[unitIdx(CpuUnit::Rename)];
        ++activity_[unitIdx(CpuUnit::Rob)];
        ++activity_[unitIdx(CpuUnit::IssueQueue)];

        HETSIM_TRACE(traceBuf_, now, coreId_,
                     obs::TraceEvent::Dispatch, op.pc, 0);
        iq_.push_back(e.seq);
        if (iq_.size() <= params_.issueReach)
            issueScanNeeded_ = true; // landed in the select window
        rob_.push_back(e);
        fetchQueue_.pop_front();
        ++dispatched;
    }
}

void
OooCore::issue(Cycle now)
{
    // Wakeup-driven select: skip the window scan entirely while no
    // cached wakeup is due and dispatch has not refilled the window.
    // A skipped scan is exactly a scan that issues nothing (scans
    // mutate no state unless an op issues).
    if (params_.wakeupIssue && !issueScanNeeded_ &&
        (iqNextReady_ == mem::kNoEvent || iqNextReady_ > now))
        return;
    issueScanNeeded_ = false;
    iqNextReady_ = mem::kNoEvent;

    uint32_t issued = 0;
    uint32_t scanned = 0;
    auto it = iq_.begin();
    for (; it != iq_.end() && issued < params_.issueWidth &&
           scanned < params_.issueReach;
         ++scanned) {
        RobEntry *e = entryBySeq(*it);
        hetsim_assert(e && !e->issued, "IQ entry out of sync");

        // One producer walk decides readiness and, when every
        // producer has issued, the exact cycle this op wakes up.
        Cycle ready_at = 0;
        bool resolved = true;
        const uint64_t deps[2] = {e->dep1, e->dep2};
        for (uint64_t dep : deps) {
            if (dep == 0)
                continue;
            const RobEntry *p = entryBySeq(dep);
            if (!p)
                continue; // producer already committed
            if (!p->issued) {
                resolved = false; // completion time unknown
                break;
            }
            ready_at = std::max(ready_at, p->doneCycle);
        }
        const RobEntry *dep_store = nullptr;
        if (resolved && e->op.cls == OpClass::Load &&
            e->storeDep != 0) {
            dep_store = entryBySeq(e->storeDep);
            if (dep_store) {
                // Wait for the forwarding store's address.
                if (!dep_store->issued)
                    resolved = false;
                else
                    ready_at =
                        std::max(ready_at, dep_store->doneCycle);
            }
        }
        if (!resolved) {
            // An unissued producer sits in an older window slot, so
            // its own wakeup contribution re-arms the scan that will
            // resolve this entry; no contribution needed here.
            ++it;
            continue;
        }
        if (ready_at > now) {
            iqNextReady_ = std::min(iqNextReady_, ready_at);
            ++it;
            continue;
        }

        const FuIssue fi = fuPool_.tryIssue(e->op.cls, now,
                                            e->preferFast);
        if (!fi.ok) {
            // Lost on functional units: it can go no earlier than
            // the next tick and no earlier than a unit freeing up.
            iqNextReady_ = std::min(
                iqNextReady_,
                std::max<Cycle>(now + 1,
                                fuPool_.nextFreeCycle(e->op.cls)));
            ++it;
            continue;
        }

        Cycle done;
        switch (e->op.cls) {
          case OpClass::Load:
            if (dep_store && e->forwardable) {
                // Store-to-load forwarding from the LSQ (CMOS logic;
                // fast in every configuration): AGU + LSQ CAM. Only
                // when the store fully covers the loaded bytes.
                done = now + fi.latency + 1;
                ++ctrs_.forwardedLoads;
            } else {
                if (dep_store)
                    ++ctrs_.partialForwardReplays;
                const auto r = hier_->access(coreId_, e->op.addr,
                                             AccessType::Load, now);
                // The configured round trips already include address
                // generation (Table III). The load pipeline (AGU,
                // TLB, tag, alignment) imposes a 2-cycle floor on the
                // round trip regardless of how fast the data array
                // is, which is why a 1-cycle asymmetric fast way buys
                // nothing in an all-CMOS core (BaseCMOS-Enh) but a
                // lot in a TFET-DL1 core (AdvHet).
                done = now + std::max<uint32_t>(r.latency, 2);
            }
            break;
          case OpClass::Store:
            done = now + fi.latency; // AGU; data written at commit
            break;
          default:
            done = now + fi.latency;
            break;
        }
        e->issued = true;
        e->doneCycle = done;

        if (e->mispredicted) {
            // Redirect: the front end refills after resolution.
            fetchResumeAt_ = done + params_.frontendDepth;
            ++ctrs_.mispredictRedirects;
        }

        HETSIM_TRACE(traceBuf_, now, coreId_, obs::TraceEvent::Issue,
                     e->op.pc, 0);
        HETSIM_TRACE(traceBuf_, done, coreId_,
                     obs::TraceEvent::Complete, e->op.pc, 0);

        switch (e->op.cls) {
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Call:
          case OpClass::Return:
            ++activity_[unitIdx(CpuUnit::Alu)];
            break;
          case OpClass::IntMult:
          case OpClass::IntDiv:
            ++activity_[unitIdx(CpuUnit::MulDiv)];
            break;
          case OpClass::FpAdd:
          case OpClass::FpMult:
          case OpClass::FpDiv:
            ++activity_[unitIdx(CpuUnit::Fpu)];
            break;
          default:
            break;
        }
        countRegAccess(e->op);

        it = iq_.erase(it);
        ++issued;
    }
    // Window slots this scan did not examine carry no contribution in
    // iqNextReady_: erases shift younger entries into the window, and
    // an exhausted issue width leaves older ones unread. Rescan next
    // tick; a no-issue scan always covers its whole window.
    if ((issued > 0 && !iq_.empty()) ||
        (it != iq_.end() && scanned < params_.issueReach))
        issueScanNeeded_ = true;
}

void
OooCore::commit(Cycle now)
{
    uint32_t committed = 0;
    while (committed < params_.commitWidth && !rob_.empty()) {
        RobEntry &e = rob_.front();
        if (!e.issued || e.doneCycle > now)
            break;

        if (e.op.cls == OpClass::Store) {
            // Drain the committed store into the memory system.
            hier_->access(coreId_, e.op.addr, AccessType::Store, now);
            hetsim_assert(!storeQueue_.empty() &&
                          storeQueue_.front().seq == e.seq,
                          "store queue out of order");
            storeQueue_.pop_front();
            --lsqCount_;
        } else if (e.op.cls == OpClass::Load) {
            --lsqCount_;
        }

        if (e.op.dst >= 0) {
            if (scoreboard_[e.op.dst] == e.seq)
                scoreboard_[e.op.dst] = 0;
            if (e.op.dst < kNumIntRegs)
                ++freeIntRegs_;
            else
                ++freeFpRegs_;
        }

        ++activity_[unitIdx(CpuUnit::Rob)];
        ++committedOps_;
        HETSIM_TRACE(traceBuf_, now, coreId_,
                     obs::TraceEvent::Commit, e.op.pc, 0);
        rob_.pop_front();
        ++committed;
    }
}

bool
OooCore::finished() const
{
    return traceDone_ && !haveStaged_ && fetchQueue_.empty() &&
        rob_.empty() && !atBarrier_ && !atSync_;
}

void
OooCore::releaseBarrier()
{
    hetsim_assert(atBarrier_, "releaseBarrier while not at a barrier");
    atBarrier_ = false;
}

bool
OooCore::checkDependencyOrder() const
{
    const uint64_t oldest = nextSeq_ - rob_.size();
    for (size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry &e = rob_[i];
        if (e.seq != oldest + i)
            return false;
        // Seq 0 ("no producer") passes: live seqs start at 1.
        if (e.dep1 >= e.seq || e.dep2 >= e.seq || e.storeDep >= e.seq)
            return false;
    }
    return true;
}

bool
OooCore::checkOccupancyBounds() const
{
    for (size_t i = 1; i < storeQueue_.size(); ++i) {
        if (storeQueue_[i].seq <= storeQueue_[i - 1].seq)
            return false;
    }
    return iq_.size() <= params_.iqSize &&
        lsqCount_ <= params_.lsqSize &&
        rob_.size() <= params_.robSize &&
        storeQueue_.size() <= lsqCount_ &&
        fetchQueue_.size() <= kFetchQueueCap;
}

namespace
{

void
putMicroOp(Serializer &ser, const MicroOp &op)
{
    ser.putU8(static_cast<uint8_t>(op.cls));
    ser.putU16(static_cast<uint16_t>(op.src1));
    ser.putU16(static_cast<uint16_t>(op.src2));
    ser.putU16(static_cast<uint16_t>(op.dst));
    ser.putU64(op.pc);
    ser.putU64(op.addr);
    ser.putU64(op.target);
    ser.putBool(op.taken);
    ser.putU8(op.accessSize);
}

MicroOp
getMicroOp(Deserializer &des)
{
    MicroOp op;
    op.cls = static_cast<OpClass>(des.getU8());
    op.src1 = static_cast<int16_t>(des.getU16());
    op.src2 = static_cast<int16_t>(des.getU16());
    op.dst = static_cast<int16_t>(des.getU16());
    op.pc = des.getU64();
    op.addr = des.getU64();
    op.target = des.getU64();
    op.taken = des.getBool();
    op.accessSize = des.getU8();
    return op;
}

} // namespace

void
OooCore::saveState(Serializer &ser) const
{
    hetsim_assert(quiescedForCheckpoint(),
                  "checkpoint save outside a quiesce point");
    hetsim_assert(iq_.empty() && storeQueue_.empty() && lsqCount_ == 0,
                  "ROB empty but in-flight structures are not");

    bpred_.saveState(ser);
    fuPool_.saveState(ser);

    ser.beginSection("core");
    ser.putU32(coreId_);
    ser.putU64(static_cast<uint64_t>(fetchQueue_.size()));
    for (size_t i = 0; i < fetchQueue_.size(); ++i) {
        const FetchedOp &f = fetchQueue_[i];
        putMicroOp(ser, f.op);
        ser.putBool(f.mispredicted);
    }
    ser.putBool(haveStaged_);
    putMicroOp(ser, staged_);
    ser.putBool(fetchBlocked_);
    ser.putU64(fetchResumeAt_);
    ser.putU64(fetchStallUntil_);
    ser.putU64(lastFetchLine_);
    ser.putBool(traceDone_);
    ser.putU64(traceConsumed_);
    ser.putU64(nextSeq_);
    ser.putBool(atBarrier_);
    ser.putU64(barrierParkedAt_);
    ser.putBool(atSync_);
    ser.putU64(committedOps_);
    for (uint64_t a : activity_)
        ser.putU64(a);
    stats_.saveState(ser);
    ser.endSection();
}

void
OooCore::restoreState(Deserializer &des)
{
    bpred_.restoreState(des);
    fuPool_.restoreState(des);

    des.openSection("core");
    if (des.getU32() != coreId_) {
        des.fail("core id mismatch");
        return;
    }
    const uint64_t nfetched = des.getU64();
    if (nfetched > kFetchQueueCap) {
        des.fail("fetch queue overflow");
        return;
    }
    fetchQueue_.clear();
    for (uint64_t i = 0; i < nfetched && des.ok(); ++i) {
        FetchedOp f;
        f.op = getMicroOp(des);
        f.mispredicted = des.getBool();
        fetchQueue_.push_back(f);
    }
    haveStaged_ = des.getBool();
    staged_ = getMicroOp(des);
    fetchBlocked_ = des.getBool();
    fetchResumeAt_ = des.getU64();
    fetchStallUntil_ = des.getU64();
    lastFetchLine_ = des.getU64();
    traceDone_ = des.getBool();
    traceConsumed_ = des.getU64();
    nextSeq_ = des.getU64();
    atBarrier_ = des.getBool();
    barrierParkedAt_ = des.getU64();
    atSync_ = des.getBool();
    committedOps_ = des.getU64();
    for (uint64_t &a : activity_)
        a = des.getU64();
    stats_.restoreState(des);
    des.closeSection();
    if (!des.ok())
        return;

    // Re-seek the fresh trace generator to the checkpoint cursor by
    // replaying (and discarding) the ops consumed before it.
    MicroOp discard;
    for (uint64_t i = 0; i < traceConsumed_; ++i) {
        if (!trace_->next(discard)) {
            des.fail("trace ended before the checkpoint cursor");
            return;
        }
    }

    // The serialized state is a quiesce point: the back end is at its
    // reset state by construction, and the wakeup-select cache
    // converges from (rescan, no-horizon) with an empty IQ.
    issueScanNeeded_ = true;
    iqNextReady_ = mem::kNoEvent;
}

} // namespace hetsim::cpu
