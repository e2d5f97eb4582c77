#include "cpu/func_unit.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::cpu
{

FuncUnitPool::FuncUnitPool(const FuPoolParams &params)
    : params_(params),
      aluFree_(params.numAlus, 0),
      mulDivFree_(params.numMulDiv, 0),
      lsuFree_(params.numLsu, 0),
      fpuFree_(params.numFpu, 0),
      stats_("fu_pool"),
      steerFallbackSlow_(stats_.counter("steer_fallback_slow")),
      steerFallbackFast_(stats_.counter("steer_fallback_fast")),
      fastAluOps_(stats_.counter("fast_alu_ops")),
      slowAluOps_(stats_.counter("slow_alu_ops"))
{
    if (params_.dualSpeedAlu) {
        hetsim_assert(params_.numFastAlus >= 1 &&
                      params_.numFastAlus <= params_.numAlus,
                      "bad dual-speed ALU split");
    }
}

Cycle
FuncUnitPool::nextFreeCycle(OpClass cls) const
{
    const std::vector<Cycle> *units = nullptr;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
        units = &aluFree_;
        break;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        units = &mulDivFree_;
        break;
      case OpClass::Load:
      case OpClass::Store:
        units = &lsuFree_;
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        units = &fpuFree_;
        break;
      // Barriers and sync ops park the core at dispatch and never
      // reach a unit; a Nop needs none.
      case OpClass::Barrier:
      case OpClass::LockAcquire:
      case OpClass::LockRelease:
      case OpClass::SignalEvt:
      case OpClass::WaitEvt:
      case OpClass::Nop:
        return 0;
    }
    Cycle best = mem::kNoEvent;
    for (Cycle free_at : *units)
        best = std::min(best, free_at);
    return best;
}

void
FuncUnitPool::reset()
{
    std::fill(aluFree_.begin(), aluFree_.end(), 0);
    std::fill(mulDivFree_.begin(), mulDivFree_.end(), 0);
    std::fill(lsuFree_.begin(), lsuFree_.end(), 0);
    std::fill(fpuFree_.begin(), fpuFree_.end(), 0);
}

int
FuncUnitPool::claim(std::vector<Cycle> &units, uint32_t first,
                    uint32_t last, Cycle now, Cycle busy_until)
{
    for (uint32_t i = first; i < last; ++i) {
        if (units[i] <= now) {
            units[i] = busy_until;
            return static_cast<int>(i);
        }
    }
    return -1;
}

FuIssue
FuncUnitPool::tryIssue(OpClass cls, Cycle now, bool prefer_fast)
{
    const FuTimings &t = params_.timings;
    FuIssue res;

    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
      {
        const uint32_t n_fast =
            params_.dualSpeedAlu ? params_.numFastAlus : 0;
        // Pipelined: the unit is claimed for this issue cycle only.
        if (params_.dualSpeedAlu) {
            // Try the preferred cluster first, then fall back.
            int unit = -1;
            if (prefer_fast) {
                unit = claim(aluFree_, 0, n_fast, now, now + 1);
                if (unit < 0) {
                    unit = claim(aluFree_, n_fast, params_.numAlus,
                                 now, now + 1);
                    if (unit >= 0)
                        ++steerFallbackSlow_;
                }
            } else {
                unit = claim(aluFree_, n_fast, params_.numAlus, now,
                             now + 1);
                if (unit < 0) {
                    unit = claim(aluFree_, 0, n_fast, now, now + 1);
                    if (unit >= 0)
                        ++steerFallbackFast_;
                }
            }
            if (unit < 0)
                return res;
            res.ok = true;
            res.usedFastAlu = static_cast<uint32_t>(unit) < n_fast;
            res.latency = res.usedFastAlu ? params_.fastAluLat
                                          : t.aluLat;
            ++(res.usedFastAlu ? fastAluOps_ : slowAluOps_);
            return res;
        }
        const int unit =
            claim(aluFree_, 0, params_.numAlus, now, now + 1);
        if (unit < 0)
            return res;
        res.ok = true;
        res.latency = t.aluLat;
        return res;
      }

      case OpClass::IntMult:
      {
        const int unit = claim(mulDivFree_, 0, params_.numMulDiv, now,
                               now + 1);
        if (unit < 0)
            return res;
        res.ok = true;
        res.latency = t.mulLat;
        return res;
      }

      case OpClass::IntDiv:
      {
        // Unpipelined: the unit is busy for the issue interval.
        const int unit = claim(mulDivFree_, 0, params_.numMulDiv, now,
                               now + t.divIssueInterval);
        if (unit < 0)
            return res;
        res.ok = true;
        res.latency = t.divLat;
        return res;
      }

      case OpClass::Load:
      case OpClass::Store:
      {
        const int unit =
            claim(lsuFree_, 0, params_.numLsu, now, now + 1);
        if (unit < 0)
            return res;
        res.ok = true;
        res.latency = t.lsuLat;
        return res;
      }

      case OpClass::FpAdd:
      case OpClass::FpMult:
      {
        const int unit =
            claim(fpuFree_, 0, params_.numFpu, now, now + 1);
        if (unit < 0)
            return res;
        res.ok = true;
        res.latency =
            cls == OpClass::FpAdd ? t.fpAddLat : t.fpMulLat;
        return res;
      }

      case OpClass::FpDiv:
      {
        const int unit = claim(fpuFree_, 0, params_.numFpu, now,
                               now + t.fpDivIssueInterval);
        if (unit < 0)
            return res;
        res.ok = true;
        res.latency = t.fpDivLat;
        return res;
      }

      case OpClass::Barrier:
      case OpClass::LockAcquire:
      case OpClass::LockRelease:
      case OpClass::SignalEvt:
      case OpClass::WaitEvt:
      case OpClass::Nop:
        res.ok = true;
        res.latency = 1;
        return res;
    }
    return res;
}

namespace
{

void
savePool(Serializer &ser, const std::vector<Cycle> &units)
{
    ser.putU32(static_cast<uint32_t>(units.size()));
    for (Cycle f : units)
        ser.putU64(f);
}

bool
restorePool(Deserializer &des, std::vector<Cycle> &units)
{
    if (des.getU32() != units.size())
        return false;
    for (Cycle &f : units)
        f = des.getU64();
    return true;
}

} // namespace

void
FuncUnitPool::saveState(Serializer &ser) const
{
    ser.beginSection("fu_pool");
    savePool(ser, aluFree_);
    savePool(ser, mulDivFree_);
    savePool(ser, lsuFree_);
    savePool(ser, fpuFree_);
    stats_.saveState(ser);
    ser.endSection();
}

void
FuncUnitPool::restoreState(Deserializer &des)
{
    des.openSection("fu_pool");
    if (!restorePool(des, aluFree_) || !restorePool(des, mulDivFree_) ||
        !restorePool(des, lsuFree_) || !restorePool(des, fpuFree_)) {
        des.fail("functional unit count mismatch");
        return;
    }
    stats_.restoreState(des);
    des.closeSection();
}

} // namespace hetsim::cpu
