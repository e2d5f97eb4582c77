#include "cpu/microop.hh"

namespace hetsim::cpu
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu:
        return "IntAlu";
      case OpClass::IntMult:
        return "IntMult";
      case OpClass::IntDiv:
        return "IntDiv";
      case OpClass::FpAdd:
        return "FpAdd";
      case OpClass::FpMult:
        return "FpMult";
      case OpClass::FpDiv:
        return "FpDiv";
      case OpClass::Load:
        return "Load";
      case OpClass::Store:
        return "Store";
      case OpClass::Branch:
        return "Branch";
      case OpClass::Call:
        return "Call";
      case OpClass::Return:
        return "Return";
      case OpClass::Barrier:
        return "Barrier";
      case OpClass::Nop:
        return "Nop";
      case OpClass::LockAcquire:
        return "LockAcquire";
      case OpClass::LockRelease:
        return "LockRelease";
      case OpClass::SignalEvt:
        return "SignalEvt";
      case OpClass::WaitEvt:
        return "WaitEvt";
    }
    return "?";
}

Status
validateMicroOp(const MicroOp &op)
{
    const auto cls = static_cast<unsigned>(op.cls);
    if (cls > static_cast<unsigned>(OpClass::WaitEvt))
        return Status::error(ErrorCode::CorruptRecord,
                             "invalid op class %u", cls);
    for (const int reg : {op.src1, op.src2, op.dst}) {
        if (reg < -1 || reg >= kNumIntRegs + kNumFpRegs)
            return Status::error(ErrorCode::CorruptRecord,
                                 "register %d outside [-1, %d)", reg,
                                 kNumIntRegs + kNumFpRegs);
    }
    if (op.accessSize == 0 || op.accessSize > 64)
        return Status::error(ErrorCode::CorruptRecord,
                             "invalid access size %u", op.accessSize);
    return Status();
}

} // namespace hetsim::cpu
