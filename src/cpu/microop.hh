/**
 * @file
 * The micro-op "ISA" consumed by the trace-driven out-of-order core.
 *
 * Workload generators produce streams of MicroOps; the core imposes
 * Table III timing on them. Registers are logical identifiers: integer
 * registers occupy [0, kNumIntRegs) and floating-point registers
 * [kNumIntRegs, kNumIntRegs + kNumFpRegs). Branches carry their actual
 * direction/target so the predictor can be scored against the truth.
 */

#ifndef HETSIM_CPU_MICROOP_HH
#define HETSIM_CPU_MICROOP_HH

#include <cstdint>

#include "common/status.hh"

namespace hetsim::cpu
{

/** Operation classes with distinct timing behaviour. */
enum class OpClass : uint8_t
{
    IntAlu,  ///< Simple integer op (add/sub/logic/shift/compare).
    IntMult,
    IntDiv,
    FpAdd,
    FpMult,
    FpDiv,
    Load,
    Store,
    Branch,  ///< Conditional branch.
    Call,    ///< Direct call (pushes the RAS).
    Return,  ///< Return (pops the RAS).
    Barrier, ///< Thread barrier marker (multicore synchronization).
    Nop,
    // Synchronization records, appended after Nop so the encodings of
    // the classic classes stay stable on disk.
    LockAcquire, ///< Acquire the spin lock at `addr` (blocks if held).
    LockRelease, ///< Release the spin lock at `addr`.
    SignalEvt,   ///< Producer/consumer: post the semaphore at `addr`.
    WaitEvt,     ///< Producer/consumer: wait on the semaphore at `addr`.
};

const char *opClassName(OpClass c);

/** Logical register file shape seen by the generators. */
constexpr int kNumIntRegs = 32;
constexpr int kNumFpRegs = 32;

/** True for FP-producing/consuming classes. */
constexpr bool
isFpClass(OpClass c)
{
    return c == OpClass::FpAdd || c == OpClass::FpMult ||
        c == OpClass::FpDiv;
}

/** True for classes that reference memory. */
constexpr bool
isMemClass(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True for control-flow classes. */
constexpr bool
isBranchClass(OpClass c)
{
    return c == OpClass::Branch || c == OpClass::Call ||
        c == OpClass::Return;
}

/** True for the explicit synchronization records (lock/event ops).
 *  Barrier is handled by the multicore run loop and is deliberately
 *  not included. */
constexpr bool
isSyncClass(OpClass c)
{
    return c == OpClass::LockAcquire || c == OpClass::LockRelease ||
        c == OpClass::SignalEvt || c == OpClass::WaitEvt;
}

/** One dynamic micro-operation from a trace. */
struct MicroOp
{
    OpClass cls = OpClass::Nop;
    int16_t src1 = -1; ///< Logical source register or -1.
    int16_t src2 = -1;
    int16_t dst = -1;  ///< Logical destination register or -1.
    uint64_t pc = 0;
    uint64_t addr = 0;   ///< Effective address for loads/stores.
    uint64_t target = 0; ///< Actual next PC for branches.
    bool taken = false;  ///< Actual direction for conditional branches.
    uint8_t accessSize = 8; ///< Access width in bytes, 1-64.
};

/**
 * Ok when the core can execute `op`: its class is at most WaitEvt,
 * each register is -1 or in [0, kNumIntRegs + kNumFpRegs), and its
 * access size is 1-64 bytes. Otherwise a CorruptRecord Status. Every
 * decoder of stored micro-ops (trace files, checkpoints) calls it,
 * because the core indexes its scoreboard with the registers.
 */
Status validateMicroOp(const MicroOp &op);

/** Pull interface implemented by the workload generators. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next micro-op.
     * @return false when the trace is exhausted.
     */
    virtual bool next(MicroOp &op) = 0;
};

} // namespace hetsim::cpu

#endif // HETSIM_CPU_MICROOP_HH
