/**
 * @file
 * A TraceSource that replays a vector of micro-ops.
 *
 * Tests and small examples build one to drive the core with exact,
 * hand-constructed programs. A VectorTrace can also be a read-only
 * cursor over ops owned elsewhere: that is how every run that shares a
 * CpuRecording (workload/cpu_recording.hh) replays it.
 */

#ifndef HETSIM_WORKLOAD_VECTOR_TRACE_HH
#define HETSIM_WORKLOAD_VECTOR_TRACE_HH

#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "cpu/microop.hh"

namespace hetsim::workload
{

/** Replays a fixed micro-op sequence, its own or a borrowed one. */
class VectorTrace : public cpu::TraceSource
{
  public:
    VectorTrace() = default;

    explicit VectorTrace(std::vector<cpu::MicroOp> ops)
        : ops_(std::move(ops))
    {
    }

    /** A cursor over `ops`, which this trace never writes and which
     *  must outlive it. Any number of cursors, on any threads, may
     *  walk one sequence independently. */
    explicit VectorTrace(std::span<const cpu::MicroOp> ops)
        : borrowed_(ops), isBorrowed_(true)
    {
    }

    /** Append one op (builder style; owned sequences only). */
    VectorTrace &
    add(const cpu::MicroOp &op)
    {
        hetsim_assert(!isBorrowed_, "add() on a borrowed sequence");
        ops_.push_back(op);
        return *this;
    }

    bool
    next(cpu::MicroOp &op) override
    {
        const std::span<const cpu::MicroOp> ops = view();
        if (pos_ >= ops.size())
            return false;
        op = ops[pos_++];
        return true;
    }

    /** Rewind for reuse. */
    void reset() { pos_ = 0; }

    size_t size() const { return view().size(); }

  private:
    std::span<const cpu::MicroOp>
    view() const
    {
        return isBorrowed_ ? borrowed_
                           : std::span<const cpu::MicroOp>(ops_);
    }

    std::vector<cpu::MicroOp> ops_;
    std::span<const cpu::MicroOp> borrowed_;
    bool isBorrowed_ = false;
    size_t pos_ = 0;
};

} // namespace hetsim::workload

#endif // HETSIM_WORKLOAD_VECTOR_TRACE_HH
