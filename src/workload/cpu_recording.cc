#include "workload/cpu_recording.hh"

#include "workload/cpu_trace_gen.hh"
#include "workload/vector_trace.hh"

namespace hetsim::workload
{

CpuRecording::CpuRecording(const AppProfile &profile,
                           uint32_t num_threads, uint64_t seed,
                           double scale)
    : app_(profile.name), seed_(seed), scale_(scale)
{
    threads_.reserve(num_threads);
    for (const auto &gen :
         makeCpuWorkload(profile, num_threads, seed, scale)) {
        std::vector<cpu::MicroOp> &ops = threads_.emplace_back();
        cpu::MicroOp op;
        while (gen->next(op))
            ops.push_back(op);
        // Hold the ops, not the growth slack.
        ops.shrink_to_fit();
    }
}

bool
CpuRecording::records(const AppProfile &profile, uint64_t seed,
                      double scale) const
{
    return app_ == profile.name && seed_ == seed && scale_ == scale;
}

std::vector<std::unique_ptr<cpu::TraceSource>>
CpuRecording::open() const
{
    std::vector<std::unique_ptr<cpu::TraceSource>> out;
    out.reserve(threads_.size());
    for (const std::vector<cpu::MicroOp> &ops : threads_)
        out.push_back(std::make_unique<VectorTrace>(
            std::span<const cpu::MicroOp>(ops)));
    return out;
}

SharedCpuRecordings::SharedCpuRecordings(
    const AppProfile &profile, const std::vector<uint32_t> &run_threads,
    uint64_t seed, double scale)
{
    std::map<uint32_t, size_t> runs;
    for (uint32_t threads : run_threads)
        ++runs[threads];
    for (const auto &[threads, n] : runs)
        if (n >= 2)
            byThreads_.try_emplace(threads, profile, threads, seed,
                                   scale);
}

const CpuRecording *
SharedCpuRecordings::find(uint32_t threads) const
{
    const auto it = byThreads_.find(threads);
    return it == byThreads_.end() ? nullptr : &it->second;
}

} // namespace hetsim::workload
