#include "workload/cpu_trace_gen.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "workload/shared_gen.hh"

namespace hetsim::workload
{

using cpu::MicroOp;
using cpu::OpClass;

namespace
{

constexpr uint32_t kMinBlockOps = 3;
constexpr uint32_t kBlockBytes = 256; ///< Static footprint per block.
constexpr double kCallBlockFraction = 0.04;

// Probability that a load's value is consumed by the next compute op
// of the matching type. Load-to-use chains are what make DL1 hit
// latency critical (Section IV-C1 of the paper hinges on this).
constexpr double kLoadUseChainP = 0.70;

// Probability that a load's *address* depends on the previous load
// (pointer chasing, indexed gathers). Address-chained loads serialize
// the full DL1 round trip on the critical path, which is why the DL1
// hit latency dominates the BaseHet slowdown and why the asymmetric
// cache's MRU fast way recovers so much of it.
constexpr double kAddrChainP = 0.60;

} // namespace

SyntheticCpuTrace::SyntheticCpuTrace(const AppProfile &profile,
                                     uint32_t thread_id,
                                     uint32_t num_threads,
                                     uint64_t seed, double scale,
                                     double parallel_share)
    : profile_(profile), threadId_(thread_id),
      rng_(seed * 0x9e3779b97f4a7c15ULL + thread_id + 1),
      intDepP_(profile.depShortP), fpDepP_(0.3 * profile.depShortP)
{
    hetsim_assert(num_threads >= 1, "need at least one thread");
    hetsim_assert(scale > 0.0, "scale must be positive");

    const double total = static_cast<double>(profile.totalOps) * scale;
    const double parallel = total * (1.0 - profile.serialFraction);
    const double serial = total * profile.serialFraction;
    const double share = parallel_share > 0.0
        ? parallel_share : 1.0 / num_threads;
    parallelOpsPerPhase_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               parallel * share / profile.phases));
    serialOpsPerPhase_ = thread_id == 0
        ? std::max<uint64_t>(
              1, static_cast<uint64_t>(serial / profile.phases))
        : 0;
    opsLeftInSection_ = parallelOpsPerPhase_;

    intHist_.fill(0);
    fpHist_.fill(static_cast<int16_t>(cpu::kNumIntRegs));

    // Disjoint per-thread code and data regions; a common shared
    // region.
    codeBase_ = 0x400000ull + (static_cast<uint64_t>(thread_id) << 24);
    privBase_ = (static_cast<uint64_t>(thread_id) + 2) << 32;
    sharedBase_ = 1ull << 45;
    const uint64_t total_fp =
        static_cast<uint64_t>(profile.footprintKb) * 1024;
    footprintBytes_ = std::max<uint64_t>(total_fp / num_threads, 4096);
    sharedBytes_ = std::max<uint64_t>(total_fp / 4, 4096);

    buildCfg();
    curBlock_ = 0;
    blockOpsLeft_ = blocks_[0].len;
    pc_ = blocks_[0].startPc;
}

void
SyntheticCpuTrace::buildCfg()
{
    // The static control-flow graph: fixed block lengths, fixed branch
    // targets (so the BTB behaves as it does on real code), per-block
    // branch character. Loop back-edges dominate; a small fraction of
    // blocks jump far (instruction-cache and BTB pressure) or call a
    // leaf function.
    //
    // The CFG is seeded independently of the thread id: all threads of
    // an SPMD application execute the same code, which keeps their
    // execution speeds balanced (anything else wrecks barrier scaling
    // in a way real workloads do not).
    hetsim::Rng cfg_rng(0xc0defeedULL ^
                        (static_cast<uint64_t>(profile_.codeKb) << 32)
                        ^ profile_.totalOps ^
                        static_cast<uint64_t>(profile_.name[0]) ^
                        (static_cast<uint64_t>(profile_.name[1]) << 8));

    const uint32_t num_blocks = std::max<uint32_t>(
        4, profile_.codeKb * 1024 / kBlockBytes);
    blocks_.reserve(num_blocks);

    const double avg_block = 1.0 / profile_.branchFraction;
    for (uint32_t b = 0; b < num_blocks; ++b) {
        Block blk;
        blk.startPc = codeBase_ +
            static_cast<uint64_t>(b) * kBlockBytes;
        // Low-variance block lengths: heavy-tailed lengths would let
        // the walk camp on short blocks and inflate the dynamic
        // branch share well past the profile's fraction.
        const double target = std::max<double>(kMinBlockOps + 1,
                                               avg_block);
        const int32_t jitter = static_cast<int32_t>(
            cfg_rng.rangeInclusive(-1, 1));
        blk.len = static_cast<uint32_t>(std::max<int32_t>(
            kMinBlockOps,
            static_cast<int32_t>(target + 0.5) - 1 + jitter));
        blk.len = std::min(blk.len, kBlockBytes / 4 - 1);
        blk.randomBranch = cfg_rng.chance(profile_.branchRandomFrac);
        blk.isCall = !blk.randomBranch &&
            cfg_rng.chance(kCallBlockFraction);
        if (blk.isCall) {
            // Fixed callee: a pseudo-random but deterministic block.
            blk.loopTarget = (b * 7 + 3) % num_blocks;
        } else if (cfg_rng.chance(0.85)) {
            // Tight backward loop edge.
            const uint32_t back =
                1 + static_cast<uint32_t>(cfg_rng.range(4));
            blk.loopTarget = b >= back ? b - back : 0;
        } else {
            // Far jump somewhere in the code region.
            blk.loopTarget =
                static_cast<uint32_t>(cfg_rng.range(num_blocks));
        }
        static const uint32_t kPeriods[4] = {4, 8, 16, 32};
        blk.loopPeriod = kPeriods[cfg_rng.range(4)];
        blocks_.push_back(blk);
    }
}

int16_t
SyntheticCpuTrace::pickIntSrc()
{
    const uint64_t d = rng_.geometric(intDepP_);
    if (d > kHistLen)
        return 0; // far dependency: long-ready register
    const int idx = (intHistPos_ - static_cast<int>(d) + 2 * kHistLen)
        % kHistLen;
    return intHist_[idx];
}

int16_t
SyntheticCpuTrace::pickFpSrc()
{
    // FP code exhibits markedly higher ILP than integer code (the
    // paper leans on this to justify deeper-pipelined TFET FPUs):
    // FP producer-consumer distances are ~3x the integer ones, long
    // enough to keep even the 8-cycle TFET multiplier pipeline fed.
    const uint64_t d = rng_.geometric(fpDepP_);
    if (d > kHistLen)
        return static_cast<int16_t>(cpu::kNumIntRegs);
    const int idx = (fpHistPos_ - static_cast<int>(d) + 2 * kHistLen)
        % kHistLen;
    return fpHist_[idx];
}

int16_t
SyntheticCpuTrace::allocIntDst()
{
    const int16_t r = nextIntDst_;
    nextIntDst_ = nextIntDst_ == cpu::kNumIntRegs - 1
        ? 1 : nextIntDst_ + 1;
    return r;
}

int16_t
SyntheticCpuTrace::allocFpDst()
{
    const int16_t r = nextFpDst_;
    const int16_t last = cpu::kNumIntRegs + cpu::kNumFpRegs - 1;
    nextFpDst_ = nextFpDst_ == last
        ? cpu::kNumIntRegs + 1 : nextFpDst_ + 1;
    return r;
}

void
SyntheticCpuTrace::recordWrite(int16_t reg)
{
    if (reg < 0)
        return;
    if (reg < cpu::kNumIntRegs) {
        intHistPos_ = (intHistPos_ + 1) % kHistLen;
        intHist_[intHistPos_] = reg;
    } else {
        fpHistPos_ = (fpHistPos_ + 1) % kHistLen;
        fpHist_[fpHistPos_] = reg;
    }
}

uint64_t
SyntheticCpuTrace::genAddress(bool is_store)
{
    // Burst reuse: programs re-touch the lines they just touched
    // (fields of the same struct, spills, accumulators). This is what
    // makes the MRU line of a set hot — the property the asymmetric
    // cache's fast way exploits (Section IV-C1).
    if (recentLines_[0] != 0 && rng_.chance(0.55)) {
        const uint64_t line =
            recentLines_[rng_.range(recentLines_.size())];
        // Stores never target the read-only shared region, even via
        // reuse of a recently loaded shared line.
        const bool shared_line = line >= (sharedBase_ >> 6);
        if (line != 0 && !(is_store && shared_line))
            return line * 64 + 8 * rng_.range(8);
    }
    // Shared data is read-mostly (trees, lookup tables); stores go to
    // private data so hot shared lines do not ping-pong artificially.
    const bool shared =
        !is_store && rng_.chance(profile_.sharedFraction);
    const uint64_t footprint = footprintBytes_;
    uint64_t addr;
    if (shared) {
        // Zipf-skewed accesses over the shared region.
        addr = sharedBase_ + 8 * rng_.zipf(sharedBytes_ / 8, 0.9);
    } else if (rng_.chance(profile_.spatialLocality)) {
        // Streaming access over the private working set.
        streamPos_ = (streamPos_ + 8) % footprint;
        addr = privBase_ + streamPos_;
    } else if (rng_.chance(0.85)) {
        // Temporal reuse: most non-streaming accesses touch a small
        // hot region (inner-loop state). It lives apart from the
        // stream so the two do not alias.
        const uint64_t hot_bytes =
            std::min<uint64_t>(16 * 1024, std::max<uint64_t>(
                footprint / 4, 1024));
        addr = privBase_ + (1ull << 28)
            + 8 * rng_.range(hot_bytes / 8);
    } else {
        // Cold scatter over the whole working set.
        addr = privBase_ + 8 * rng_.range(std::max<uint64_t>(
            footprint / 8, 1));
    }
    recentLinePos_ = (recentLinePos_ + 1)
        % static_cast<int>(recentLines_.size());
    recentLines_[recentLinePos_] = addr / 64;
    return addr;
}

void
SyntheticCpuTrace::genBranch(MicroOp &op)
{
    Block &blk = blocks_[curBlock_];

    // A leaf function returns to its caller.
    if (!returnStack_.empty() &&
        curBlock_ == returnStack_.back().first) {
        op.cls = OpClass::Return;
        op.taken = true;
        op.target = returnStack_.back().second;
        returnStack_.pop_back();
        // Resume at the caller's fall-through block.
        uint64_t next_pc = op.target;
        curBlock_ = static_cast<uint32_t>(
            (next_pc - codeBase_) / kBlockBytes);
        pc_ = blocks_[curBlock_].startPc;
        blockOpsLeft_ = blocks_[curBlock_].len;
        return;
    }

    if (blk.isCall && returnStack_.size() < 8) {
        op.cls = OpClass::Call;
        op.taken = true;
        op.target = blocks_[blk.loopTarget].startPc;
        const uint32_t ret_block =
            (curBlock_ + 1) % static_cast<uint32_t>(blocks_.size());
        returnStack_.push_back(
            {blk.loopTarget, blocks_[ret_block].startPc});
        curBlock_ = blk.loopTarget;
        pc_ = blocks_[curBlock_].startPc;
        blockOpsLeft_ = blocks_[curBlock_].len;
        return;
    }

    op.cls = OpClass::Branch;
    // The branch condition depends on a recently produced value, so
    // its resolution (and misprediction penalty) tracks ALU latency.
    op.src1 = pickIntSrc();

    bool taken;
    if (blk.randomBranch) {
        taken = rng_.chance(0.5);
    } else {
        // Loop branch: taken until the trip count expires.
        ++blk.iter;
        taken = blk.iter % blk.loopPeriod != 0;
    }
    op.taken = taken;

    const uint32_t next_block = taken
        ? blk.loopTarget
        : (curBlock_ + 1) % static_cast<uint32_t>(blocks_.size());
    op.target = taken ? blocks_[next_block].startPc : op.pc + 4;
    curBlock_ = next_block;
    pc_ = blocks_[curBlock_].startPc;
    blockOpsLeft_ = blocks_[curBlock_].len;
}

void
SyntheticCpuTrace::genOp(MicroOp &op)
{
    op = MicroOp{};
    op.pc = pc_;

    if (blockOpsLeft_ == 0) {
        genBranch(op);
        return;
    }
    --blockOpsLeft_;
    pc_ += 4;

    const double r = rng_.uniform();
    const double p_load = profile_.loadFraction;
    const double p_store = p_load + profile_.storeFraction;
    const double p_fp = p_store + profile_.fpFraction;

    if (r < p_load) {
        op.cls = OpClass::Load;
        if (lastLoadIntDst_ >= 0 && rng_.chance(kAddrChainP)) {
            // Address depends on the previous load's result.
            op.src1 = lastLoadIntDst_;
        } else {
            op.src1 = pickIntSrc(); // address register
        }
        op.addr = genAddress(false);
        // FP codes load into FP registers proportionally (capped so
        // the FP register file is sized for the baseline mix).
        const bool fp_dst = rng_.chance(
            std::min(0.35, profile_.fpFraction /
                     std::max(0.05, 1.0 - profile_.fpFraction)));
        op.dst = fp_dst ? allocFpDst() : allocIntDst();
        recordWrite(op.dst);
        if (rng_.chance(kLoadUseChainP))
            pendingLoadDst_ = op.dst;
        lastLoadIntDst_ = op.dst < cpu::kNumIntRegs ? op.dst : -1;
        return;
    }
    if (r < p_store) {
        op.cls = OpClass::Store;
        op.src1 = pickIntSrc(); // address register
        op.src2 = rng_.chance(profile_.fpFraction) ? pickFpSrc()
                                                   : pickIntSrc();
        op.addr = genAddress(true);
        return;
    }
    if (r < p_fp) {
        const double fr = rng_.uniform();
        if (fr < profile_.fpDivShare)
            op.cls = OpClass::FpDiv;
        else if (fr < profile_.fpDivShare + profile_.fpMulShare)
            op.cls = OpClass::FpMult;
        else
            op.cls = OpClass::FpAdd;
        if (pendingLoadDst_ >= cpu::kNumIntRegs) {
            op.src1 = pendingLoadDst_;
            pendingLoadDst_ = -1;
        } else {
            op.src1 = pickFpSrc();
        }
        op.src2 = pickFpSrc();
        op.dst = allocFpDst();
        recordWrite(op.dst);
        return;
    }

    // Integer compute.
    const double ir = rng_.uniform();
    if (ir < profile_.intDivShare)
        op.cls = OpClass::IntDiv;
    else if (ir < profile_.intDivShare + profile_.intMulShare)
        op.cls = OpClass::IntMult;
    else
        op.cls = OpClass::IntAlu;
    if (pendingLoadDst_ >= 0 && pendingLoadDst_ < cpu::kNumIntRegs) {
        op.src1 = pendingLoadDst_;
        pendingLoadDst_ = -1;
    } else {
        op.src1 = pickIntSrc();
    }
    if (rng_.chance(0.7))
        op.src2 = pickIntSrc();
    op.dst = allocIntDst();
    recordWrite(op.dst);
}

bool
SyntheticCpuTrace::next(MicroOp &op)
{
    switch (section_) {
      case Section::Finished:
        return false;

      case Section::Parallel:
        if (opsLeftInSection_ > 0) {
            genOp(op);
            --opsLeftInSection_;
            return true;
        }
        section_ = Section::ParallelBarrier;
        [[fallthrough]];

      case Section::ParallelBarrier:
        op = MicroOp{};
        op.cls = OpClass::Barrier;
        section_ = Section::Serial;
        opsLeftInSection_ = serialOpsPerPhase_;
        return true;

      case Section::Serial:
        if (opsLeftInSection_ > 0) {
            genOp(op);
            --opsLeftInSection_;
            return true;
        }
        section_ = Section::SerialBarrier;
        [[fallthrough]];

      case Section::SerialBarrier:
        op = MicroOp{};
        op.cls = OpClass::Barrier;
        ++phase_;
        if (phase_ >= profile_.phases) {
            section_ = Section::Finished;
        } else {
            section_ = Section::Parallel;
            opsLeftInSection_ = parallelOpsPerPhase_;
        }
        return true;
    }
    return false;
}

std::vector<std::unique_ptr<cpu::TraceSource>>
makeCpuWorkload(const AppProfile &profile, uint32_t num_threads,
                uint64_t seed, double scale)
{
    std::vector<std::unique_ptr<cpu::TraceSource>> out;
    out.reserve(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) {
        if (profile.sharing.enabled)
            out.push_back(std::make_unique<SharedCpuTrace>(
                profile, t, num_threads, seed, scale));
        else
            out.push_back(std::make_unique<SyntheticCpuTrace>(
                profile, t, num_threads, seed, scale));
    }
    return out;
}

std::vector<std::unique_ptr<SyntheticCpuTrace>>
makeWeightedCpuWorkload(const AppProfile &profile,
                        const std::vector<double> &weights,
                        uint64_t seed, double scale)
{
    hetsim_assert(!weights.empty(), "need at least one weight");
    double sum = 0.0;
    for (double w : weights) {
        hetsim_assert(w > 0.0, "weights must be positive");
        sum += w;
    }
    std::vector<std::unique_ptr<SyntheticCpuTrace>> out;
    out.reserve(weights.size());
    const auto n = static_cast<uint32_t>(weights.size());
    for (uint32_t t = 0; t < n; ++t)
        out.push_back(std::make_unique<SyntheticCpuTrace>(
            profile, t, n, seed, scale, weights[t] / sum));
    return out;
}

} // namespace hetsim::workload
