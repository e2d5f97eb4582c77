/**
 * @file
 * Tests for the compute unit and the full GPU: kernel execution,
 * workgroup barriers, RF gating of the SIMD pipe, register-file
 * cache recovery, and the memory system.
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <string>
#include <type_traits>

#include "core/configs.hh"
#include "gpu/gpu.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;
using namespace hetsim::gpu;

namespace
{

/** A kernel whose wavefronts run a fixed synthetic loop. */
class FixedKernel : public GpuKernel
{
  public:
    FixedKernel(std::vector<GpuOp> ops, uint32_t groups, uint32_t wpg)
        : ops_(std::move(ops)), groups_(groups), wpg_(wpg)
    {
    }

    uint32_t numWorkgroups() const override { return groups_; }
    uint32_t wavefrontsPerGroup() const override { return wpg_; }

    std::unique_ptr<WavefrontProgram>
    makeWavefront(uint32_t, uint32_t) override
    {
        class Prog : public WavefrontProgram
        {
          public:
            explicit Prog(const std::vector<GpuOp> &ops) : ops_(ops)
            {
            }
            bool
            next(GpuOp &op) override
            {
                if (pos_ >= ops_.size())
                    return false;
                op = ops_[pos_++];
                return true;
            }

          private:
            const std::vector<GpuOp> &ops_;
            size_t pos_ = 0;
        };
        return std::make_unique<Prog>(ops_);
    }

  private:
    std::vector<GpuOp> ops_;
    uint32_t groups_;
    uint32_t wpg_;
};

GpuOp
fma(int16_t dst, int16_t a, int16_t b, int16_t c)
{
    GpuOp op;
    op.cls = GpuOpClass::VAlu;
    op.dst = dst;
    op.src[0] = a;
    op.src[1] = b;
    op.src[2] = c;
    op.numSrcs = 3;
    return op;
}

GpuOp
vload(int16_t dst, uint64_t addr, uint8_t lines = 1)
{
    GpuOp op;
    op.cls = GpuOpClass::VLoad;
    op.dst = dst;
    op.src[0] = 0;
    op.numSrcs = 1;
    op.addr = addr;
    op.numLines = lines;
    return op;
}

GpuOp
sbar()
{
    GpuOp op;
    op.cls = GpuOpClass::SBarrier;
    return op;
}

std::vector<GpuOp>
denseProgram(int n)
{
    std::vector<GpuOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(fma(64 + (i % 32),
                          static_cast<int16_t>(i % 16),
                          static_cast<int16_t>((i + 3) % 16),
                          static_cast<int16_t>(64 + ((i + 31) % 32))));
    return ops;
}

GpuParams
smallGpu(uint32_t cus = 2)
{
    GpuParams p;
    p.numCus = cus;
    p.maxCycles = 1 << 24;
    return p;
}

// Every CU holds a pointer to its Gpu's memory system, which holds a
// reference to the Gpu's params: neither may move.
static_assert(!std::is_move_constructible_v<Gpu>);
static_assert(!std::is_move_constructible_v<GpuMemSystem>);

} // namespace

TEST(Gpu, RunsKernelToCompletion)
{
    FixedKernel k(denseProgram(100), 8, 2);
    Gpu gpu(smallGpu());
    const GpuResult res = gpu.run(k);
    // 8 groups x 2 wavefronts x 100 ops.
    EXPECT_EQ(res.issuedOps, 1600u);
    EXPECT_GT(res.cycles, 0u);
}

TEST(Gpu, WorkgroupsSpreadAcrossCus)
{
    FixedKernel k(denseProgram(50), 8, 2);
    Gpu gpu(smallGpu(4));
    gpu.run(k);
    for (uint32_t c = 0; c < 4; ++c)
        EXPECT_GT(gpu.cu(c).stats().value("workgroups_launched"), 0u);
}

TEST(Gpu, BarrierSynchronizesWorkgroup)
{
    std::vector<GpuOp> ops = denseProgram(20);
    ops.push_back(sbar());
    auto tail = denseProgram(20);
    ops.insert(ops.end(), tail.begin(), tail.end());

    FixedKernel k(ops, 2, 2);
    Gpu gpu(smallGpu(1));
    const GpuResult res = gpu.run(k);
    EXPECT_EQ(res.issuedOps, 2u * 2u * 40u);
    EXPECT_GT(gpu.cu(0).stats().value("barrier_releases"), 0u);
}

TEST(Gpu, SimdBeatsBoundThroughput)
{
    // A single wavefront of independent FMAs issues one op per 4
    // beats (16 lanes, 64 threads) at best.
    std::vector<GpuOp> ops;
    for (int i = 0; i < 200; ++i)
        ops.push_back(fma(64 + (i % 64),
                          static_cast<int16_t>(i % 8),
                          static_cast<int16_t>((i + 1) % 8),
                          static_cast<int16_t>((i + 2) % 8)));
    FixedKernel k(ops, 1, 1);
    Gpu gpu(smallGpu(1));
    const GpuResult res = gpu.run(k);
    EXPECT_GE(res.cycles, 790u); // ~4 beats x 200 ops
}

TEST(Gpu, TfetRfGatesThroughput)
{
    // The TFET register file (2-cycle ports) makes a 3-source FMA
    // occupy the SIMD longer than its 4 beats: dense code slows.
    FixedKernel k(denseProgram(300), 4, 2);

    GpuParams cmos = smallGpu(1);
    Gpu g1(cmos);
    const uint64_t cmos_cycles = g1.run(k).cycles;

    GpuParams tfet = smallGpu(1);
    tfet.cu.timings.fmaLat = 6;
    tfet.cu.timings.rfLat = 2;
    Gpu g2(tfet);
    const uint64_t tfet_cycles = g2.run(k).cycles;

    EXPECT_GT(tfet_cycles, cmos_cycles * 13 / 10);
}

TEST(Gpu, PortBoundCuSleepsUntilThePortFrees)
{
    // TFET RF without the RF cache: an FMA's three reads and one write
    // at 2 cycles each hold the SIMD port for 8 cycles, twice its 4
    // beats, so two wavefronts of dense FMAs are port-bound. After
    // each issue the CU needs one tick to find the port busy; then it
    // must sleep until the port frees rather than tick every cycle.
    GpuParams p = smallGpu(1);
    p.cu.timings.fmaLat = 6;
    p.cu.timings.rfLat = 2;
    FixedKernel k(denseProgram(300), 1, 2);
    Gpu gpu(p);
    const GpuResult res = gpu.run(k);
    EXPECT_EQ(res.issuedOps, 600u);
    // The run ends when the last FMA issues, not when it frees the
    // port.
    EXPECT_GE(res.cycles, 8u * 599u);
    EXPECT_LE(res.cuTicks, 2 * res.issuedOps + 2);
}

TEST(Gpu, RfCacheRecoversTfetLoss)
{
    FixedKernel k(denseProgram(300), 4, 2);

    GpuParams het = smallGpu(1);
    het.cu.timings.fmaLat = 6;
    het.cu.timings.rfLat = 2;
    Gpu g1(het);
    const uint64_t base_het = g1.run(k).cycles;

    GpuParams adv = het;
    adv.cu.timings.useRfCache = true;
    Gpu g2(adv);
    const uint64_t adv_het = g2.run(k).cycles;

    EXPECT_LT(adv_het, base_het);
    EXPECT_GT(g2.cu(0).stats().value("rf_cache_read_hits"), 0u);
}

TEST(Gpu, MemoryLatencyHiddenByMultipleWavefronts)
{
    std::vector<GpuOp> ops;
    for (int i = 0; i < 50; ++i) {
        ops.push_back(vload(64 + (i % 32),
                            0x100000 + 4096ull * i, 4));
        ops.push_back(fma(128 + (i % 32), 64 + (i % 32), 1, 2));
    }
    FixedKernel k(ops, 2, 2);
    Gpu one_wf(smallGpu(1));
    // Compare a 2-wavefront CU with... run two workgroups on one CU
    // (2 wf) vs restricting to a single wavefront per group.
    const uint64_t two = one_wf.run(k).cycles;

    FixedKernel k1(ops, 2, 1);
    GpuParams p1 = smallGpu(1);
    p1.cu.maxWavefronts = 1;
    Gpu g1(p1);
    const uint64_t serial = g1.run(k1).cycles;
    EXPECT_LT(two, serial);
}

TEST(Gpu, MemSystemCachesLines)
{
    GpuParams p = smallGpu(1);
    GpuMemSystem mem(p);
    const uint32_t cold = mem.access(0, 0x40000, false, 0);
    const uint32_t warm = mem.access(0, 0x40000, false, 10);
    EXPECT_GT(cold, p.l2Rt);
    EXPECT_EQ(warm, p.l1Rt);
}

TEST(Gpu, MemSystemWritebackOnEviction)
{
    GpuParams p = smallGpu(1);
    p.l1SizeBytes = 1024;
    p.l1Ways = 2;
    p.l2SizeBytes = 4096;
    GpuMemSystem mem(p);
    mem.access(0, 0x0, true, 0); // dirty line
    // Thrash both cache levels.
    for (uint64_t i = 1; i < 512; ++i)
        mem.access(0, i * 64, false, i);
    EXPECT_GT(mem.dram().stats().value("writes"), 0u);
}

TEST(Gpu, RoundRobinSharesIssueSlots)
{
    // Two wavefronts of identical dense code must issue a similar
    // number of ops over time (no starvation).
    FixedKernel k(denseProgram(400), 1, 2);
    Gpu gpu(smallGpu(1));
    gpu.run(k);
    // Both wavefronts completed the same program, so total issued
    // ops is exact; the round-robin pointer guarantees neither can
    // be starved while the other is issuing.
    EXPECT_EQ(gpu.cu(0).issuedOps(), 800u);
}

TEST(Gpu, CoalescingCostsLatency)
{
    // A 8-line scatter load takes longer than a 1-line coalesced
    // load (the coalescer issues one line per cycle).
    auto make = [](uint8_t lines) {
        std::vector<GpuOp> ops;
        for (int i = 0; i < 100; ++i) {
            ops.push_back(vload(64 + (i % 32),
                                0x100000 + 1024ull * i, lines));
            ops.push_back(fma(128, 64 + (i % 32), 1, 2));
        }
        return ops;
    };
    FixedKernel k1(make(1), 2, 1), k8(make(8), 2, 1);
    GpuParams p = smallGpu(1);
    p.cu.maxWavefronts = 1;
    Gpu g1(p), g8(p);
    EXPECT_LT(g1.run(k1).cycles, g8.run(k8).cycles);
}

TEST(Gpu, PartitionedRfFastRegistersAreFast)
{
    // Related-work alternative (Section VIII): the lowest registers
    // live in a CMOS fast partition. A kernel reading only low
    // registers loses nothing to the TFET RF.
    std::vector<GpuOp> low, high;
    for (int i = 0; i < 200; ++i) {
        low.push_back(fma(8 + (i % 16),
                          static_cast<int16_t>(i % 8),
                          static_cast<int16_t>((i + 1) % 8),
                          static_cast<int16_t>((i + 2) % 8)));
        high.push_back(fma(200 + (i % 16),
                           static_cast<int16_t>(128 + i % 8),
                           static_cast<int16_t>(128 + (i + 1) % 8),
                           static_cast<int16_t>(128 + (i + 2) % 8)));
    }
    GpuParams p = smallGpu(1);
    p.cu.timings.rfLat = 2; // TFET RF
    p.cu.timings.fmaLat = 6;
    p.cu.timings.partitionedRf = true;
    p.cu.timings.fastPartitionRegs = 64;

    FixedKernel k_low(low, 2, 2), k_high(high, 2, 2);
    Gpu g1(p), g2(p);
    const uint64_t low_cycles = g1.run(k_low).cycles;
    const uint64_t high_cycles = g2.run(k_high).cycles;
    EXPECT_LT(low_cycles, high_cycles);
    EXPECT_GT(g1.cu(0).stats().value("rf_fast_partition_reads"), 0u);
    EXPECT_EQ(g2.cu(0).stats().value("rf_fast_partition_reads"), 0u);
}

TEST(Gpu, DeterministicAcrossRuns)
{
    auto run_once = [] {
        const auto &prof = workload::gpuKernel("dct");
        workload::SyntheticKernel k(prof, 3, 0.05);
        Gpu gpu(smallGpu(2));
        return gpu.run(k).cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Gpu, ActivityCountsPopulated)
{
    const auto &prof = workload::gpuKernel("reduction");
    workload::SyntheticKernel k(prof, 1, 0.05);
    Gpu gpu(smallGpu(2));
    const GpuResult res = gpu.run(k);
    using power::GpuUnit;
    auto count = [&](GpuUnit u) {
        return res.activity[static_cast<int>(u)];
    };
    EXPECT_EQ(count(GpuUnit::FetchIssue), res.issuedOps);
    EXPECT_GT(count(GpuUnit::SimdFma), 0u);
    EXPECT_GT(count(GpuUnit::VectorRf), 0u);
    EXPECT_GT(count(GpuUnit::Lds), 0u);
    EXPECT_GT(count(GpuUnit::L1), 0u);
    EXPECT_GT(count(GpuUnit::ClockTree), 0u);
}

TEST(GpuDeath, OversizedWorkgroupIsFatal)
{
    FixedKernel k(denseProgram(10), 1, 5); // > maxWavefronts (2)
    Gpu gpu(smallGpu(1));
    EXPECT_DEATH(gpu.run(k), "does not fit");
}

namespace
{

/** CU counters pinned per run, summed over the chip's CUs. */
constexpr const char *kPinnedCuCounters[] = {
    "rf_cache_read_hits", "rf_cache_read_misses", "vloads", "vstores",
    "barrier_releases", "workgroups_launched", "workgroups_retired",
};

/** Cycles, issued ops, every GpuActivity entry, then
 *  kPinnedCuCounters. */
using GpuPinnedValues =
    std::array<uint64_t, 2 + power::kNumGpuUnits +
                             std::size(kPinnedCuCounters)>;

GpuPinnedValues
measureGpuPinned(core::GpuConfig config, const char *kernel)
{
    const core::GpuConfigBundle bundle = core::makeGpuConfig(config);
    workload::SyntheticKernel k(workload::gpuKernel(kernel), 1, 0.05);
    Gpu gpu(bundle.sim);
    const GpuResult res = gpu.run(k);
    GpuPinnedValues v{};
    v[0] = res.cycles;
    v[1] = res.issuedOps;
    for (int i = 0; i < power::kNumGpuUnits; ++i)
        v[2 + i] = res.activity[i];
    for (uint32_t c = 0; c < gpu.numCus(); ++c) {
        for (size_t i = 0; i < std::size(kPinnedCuCounters); ++i)
            v[2 + power::kNumGpuUnits + i] +=
                gpu.cu(c).stats().value(kPinnedCuCounters[i]);
    }
    return v;
}

} // namespace

TEST(GpuModelPins, IntegerResultsMatchRecordedValues)
{
    // Exact integer results of the GPU model on four configurations
    // (BaseTFET runs at half clock, AdvHet has the RF cache,
    // AdvHet-2X 16 CUs) and four kernels: matrixmul (4 barriers),
    // blackscholes (none), bitonicsort (6) and histogram (scatter
    // loads). Recorded with the loop that ticked every CU every
    // cycle. Integers only, so the pins do not depend on
    // floating-point platform details.
    using core::GpuConfig;
    const struct
    {
        GpuConfig config;
        const char *kernel;
        GpuPinnedValues want;
    } kPins[] = {
        {GpuConfig::BaseCmos, "matrixmul",
         {3404, 3750, 3750, 385, 2349, 8154, 0, 6854, 358, 2510, 1726,
          27232, 3632, 4932, 515, 143, 100, 25, 25}},
        {GpuConfig::BaseCmos, "blackscholes",
         {2430, 3000, 3000, 458, 2108, 5507, 0, 6160, 0, 1130, 946, 19440,
          3793, 3140, 259, 175, 0, 25, 25}},
        {GpuConfig::BaseCmos, "bitonicsort",
         {2619, 2250, 2250, 274, 1018, 4338, 0, 3416, 150, 4864, 3996,
          20952, 1800, 2722, 448, 360, 150, 25, 25}},
        {GpuConfig::BaseCmos, "histogram",
         {2479, 2000, 2000, 171, 801, 4126, 0, 3104, 342, 4320, 3796,
          19832, 1476, 2498, 485, 201, 50, 25, 25}},
        {GpuConfig::BaseTfet, "matrixmul",
         {3404, 3750, 3750, 385, 2349, 11786, 0, 0, 358, 2510, 1726,
          27232, 0, 0, 515, 143, 100, 25, 25}},
        {GpuConfig::BaseTfet, "blackscholes",
         {2430, 3000, 3000, 458, 2108, 9300, 0, 0, 0, 1130, 946, 19440, 0,
          0, 259, 175, 0, 25, 25}},
        {GpuConfig::BaseTfet, "bitonicsort",
         {2619, 2250, 2250, 274, 1018, 6138, 0, 0, 150, 4864, 3996, 20952,
          0, 0, 448, 360, 150, 25, 25}},
        {GpuConfig::BaseTfet, "histogram",
         {2479, 2000, 2000, 171, 801, 5602, 0, 0, 342, 4320, 3796, 19832,
          0, 0, 485, 201, 50, 25, 25}},
        {GpuConfig::AdvHet, "matrixmul",
         {3776, 3750, 3750, 385, 2349, 8154, 0, 6854, 358, 2510, 1726,
          30208, 3632, 4932, 515, 143, 100, 25, 25}},
        {GpuConfig::AdvHet, "blackscholes",
         {2792, 3000, 3000, 458, 2108, 5507, 0, 6160, 0, 1130, 946, 22336,
          3793, 3140, 259, 175, 0, 25, 25}},
        {GpuConfig::AdvHet, "bitonicsort",
         {2785, 2250, 2250, 274, 1018, 4338, 0, 3416, 150, 4864, 3996,
          22280, 1800, 2722, 448, 360, 150, 25, 25}},
        {GpuConfig::AdvHet, "histogram",
         {2503, 2000, 2000, 171, 801, 4126, 0, 3104, 342, 4320, 3796,
          20024, 1476, 2498, 485, 201, 50, 25, 25}},
        {GpuConfig::AdvHet2X, "matrixmul",
         {2062, 3750, 3750, 385, 2349, 8154, 0, 6854, 358, 2510, 1726,
          32992, 3632, 4932, 515, 143, 100, 25, 25}},
        {GpuConfig::AdvHet2X, "blackscholes",
         {1559, 3000, 3000, 458, 2108, 5507, 0, 6160, 0, 1130, 946, 24944,
          3793, 3140, 259, 175, 0, 25, 25}},
        {GpuConfig::AdvHet2X, "bitonicsort",
         {1594, 2250, 2250, 274, 1018, 4338, 0, 3416, 150, 4864, 3996,
          25504, 1800, 2722, 448, 360, 150, 25, 25}},
        {GpuConfig::AdvHet2X, "histogram",
         {1550, 2000, 2000, 171, 801, 4126, 0, 3104, 342, 4320, 3796,
          24800, 1476, 2498, 485, 201, 50, 25, 25}},
    };
    for (const auto &pin : kPins) {
        SCOPED_TRACE(std::string(core::gpuConfigName(pin.config)) + "/" +
                     pin.kernel);
        EXPECT_EQ(measureGpuPinned(pin.config, pin.kernel), pin.want);
    }
}
