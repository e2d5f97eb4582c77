/**
 * @file
 * Unit and property tests for the out-of-order core.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

#include "common/rng.hh"
#include "cpu/ooo_core.hh"
#include "cpu/ring_queue.hh"
#include "mem/hierarchy.hh"
#include "workload/vector_trace.hh"

using namespace hetsim;
using namespace hetsim::cpu;
using workload::VectorTrace;

namespace
{

MicroOp
alu(int16_t dst, int16_t src1 = -1, int16_t src2 = -1,
    uint64_t pc = 0x1000)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    op.pc = pc;
    return op;
}

MicroOp
load(int16_t dst, uint64_t addr, int16_t addr_reg = -1,
     uint8_t size = 8)
{
    MicroOp op;
    op.cls = OpClass::Load;
    op.dst = dst;
    op.src1 = addr_reg;
    op.addr = addr;
    op.accessSize = size;
    op.pc = 0x1000;
    return op;
}

MicroOp
store(uint64_t addr, int16_t data_reg = -1, uint8_t size = 8)
{
    MicroOp op;
    op.cls = OpClass::Store;
    op.src2 = data_reg;
    op.addr = addr;
    op.accessSize = size;
    op.pc = 0x1000;
    return op;
}

mem::HierarchyParams
memParams()
{
    mem::HierarchyParams p;
    p.numCores = 1;
    return p; // prefetchers enabled: sequential code stays IL1-hot
}

/** Run one core until finished; returns the cycle count. */
uint64_t
runCore(OooCore &core, uint64_t limit = 1000000)
{
    mem::Cycle now = 0;
    while (!core.finished()) {
        core.tick(now);
        ++now;
        EXPECT_LT(now, limit) << "core did not finish";
        if (now >= limit)
            break;
    }
    return now;
}

struct CoreRig
{
    explicit CoreRig(std::vector<MicroOp> ops,
                     CoreParams params = CoreParams{},
                     mem::HierarchyParams mem_params = memParams())
        : trace(std::move(ops)), hier(mem_params),
          core(params, 0, &hier, &trace)
    {
    }

    VectorTrace trace;
    mem::MemHierarchy hier;
    OooCore core;
};

} // namespace

TEST(OooCore, CommitsEveryOpExactlyOnce)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i)
        ops.push_back(alu(1 + (i % 30), 0, -1, 0x1000 + 4 * i));
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.committedOps(), 100u);
    EXPECT_TRUE(rig.core.finished());
}

TEST(OooCore, IndependentOpsReachIssueWidth)
{
    // 400 independent single-cycle ops on a 4-wide machine should
    // sustain close to 4 IPC.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 400; ++i)
        ops.push_back(alu(1 + (i % 30), -1, -1, 0x1000 + 4 * i));
    CoreRig rig(ops);
    const uint64_t cycles = runCore(rig.core);
    // ~100 issue cycles + pipeline fill + one cold IL1 miss.
    EXPECT_LT(cycles, 300u);
}

TEST(OooCore, DependentChainBoundByAluLatency)
{
    // A strict chain of N dependent 1-cycle ALU ops takes >= N cycles.
    std::vector<MicroOp> ops;
    ops.push_back(alu(1, -1));
    for (int i = 0; i < 199; ++i)
        ops.push_back(alu(1 + ((i + 1) % 8), 1 + (i % 8), -1,
                          0x1000 + 4 * i));
    CoreRig rig(ops);
    const uint64_t cycles = runCore(rig.core);
    EXPECT_GE(cycles, 200u);
    EXPECT_LT(cycles, 400u);
}

TEST(OooCore, TwoCycleAluDoublesChainTime)
{
    auto make_ops = [] {
        std::vector<MicroOp> ops;
        ops.push_back(alu(1, -1));
        for (int i = 0; i < 1999; ++i)
            ops.push_back(alu(1 + ((i + 1) % 8), 1 + (i % 8), -1,
                              0x1000 + 4 * (i % 256)));
        return ops;
    };
    CoreParams slow;
    slow.fu.timings.aluLat = 2;
    CoreRig fast_rig(make_ops());
    CoreRig slow_rig(make_ops(), slow);
    const uint64_t fast_cycles = runCore(fast_rig.core);
    const uint64_t slow_cycles = runCore(slow_rig.core);
    EXPECT_NEAR(static_cast<double>(slow_cycles) / fast_cycles, 2.0,
                0.2);
}

TEST(OooCore, LoadLatencyOnCriticalPath)
{
    // Address-chained loads: each load's address register depends on
    // the previous load's value, so every DL1 round trip lands on
    // the critical path.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x8000)); // warms the line
    for (int i = 0; i < 100; ++i) {
        ops.push_back(load(1, 0x8000, 1));
        ops.push_back(alu(2, 1));
    }
    CoreRig fast_rig(ops); // DL1 RT 2
    const uint64_t fast_cycles = runCore(fast_rig.core);

    mem::HierarchyParams tfet_mem = memParams();
    tfet_mem.lat.dl1Rt = 4; // TFET DL1
    CoreRig slow_rig(ops, CoreParams{}, tfet_mem);
    const uint64_t slow_cycles = runCore(slow_rig.core);
    EXPECT_GT(slow_cycles, fast_cycles + 150);
}

TEST(OooCore, StoreToLoadForwardingIsFast)
{
    // A load that hits a pending store forwards in ~2 cycles instead
    // of paying the memory round trip.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1));
        ops.push_back(load(1, 0x9000));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("forwarded_loads"), 90u);
}

TEST(OooCore, ForwardingRequiresContainment)
{
    // A narrow store under a wide load overlaps but cannot supply all
    // of the load's bytes: the load must wait for the store and then
    // access memory (counted as a partial-forward replay), never
    // forward stale data.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x9000)); // warms the line
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1, 4));
        ops.push_back(load(1, 0x9000, -1, 8));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("forwarded_loads"), 0u);
    EXPECT_GT(rig.core.stats().value("partial_forward_replays"),
              90u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, DisjointBytesInSameChunkDoNotAlias)
{
    // Regression for the chunk-granularity aliasing bug: a 4-byte
    // store at 0x9004 and a 4-byte load at 0x9000 share an 8-byte
    // chunk but touch disjoint bytes, so the load must neither
    // forward nor replay against the store.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x9000)); // warms the line
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9004, -1, 4));
        ops.push_back(load(1, 0x9000, -1, 4));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("forwarded_loads"), 0u);
    EXPECT_EQ(rig.core.stats().value("partial_forward_replays"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, ContainedNarrowLoadForwards)
{
    // A narrow load fully inside a pending wide store forwards even
    // though their addresses differ.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1, 8));
        ops.push_back(load(1, 0x9004, -1, 4));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("forwarded_loads"), 90u);
    EXPECT_EQ(rig.core.stats().value("partial_forward_replays"), 0u);
}

TEST(OooCore, ChunkSpanningOverlapReplays)
{
    // A load straddling the end of a pending store overlaps it
    // (first 4 bytes) without being contained; the old chunk compare
    // missed this aliasing when the addresses fell in different
    // 8-byte chunks.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x9000));
    ops.push_back(load(1, 0x9008)); // warm both lines' chunks
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1, 8));
        ops.push_back(load(1, 0x9004, -1, 8));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("forwarded_loads"), 0u);
    EXPECT_GT(rig.core.stats().value("partial_forward_replays"),
              90u);
}

TEST(OooCore, MispredictBlocksFetch)
{
    // Random branches cause redirects with the frontend penalty.
    std::vector<MicroOp> ops;
    Rng rng(3);
    uint64_t pc = 0x1000;
    for (int i = 0; i < 50; ++i) {
        for (int j = 0; j < 3; ++j) {
            ops.push_back(alu(1 + (j % 8), -1, -1, pc));
            pc += 4;
        }
        MicroOp br;
        br.cls = OpClass::Branch;
        br.pc = pc;
        br.taken = rng.chance(0.5);
        br.target = br.taken ? 0x1000 : pc + 4;
        pc = br.taken ? 0x1000 : pc + 4;
        ops.push_back(br);
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("mispredict_redirects"), 5u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, RobFullBackpressure)
{
    CoreParams params;
    params.robSize = 8;
    // A long-latency head (div) blocks commit while independents pile
    // up: the ROB-full stall counter must fire.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        MicroOp div;
        div.cls = OpClass::IntDiv;
        div.dst = 1;
        div.pc = 0x1000;
        ops.push_back(div);
        for (int j = 0; j < 7; ++j)
            ops.push_back(alu(2 + j, -1, -1, 0x1010 + j * 4));
    }
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("rob_full_stalls"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, FpRegisterFileBackpressure)
{
    CoreParams params;
    params.fpRegs = 34; // only 2 in-flight FP destinations
    std::vector<MicroOp> ops;
    for (int i = 0; i < 60; ++i) {
        MicroOp fp;
        fp.cls = OpClass::FpMult;
        fp.dst = kNumIntRegs + (i % 8);
        fp.pc = 0x1000 + 4 * i;
        ops.push_back(fp);
    }
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("fp_rf_stalls"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, LsqBackpressure)
{
    CoreParams params;
    params.lsqSize = 4;
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i)
        ops.push_back(load(1 + (i % 8), 0x100000 + 64 * i));
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("lsq_full_stalls"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, BarrierParksAndReleases)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1, -1));
    MicroOp barrier;
    barrier.cls = OpClass::Barrier;
    ops.push_back(barrier);
    ops.push_back(alu(2, -1));

    CoreRig rig(ops);
    mem::Cycle now = 0;
    while (!rig.core.waitingAtBarrier()) {
        rig.core.tick(now++);
        ASSERT_LT(now, 1000u);
    }
    EXPECT_EQ(rig.core.committedOps(), 1u);
    EXPECT_FALSE(rig.core.finished());
    rig.core.releaseBarrier();
    while (!rig.core.finished()) {
        rig.core.tick(now++);
        ASSERT_LT(now, 2000u);
    }
    EXPECT_EQ(rig.core.committedOps(), 2u);
}

TEST(OooCore, SteeringMarksProducersWithNearbyConsumers)
{
    CoreParams params;
    params.steerDependents = true;
    params.fu.dualSpeedAlu = true;
    params.fu.numFastAlus = 1;
    params.fu.timings.aluLat = 2;

    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        ops.push_back(alu(1, -1, -1, 0x1000 + 8 * i));
        ops.push_back(alu(2, 1, -1, 0x1004 + 8 * i)); // consumer
    }
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("steered_fast"), 25u);
    uint64_t fast = rig.core.fuPool().stats().value("fast_alu_ops");
    EXPECT_GE(fast, 20u);
}

TEST(OooCore, NoSteeringWithoutConsumers)
{
    CoreParams params;
    params.steerDependents = true;
    params.fu.dualSpeedAlu = true;
    params.fu.numFastAlus = 1;

    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i)
        ops.push_back(alu(1 + (i % 20), -1, -1, 0x1000 + 4 * i));
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("steered_fast"), 0u);
}

// ------------------------- Property tests -------------------------

namespace
{

/** A random 3000-op program mixing every op class the core models. */
std::vector<MicroOp>
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    std::vector<MicroOp> ops;
    uint64_t pc = 0x1000;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const double r = rng.uniform();
        MicroOp op;
        op.pc = pc;
        pc += 4;
        if (r < 0.2) {
            op.cls = OpClass::Load;
            op.addr = 0x100000 + rng.range(4096) * 8;
            op.dst = static_cast<int16_t>(1 + rng.range(60));
            op.src1 = static_cast<int16_t>(rng.range(31));
        } else if (r < 0.3) {
            op.cls = OpClass::Store;
            op.addr = 0x100000 + rng.range(4096) * 8;
            op.src1 = static_cast<int16_t>(rng.range(31));
            op.src2 = static_cast<int16_t>(rng.range(62));
        } else if (r < 0.4) {
            op.cls = rng.chance(0.5) ? OpClass::FpAdd
                                     : OpClass::FpMult;
            op.dst = static_cast<int16_t>(
                kNumIntRegs + 1 + rng.range(30));
            op.src1 = static_cast<int16_t>(
                kNumIntRegs + rng.range(31));
            op.src2 = static_cast<int16_t>(
                kNumIntRegs + rng.range(31));
        } else if (r < 0.5) {
            op.cls = OpClass::Branch;
            op.taken = rng.chance(0.5);
            op.target = op.taken
                ? 0x1000 + rng.range(512) * 4
                : op.pc + 4;
        } else if (r < 0.53) {
            op.cls = rng.chance(0.5) ? OpClass::IntMult
                                     : OpClass::IntDiv;
            op.dst = static_cast<int16_t>(1 + rng.range(30));
            op.src1 = static_cast<int16_t>(rng.range(31));
        } else {
            op.cls = OpClass::IntAlu;
            op.dst = static_cast<int16_t>(1 + rng.range(30));
            op.src1 = static_cast<int16_t>(rng.range(31));
            if (rng.chance(0.6))
                op.src2 = static_cast<int16_t>(rng.range(31));
        }
        ops.push_back(op);
    }
    return ops;
}

/** Run to completion, checking the core's invariants every cycle;
 *  returns the cycle count. */
uint64_t
runChecked(OooCore &core)
{
    mem::Cycle now = 0;
    while (!core.finished() && now < 1000000) {
        core.tick(now);
        ++now;
        EXPECT_TRUE(core.checkDependencyOrder()) << "cycle " << now;
        EXPECT_TRUE(core.checkOccupancyBounds()) << "cycle " << now;
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_TRUE(core.finished());
    return now;
}

} // namespace

class OooCorePropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OooCorePropertyTest, RandomProgramsCommitCompletely)
{
    const std::vector<MicroOp> ops = randomProgram(GetParam());
    CoreRig rig(ops);
    const uint64_t cycles = runChecked(rig.core);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
    // IPC can never exceed the machine width.
    EXPECT_GE(cycles * 4, ops.size());
}

TEST_P(OooCorePropertyTest, TinyQueuesWrap)
{
    // A 5-entry ROB, 4-entry IQ and 3-entry LSQ: over a 3000-op
    // program each ring queue (ROB, store queue, 16-entry fetch queue)
    // wraps at least a hundred times. The cycle counts were recorded
    // with the std::deque-based core.
    CoreParams params;
    params.robSize = 5;
    params.iqSize = 4;
    params.lsqSize = 3;
    const std::vector<MicroOp> ops = randomProgram(GetParam());
    CoreRig rig(ops, params);
    const std::map<uint64_t, uint64_t> kCycles = {
        {1, 30797}, {2, 28775}, {3, 30689}, {5, 30549},
        {8, 29180}, {13, 28733}, {21, 28333}, {42, 29192},
    };
    EXPECT_EQ(runChecked(rig.core), kCycles.at(GetParam()));
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooCorePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

TEST(OooCore, IncrementalOccupancyMatchesPerCycleWalk)
{
    // The occupancy integrals are maintained incrementally (satellite
    // of the event-horizon work); replay the per-cycle structure walk
    // they replaced and require exact agreement.
    Rng rng(7);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 2000; ++i) {
        const double r = rng.uniform();
        if (r < 0.25)
            ops.push_back(load(1 + static_cast<int16_t>(rng.range(30)),
                               0x200000 + rng.range(1 << 14) * 8,
                               static_cast<int16_t>(rng.range(31))));
        else if (r < 0.35)
            ops.push_back(store(0x200000 + rng.range(1 << 14) * 8,
                                static_cast<int16_t>(rng.range(31))));
        else
            ops.push_back(alu(1 + static_cast<int16_t>(rng.range(30)),
                              static_cast<int16_t>(rng.range(31)),
                              static_cast<int16_t>(rng.range(31)),
                              0x1000 + 4 * i));
    }

    CoreRig rig(ops);
    uint64_t ticks = 0;
    uint64_t rob_occ = 0;
    uint64_t iq_occ = 0;
    uint64_t lsq_occ = 0;
    mem::Cycle now = 0;
    while (!rig.core.finished() && now < 1000000) {
        ++ticks;
        rob_occ += rig.core.robOccupancy();
        iq_occ += rig.core.iqOccupancy();
        lsq_occ += rig.core.lsqOccupancy();
        rig.core.tick(now);
        ++now;
    }
    ASSERT_TRUE(rig.core.finished());

    const StatGroup &s = rig.core.stats();
    EXPECT_EQ(s.value("ticks"), ticks);
    EXPECT_EQ(s.value("rob_occ_cycles"), rob_occ);
    EXPECT_EQ(s.value("iq_occ_cycles"), iq_occ);
    EXPECT_EQ(s.value("lsq_occ_cycles"), lsq_occ);
    EXPECT_GT(rob_occ, 0u);
    EXPECT_GT(iq_occ, 0u);
    EXPECT_GT(lsq_occ, 0u);
}

// --------------------------- Ring queue ---------------------------

TEST(RingQueue, IndexesFromTheOldestAcrossTheWrapPoint)
{
    RingQueue<int> ring(3);
    for (int v : {1, 2, 3})
        ring.push_back(v);
    ring.pop_front();
    ring.pop_front();
    ring.push_back(4); // wraps to slot 0
    ring.push_back(5);
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.front(), 3);
    EXPECT_EQ(ring[1], 4);
    EXPECT_EQ(ring[2], 5);
    EXPECT_EQ(ring.back(), 5);

    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push_back(6);
    EXPECT_EQ(ring.front(), 6);
    EXPECT_EQ(ring.back(), 6);
}

TEST(RingQueue, MatchesDequeOverARandomWalk)
{
    // Capacity 5 is not a power of two, so a masked wrap would fail;
    // the walk crosses the wrap point thousands of times.
    RingQueue<int> ring(5);
    std::deque<int> ref;
    Rng rng(11);
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
        if (ref.size() < 5 && (ref.empty() || rng.chance(0.5))) {
            ring.push_back(next);
            ref.push_back(next++);
        } else {
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "step " << step;
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ASSERT_EQ(ring.back(), ref.back());
        }
    }
}

TEST(RingQueueDeathTest, OverflowPanics)
{
    RingQueue<int> ring(3);
    for (int v : {1, 2, 3})
        ring.push_back(v);
    EXPECT_DEATH(ring.push_back(4), "ring queue overflow");
}
