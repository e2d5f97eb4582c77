/**
 * @file
 * Tests for the functional-unit pool: latencies, pipelining, divide
 * issue intervals, and the dual-speed ALU cluster.
 */

#include <gtest/gtest.h>

#include "cpu/func_unit.hh"

using namespace hetsim::cpu;

TEST(FuncUnit, CmosLatencies)
{
    FuncUnitPool pool(FuPoolParams{});
    EXPECT_EQ(pool.tryIssue(OpClass::IntAlu, 0).latency, 1u);
    EXPECT_EQ(pool.tryIssue(OpClass::IntMult, 0).latency, 2u);
    EXPECT_EQ(pool.tryIssue(OpClass::IntDiv, 0).latency, 4u);
    EXPECT_EQ(pool.tryIssue(OpClass::FpAdd, 0).latency, 2u);
    EXPECT_EQ(pool.tryIssue(OpClass::FpMult, 0).latency, 4u);
    EXPECT_EQ(pool.tryIssue(OpClass::Load, 0).latency, 1u);
}

TEST(FuncUnit, TfetLatenciesDouble)
{
    FuPoolParams params;
    params.timings.aluLat = 2;
    params.timings.mulLat = 4;
    params.timings.divLat = 8;
    params.timings.fpAddLat = 4;
    params.timings.fpMulLat = 8;
    params.timings.fpDivLat = 16;
    FuncUnitPool pool(params);
    EXPECT_EQ(pool.tryIssue(OpClass::IntAlu, 0).latency, 2u);
    EXPECT_EQ(pool.tryIssue(OpClass::FpMult, 0).latency, 8u);
    EXPECT_EQ(pool.tryIssue(OpClass::FpDiv, 0).latency, 16u);
}

TEST(FuncUnit, AluBandwidthPerCycle)
{
    FuncUnitPool pool(FuPoolParams{}); // 4 ALUs
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 0).ok);
    // Fifth ALU op in the same cycle fails.
    EXPECT_FALSE(pool.tryIssue(OpClass::IntAlu, 0).ok);
    // Next cycle all four are free again (pipelined).
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 1).ok);
}

TEST(FuncUnit, BranchesShareAlus)
{
    FuncUnitPool pool(FuPoolParams{});
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 0).ok);
    EXPECT_TRUE(pool.tryIssue(OpClass::Branch, 0).ok);
    EXPECT_FALSE(pool.tryIssue(OpClass::Branch, 0).ok);
}

TEST(FuncUnit, MultipliersPipelined)
{
    FuncUnitPool pool(FuPoolParams{}); // 2 mul/div units
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, 0).ok);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, 0).ok);
    EXPECT_FALSE(pool.tryIssue(OpClass::IntMult, 0).ok);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, 1).ok);
}

TEST(FuncUnit, DividesUnpipelined)
{
    FuPoolParams params;
    params.numMulDiv = 1;
    FuncUnitPool pool(params);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0).ok);
    // Busy for divIssueInterval (4) cycles.
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, 1).ok);
    EXPECT_FALSE(pool.tryIssue(OpClass::IntMult, 3).ok);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 4).ok);
}

TEST(FuncUnit, FpDivOccupiesFpu)
{
    FuPoolParams params;
    params.numFpu = 1;
    FuncUnitPool pool(params);
    EXPECT_TRUE(pool.tryIssue(OpClass::FpDiv, 0).ok);
    EXPECT_FALSE(pool.tryIssue(OpClass::FpAdd, 4).ok);
    EXPECT_TRUE(pool.tryIssue(OpClass::FpAdd, 8).ok);
}

TEST(FuncUnit, DualSpeedPreferredFast)
{
    FuPoolParams params;
    params.timings.aluLat = 2;
    params.dualSpeedAlu = true;
    params.numFastAlus = 1;
    params.fastAluLat = 1;
    FuncUnitPool pool(params);

    const FuIssue fast = pool.tryIssue(OpClass::IntAlu, 0, true);
    EXPECT_TRUE(fast.ok);
    EXPECT_TRUE(fast.usedFastAlu);
    EXPECT_EQ(fast.latency, 1u);

    const FuIssue slow = pool.tryIssue(OpClass::IntAlu, 0, false);
    EXPECT_TRUE(slow.ok);
    EXPECT_FALSE(slow.usedFastAlu);
    EXPECT_EQ(slow.latency, 2u);
}

TEST(FuncUnit, DualSpeedFallsBackToSlow)
{
    FuPoolParams params;
    params.timings.aluLat = 2;
    params.dualSpeedAlu = true;
    params.numFastAlus = 1;
    FuncUnitPool pool(params);

    // Claim the single CMOS ALU, then a second fast-preferring op
    // must fall back to a TFET ALU.
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 0, true).usedFastAlu);
    const FuIssue fb = pool.tryIssue(OpClass::IntAlu, 0, true);
    EXPECT_TRUE(fb.ok);
    EXPECT_FALSE(fb.usedFastAlu);
    EXPECT_EQ(pool.stats().value("steer_fallback_slow"), 1u);
}

TEST(FuncUnit, DualSpeedFallsBackToFast)
{
    FuPoolParams params;
    params.timings.aluLat = 2;
    params.dualSpeedAlu = true;
    params.numFastAlus = 1;
    FuncUnitPool pool(params);

    // Claim all three slow ALUs; a slow-preferring op then borrows
    // the CMOS ALU instead of stalling.
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(
            pool.tryIssue(OpClass::IntAlu, 0, false).usedFastAlu);
    const FuIssue fb = pool.tryIssue(OpClass::IntAlu, 0, false);
    EXPECT_TRUE(fb.ok);
    EXPECT_TRUE(fb.usedFastAlu);
    EXPECT_EQ(pool.stats().value("steer_fallback_fast"), 1u);
}

TEST(FuncUnit, DualSpeedCountsOps)
{
    FuPoolParams params;
    params.dualSpeedAlu = true;
    params.numFastAlus = 1;
    FuncUnitPool pool(params);
    pool.tryIssue(OpClass::IntAlu, 0, true);
    pool.tryIssue(OpClass::IntAlu, 0, false);
    pool.tryIssue(OpClass::IntAlu, 1, false);
    EXPECT_EQ(pool.stats().value("fast_alu_ops"), 1u);
    EXPECT_EQ(pool.stats().value("slow_alu_ops"), 2u);
}

TEST(FuncUnit, ResetClearsOccupancy)
{
    FuPoolParams params;
    params.numMulDiv = 1;
    FuncUnitPool pool(params);
    pool.tryIssue(OpClass::IntDiv, 0);
    pool.reset();
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, 0).ok);
}

TEST(FuncUnit, NopsAlwaysIssue)
{
    FuncUnitPool pool(FuPoolParams{});
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::Nop, 0).ok);
}

TEST(FuncUnit, LsuBandwidth)
{
    FuncUnitPool pool(FuPoolParams{}); // 2 LSUs
    EXPECT_TRUE(pool.tryIssue(OpClass::Load, 0).ok);
    EXPECT_TRUE(pool.tryIssue(OpClass::Store, 0).ok);
    EXPECT_FALSE(pool.tryIssue(OpClass::Load, 0).ok);
}

TEST(FuncUnit, SyncOpsNeedNoUnit)
{
    // Lock, signal and wait ops park the core at dispatch, like a
    // barrier: they claim no unit, and no unit bounds when they could.
    FuncUnitPool pool(FuPoolParams{});
    for (OpClass cls : {OpClass::LockAcquire, OpClass::LockRelease,
                        OpClass::SignalEvt, OpClass::WaitEvt}) {
        EXPECT_EQ(pool.nextFreeCycle(cls), 0u);
        for (int i = 0; i < 8; ++i) {
            const FuIssue fi = pool.tryIssue(cls, 0);
            EXPECT_TRUE(fi.ok);
            EXPECT_EQ(fi.latency, 1u);
        }
        EXPECT_EQ(pool.nextFreeCycle(cls), 0u);
    }
    // Every ALU is still free in cycle 0.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, 0).ok);
}
