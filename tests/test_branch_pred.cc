/**
 * @file
 * Tests for the tournament branch predictor, BTB, and RAS, and for
 * its checkpoint section (which writes only valid BTB entries).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "cpu/branch_pred.hh"
#include "checkpoint_sections.hh"

using namespace hetsim;
using namespace hetsim::cpu;

namespace
{

MicroOp
branchOp(uint64_t pc, bool taken, uint64_t target)
{
    MicroOp op;
    op.cls = OpClass::Branch;
    op.pc = pc;
    op.taken = taken;
    op.target = taken ? target : pc + 4;
    return op;
}

} // namespace

TEST(BranchPred, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    int late_misses = 0;
    for (int i = 0; i < 1000; ++i) {
        const bool miss =
            bp.predictAndTrain(branchOp(0x1000, true, 0x800));
        if (i > 50)
            late_misses += miss;
    }
    EXPECT_EQ(late_misses, 0);
}

TEST(BranchPred, LearnsAlwaysNotTaken)
{
    BranchPredictor bp;
    int late_misses = 0;
    for (int i = 0; i < 1000; ++i) {
        const bool miss =
            bp.predictAndTrain(branchOp(0x1000, false, 0));
        if (i > 50)
            late_misses += miss;
    }
    EXPECT_EQ(late_misses, 0);
}

TEST(BranchPred, LearnsShortLoopPattern)
{
    // taken,taken,taken,not-taken repeating: local history nails it.
    BranchPredictor bp;
    int late_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 4) != 3;
        const bool miss =
            bp.predictAndTrain(branchOp(0x2000, taken, 0x1800));
        if (i > 400)
            late_misses += miss;
    }
    EXPECT_LT(late_misses / 3600.0, 0.05);
}

TEST(BranchPred, RandomBranchNearHalf)
{
    BranchPredictor bp;
    Rng rng(5);
    int misses = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        misses +=
            bp.predictAndTrain(branchOp(0x3000, rng.chance(0.5),
                                        0x2800));
    EXPECT_NEAR(misses / static_cast<double>(n), 0.5, 0.06);
}

TEST(BranchPred, BtbLearnsTargets)
{
    BranchPredictor bp;
    // Train direction+target.
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(branchOp(0x4000, true, 0x9000));
    const BranchPrediction pred =
        bp.predict(branchOp(0x4000, true, 0x9000));
    EXPECT_TRUE(pred.taken);
    ASSERT_TRUE(pred.targetValid);
    EXPECT_EQ(pred.target, 0x9000u);
}

TEST(BranchPred, TargetChangeCausesMispredict)
{
    BranchPredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(branchOp(0x4000, true, 0x9000));
    // Same direction, different target (indirect-branch style).
    EXPECT_TRUE(bp.predictAndTrain(branchOp(0x4000, true, 0xA000)));
}

TEST(BranchPred, CallsPredictedTaken)
{
    BranchPredictor bp;
    MicroOp call;
    call.cls = OpClass::Call;
    call.pc = 0x5000;
    call.taken = true;
    call.target = 0x8000;
    bp.predictAndTrain(call); // trains the BTB
    const BranchPrediction pred = bp.predict(call);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.targetValid);
    EXPECT_EQ(pred.target, 0x8000u);
}

TEST(BranchPred, RasPredictsReturnTargets)
{
    BranchPredictor bp;
    MicroOp call;
    call.cls = OpClass::Call;
    call.pc = 0x5000;
    call.taken = true;
    call.target = 0x8000;

    MicroOp ret;
    ret.cls = OpClass::Return;
    ret.pc = 0x8040;
    ret.taken = true;
    ret.target = call.pc + 4;

    // After the call, the return must be predicted exactly.
    EXPECT_FALSE(!bp.predictAndTrain(call) ? false : false);
    const BranchPrediction pred = bp.predict(ret);
    EXPECT_TRUE(pred.taken);
    ASSERT_TRUE(pred.targetValid);
    EXPECT_EQ(pred.target, 0x5004u);
    EXPECT_FALSE(bp.predictAndTrain(ret));
}

TEST(BranchPred, RasHandlesNesting)
{
    BranchPredictor bp;
    // call A (from 0x100), call B (from 0x200): returns pop B then A.
    MicroOp call_a;
    call_a.cls = OpClass::Call;
    call_a.pc = 0x100;
    call_a.target = 0x1000;
    call_a.taken = true;
    MicroOp call_b = call_a;
    call_b.pc = 0x200;
    call_b.target = 0x2000;

    bp.predictAndTrain(call_a);
    bp.predictAndTrain(call_b);

    MicroOp ret;
    ret.cls = OpClass::Return;
    ret.pc = 0x2040;
    ret.taken = true;
    ret.target = 0x204;
    EXPECT_FALSE(bp.predictAndTrain(ret));
    ret.pc = 0x1040;
    ret.target = 0x104;
    EXPECT_FALSE(bp.predictAndTrain(ret));
}

TEST(BranchPred, StatsAccounting)
{
    BranchPredictor bp;
    for (int i = 0; i < 10; ++i)
        bp.predictAndTrain(branchOp(0x100, true, 0x80));
    EXPECT_EQ(bp.stats().value("lookups"), 10u);
    EXPECT_EQ(bp.stats().value("mispredictions") +
                  bp.stats().value("correct"),
              10u);
    EXPECT_GE(bp.mispredictRate(), 0.0);
    EXPECT_LE(bp.mispredictRate(), 1.0);
}

TEST(BranchPred, ManyBranchesNoAliasCatastrophe)
{
    // 512 distinct, strongly biased branches: aliasing must not
    // destroy prediction (hashed local PHT indexing).
    BranchPredictor bp;
    Rng rng(7);
    int late_misses = 0, late_total = 0;
    for (int round = 0; round < 60; ++round) {
        for (uint64_t b = 0; b < 512; ++b) {
            const bool taken = (b % 7) != 0;
            const bool miss = bp.predictAndTrain(
                branchOp(0x10000 + b * 4, taken, 0x8000 + b * 64));
            if (round > 20) {
                late_misses += miss;
                ++late_total;
            }
        }
    }
    EXPECT_LT(static_cast<double>(late_misses) / late_total, 0.10);
}

// ---------------- Checkpoint section (valid BTB entries only) -----

namespace
{

using test::restoreSection;
using test::savedSection;

/** Random conditional branches, calls and returns over `pcs` static
 *  sites whose targets sometimes move. */
void
train(BranchPredictor &bp, Rng &rng, uint64_t pcs, int steps,
      std::vector<bool> *missed = nullptr)
{
    for (int i = 0; i < steps; ++i) {
        const uint64_t pc = 0x40000 + rng.range(pcs) * 4;
        MicroOp op = branchOp(pc, rng.range(3) != 0,
                              0x9000 + rng.range(4) * 64);
        const uint64_t kind = rng.range(10);
        if (kind == 0) {
            op.cls = OpClass::Call;
            op.taken = true;
        } else if (kind == 1) {
            op.cls = OpClass::Return;
            op.taken = true;
        }
        const bool miss = bp.predictAndTrain(op);
        if (missed)
            missed->push_back(miss);
    }
}

} // namespace

/** Save a trained predictor whose BTB is partly filled, restore into
 *  a fresh one: the re-saved bytes and every later prediction match. */
TEST(BranchPredCheckpoint, RoundTripIsExact)
{
    BranchPredictor orig;
    Rng rng(5);
    train(orig, rng, 600, 20000);

    const std::string bytes = savedSection(orig);
    BranchPredictor copy;
    const Status st = restoreSection(copy, bytes);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(savedSection(copy), bytes);
    // Fewer valid entries than the 2048-entry BTB: the section is
    // smaller than a full one (25 bytes per entry) would be.
    EXPECT_LT(bytes.size(), 2048u * 25u);

    Rng rng_a(6), rng_b(6);
    std::vector<bool> miss_a, miss_b;
    train(orig, rng_a, 1200, 20000, &miss_a);
    train(copy, rng_b, 1200, 20000, &miss_b);
    EXPECT_EQ(miss_a, miss_b);
    EXPECT_EQ(savedSection(copy), savedSection(orig));
}

namespace
{

/** Tiny geometry so a section can be written out by hand. */
BranchPredParams
tinyParams()
{
    BranchPredParams p;
    p.localHistoryEntries = 4;
    p.localHistoryBits = 2;
    p.globalHistoryBits = 2;
    p.chooserBits = 2;
    p.btbEntries = 8;
    p.btbWays = 2;
    p.rasEntries = 2;
    return p;
}

/** PC that a BTB entry at `index` (set-major) may hold. */
uint64_t
btbPc(const BranchPredParams &p, uint32_t index)
{
    const uint32_t sets = p.btbEntries / p.btbWays;
    return 0x1000 + (index / p.btbWays + index % p.btbWays * sets) * 4;
}

/** A hand-built "bpred" section: table sizes, initial tables, then
 *  `count` and one (index, pc, target, lru) record per BTB index. */
std::string
craftSection(const BranchPredParams &p, uint32_t count,
             const std::vector<uint32_t> &btb_indices)
{
    const BranchPredictor fresh(p);
    Serializer ser;
    ser.beginSection("bpred");
    ser.putU32(p.localHistoryEntries);
    ser.putU32(1u << p.localHistoryBits);
    ser.putU32(1u << p.globalHistoryBits);
    ser.putU32(1u << p.chooserBits);
    ser.putU32(p.btbEntries);
    ser.putU32(p.rasEntries);
    for (uint32_t i = 0; i < p.localHistoryEntries; ++i)
        ser.putU16(0);
    for (uint32_t i = 0; i < (1u << p.localHistoryBits); ++i)
        ser.putU8(1);
    for (uint32_t i = 0; i < (1u << p.globalHistoryBits); ++i)
        ser.putU8(1);
    for (uint32_t i = 0; i < (1u << p.chooserBits); ++i)
        ser.putU8(2);
    ser.putU64(0); // global history
    ser.putU32(count);
    for (uint32_t idx : btb_indices) {
        ser.putU32(idx);
        ser.putU64(btbPc(p, idx));
        ser.putU64(0x2000);
        ser.putU64(idx + 1);
    }
    ser.putU64(16); // BTB LRU clock
    for (uint32_t i = 0; i < p.rasEntries; ++i)
        ser.putU64(0);
    ser.putU32(0); // RAS top
    ser.putU32(0); // RAS count
    fresh.stats().saveState(ser);
    ser.endSection();
    return ser.take();
}

} // namespace

TEST(BranchPredCheckpoint, CraftedSectionsAreRejected)
{
    const BranchPredParams params = tinyParams();

    // Control: the crafted layout is one restore accepts, and the
    // restored entries predict their targets.
    BranchPredictor control(params);
    const Status good =
        restoreSection(control, craftSection(params, 2, {1, 6}));
    ASSERT_TRUE(good.ok()) << good.toString();
    MicroOp call;
    call.cls = OpClass::Call;
    call.pc = btbPc(params, 6);
    const BranchPrediction pred = control.predict(call);
    EXPECT_TRUE(pred.targetValid);
    EXPECT_EQ(pred.target, 0x2000u);

    struct Case
    {
        const char *what;
        uint32_t count;
        std::vector<uint32_t> indices;
        const char *error;
    };
    const std::vector<Case> cases = {
        {"count above capacity", 9, {}, "count above"},
        {"descending index", 2, {6, 1}, "not ascending"},
        {"repeated index", 2, {6, 6}, "not ascending"},
        {"index out of range", 1, {8}, "out of range"},
    };
    for (const Case &k : cases) {
        BranchPredictor bp(params);
        const Status bad =
            restoreSection(bp, craftSection(params, k.count, k.indices));
        EXPECT_FALSE(bad.ok()) << k.what;
        EXPECT_NE(bad.message().find(k.error), std::string::npos)
            << k.what << ": " << bad.toString();
    }
}
