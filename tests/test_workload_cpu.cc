/**
 * @file
 * Tests for the synthetic CPU workload generators: determinism,
 * instruction-mix fidelity, structural properties (barriers, phases,
 * address regions, CFG), thread-count invariants, and the recorded
 * workload's replay cursors.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/cpu_profiles.hh"
#include "workload/cpu_recording.hh"
#include "workload/cpu_trace_gen.hh"

using namespace hetsim;
using namespace hetsim::workload;
using cpu::MicroOp;
using cpu::OpClass;

namespace
{

struct TraceSummary
{
    uint64_t total = 0;
    uint64_t barriers = 0;
    std::map<OpClass, uint64_t> byClass;
    uint64_t fpOps = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
};

TraceSummary
summarize(SyntheticCpuTrace &trace)
{
    TraceSummary s;
    MicroOp op;
    while (trace.next(op)) {
        if (op.cls == OpClass::Barrier) {
            ++s.barriers;
            continue;
        }
        ++s.total;
        ++s.byClass[op.cls];
        s.fpOps += cpu::isFpClass(op.cls);
        s.loads += op.cls == OpClass::Load;
        s.stores += op.cls == OpClass::Store;
        s.branches += cpu::isBranchClass(op.cls);
    }
    return s;
}

} // namespace

TEST(CpuWorkload, SuiteHasFourteenApps)
{
    EXPECT_EQ(cpuApps().size(), 14u);
}

TEST(CpuWorkload, LookupByName)
{
    EXPECT_STREQ(cpuApp("fft").name, "fft");
    EXPECT_STREQ(cpuApp("canneal").suite, "parsec");
}

TEST(CpuWorkload, FindUnknownAppIsRecoverable)
{
    Result<const AppProfile *> r = findCpuApp("doom");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
    // The error lists the valid names so a user can self-correct.
    EXPECT_NE(r.status().message().find("unknown CPU application"),
              std::string::npos);
    EXPECT_NE(r.status().message().find("valid:"), std::string::npos);
    EXPECT_NE(r.status().message().find("fft"), std::string::npos);
    EXPECT_NE(r.status().message().find("canneal"),
              std::string::npos);
}

TEST(CpuWorkload, FindKnownAppReturnsProfile)
{
    Result<const AppProfile *> r = findCpuApp("fft");
    ASSERT_TRUE(r.ok());
    EXPECT_STREQ(r.value()->name, "fft");
}

TEST(CpuWorkloadDeath, UnknownAppPanicsInTrustedLookup)
{
    // cpuApp() is the trusted-caller wrapper: unknown names are an
    // internal bug there, so it panics (aborts) rather than returning.
    EXPECT_DEATH(cpuApp("doom"), "unknown CPU application");
}

TEST(CpuWorkload, Deterministic)
{
    const AppProfile &app = cpuApp("lu");
    SyntheticCpuTrace a(app, 0, 4, 5, 0.05);
    SyntheticCpuTrace b(app, 0, 4, 5, 0.05);
    MicroOp oa, ob;
    while (true) {
        const bool ra = a.next(oa);
        const bool rb = b.next(ob);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        ASSERT_EQ(oa.cls, ob.cls);
        ASSERT_EQ(oa.pc, ob.pc);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.dst, ob.dst);
    }
}

TEST(CpuWorkload, DifferentSeedsDiffer)
{
    const AppProfile &app = cpuApp("lu");
    SyntheticCpuTrace a(app, 0, 4, 1, 0.02);
    SyntheticCpuTrace b(app, 0, 4, 2, 0.02);
    MicroOp oa, ob;
    int diff = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(oa);
        b.next(ob);
        diff += oa.cls != ob.cls || oa.addr != ob.addr;
    }
    EXPECT_GT(diff, 100);
}

TEST(CpuWorkload, BarrierCountMatchesPhases)
{
    const AppProfile &app = cpuApp("barnes");
    for (uint32_t tid : {0u, 1u, 3u}) {
        SyntheticCpuTrace t(app, tid, 4, 1, 0.02);
        const TraceSummary s = summarize(t);
        EXPECT_EQ(s.barriers, 2 * app.phases) << "thread " << tid;
        EXPECT_EQ(s.barriers, t.totalBarriers());
    }
}

TEST(CpuWorkload, SerialWorkOnlyOnThreadZero)
{
    const AppProfile &app = cpuApp("canneal"); // 12% serial
    SyntheticCpuTrace t0(app, 0, 4, 1, 0.05);
    SyntheticCpuTrace t1(app, 1, 4, 1, 0.05);
    const TraceSummary s0 = summarize(t0);
    const TraceSummary s1 = summarize(t1);
    EXPECT_GT(s0.total, s1.total * 12 / 10);
}

TEST(CpuWorkload, TotalWorkIndependentOfThreadCount)
{
    const AppProfile &app = cpuApp("fft");
    auto total_ops = [&](uint32_t threads) {
        uint64_t total = 0;
        for (uint32_t t = 0; t < threads; ++t) {
            SyntheticCpuTrace tr(app, t, threads, 1, 0.05);
            total += summarize(tr).total;
        }
        return total;
    };
    const uint64_t w4 = total_ops(4);
    const uint64_t w8 = total_ops(8);
    EXPECT_NEAR(static_cast<double>(w8) / w4, 1.0, 0.02);
}

TEST(CpuWorkload, RegistersInBounds)
{
    const AppProfile &app = cpuApp("raytrace");
    SyntheticCpuTrace t(app, 0, 4, 1, 0.02);
    MicroOp op;
    while (t.next(op)) {
        EXPECT_LT(op.dst, cpu::kNumIntRegs + cpu::kNumFpRegs);
        EXPECT_LT(op.src1, cpu::kNumIntRegs + cpu::kNumFpRegs);
        EXPECT_LT(op.src2, cpu::kNumIntRegs + cpu::kNumFpRegs);
        if (cpu::isFpClass(op.cls)) {
            EXPECT_GE(op.dst, cpu::kNumIntRegs);
            EXPECT_GE(op.src1, cpu::kNumIntRegs);
        }
    }
}

TEST(CpuWorkload, BranchTargetsDeterministicPerPc)
{
    // The CFG is static: a (pc, taken) pair always produces the same
    // target, which is what lets the BTB work.
    const AppProfile &app = cpuApp("fmm");
    SyntheticCpuTrace t(app, 0, 4, 1, 0.25);
    std::map<uint64_t, uint64_t> taken_target;
    MicroOp op;
    while (t.next(op)) {
        if (op.cls != OpClass::Branch || !op.taken)
            continue;
        auto [it, inserted] =
            taken_target.emplace(op.pc, op.target);
        if (!inserted) {
            EXPECT_EQ(it->second, op.target) << std::hex << op.pc;
        }
    }
    EXPECT_GE(taken_target.size(), 4u);
}

TEST(CpuWorkload, CallsAndReturnsBalance)
{
    // Whether a particular walk reaches a call block is up to the
    // CFG, so scan the whole suite: the balance property must hold
    // everywhere and at least one app must exercise calls.
    uint64_t total_calls = 0;
    for (const AppProfile &app : cpuApps()) {
        SyntheticCpuTrace t(app, 0, 4, 1, 0.1);
        MicroOp op;
        int64_t depth = 0;
        while (t.next(op)) {
            if (op.cls == OpClass::Call) {
                ++depth;
                ++total_calls;
            } else if (op.cls == OpClass::Return) {
                --depth;
            }
            ASSERT_GE(depth, 0) << app.name;
            ASSERT_LE(depth, 8) << app.name;
        }
    }
    EXPECT_GT(total_calls, 0u);
}

TEST(CpuWorkload, SharedRegionIsReadOnly)
{
    const AppProfile &app = cpuApp("canneal"); // highest sharing
    SyntheticCpuTrace t(app, 0, 4, 1, 0.1);
    MicroOp op;
    const uint64_t shared_base = 1ull << 45;
    uint64_t shared_loads = 0;
    while (t.next(op)) {
        if (op.cls == OpClass::Store) {
            EXPECT_LT(op.addr, shared_base);
        }
        if (op.cls == OpClass::Load && op.addr >= shared_base)
            ++shared_loads;
    }
    EXPECT_GT(shared_loads, 0u);
}

TEST(CpuWorkload, ThreadsUseDisjointPrivateRegions)
{
    const AppProfile &app = cpuApp("lu");
    SyntheticCpuTrace t0(app, 0, 2, 1, 0.02);
    SyntheticCpuTrace t1(app, 1, 2, 1, 0.02);
    std::set<uint64_t> r0, r1;
    MicroOp op;
    const uint64_t shared_base = 1ull << 45;
    while (t0.next(op)) {
        if (cpu::isMemClass(op.cls) && op.addr < shared_base)
            r0.insert(op.addr >> 30);
    }
    while (t1.next(op)) {
        if (cpu::isMemClass(op.cls) && op.addr < shared_base)
            r1.insert(op.addr >> 30);
    }
    for (uint64_t region : r0)
        EXPECT_EQ(r1.count(region), 0u);
}

TEST(CpuWorkload, ScaleShrinksWork)
{
    const AppProfile &app = cpuApp("fft");
    SyntheticCpuTrace big(app, 0, 4, 1, 0.1);
    SyntheticCpuTrace small(app, 0, 4, 1, 0.05);
    const uint64_t nb = summarize(big).total;
    const uint64_t ns = summarize(small).total;
    EXPECT_NEAR(static_cast<double>(nb) / ns, 2.0, 0.1);
}

// ----- Mix fidelity, parameterized over every application ---------

class CpuMixTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CpuMixTest, InstructionMixTracksProfile)
{
    const AppProfile &app = cpuApps()[GetParam()];
    SyntheticCpuTrace t(app, 0, 4, 1, 0.25);
    const TraceSummary s = summarize(t);
    ASSERT_GT(s.total, 10000u);
    const double n = static_cast<double>(s.total);
    // Branches come from the block-length machinery; the remaining
    // classes are rolled per non-branch op, so their overall share is
    // the profile fraction scaled by the non-branch share.
    const double non_branch = 1.0 - s.branches / n;
    EXPECT_NEAR(s.branches / n, app.branchFraction, 0.06)
        << app.name;
    EXPECT_NEAR(s.loads / n, app.loadFraction * non_branch, 0.03)
        << app.name;
    EXPECT_NEAR(s.stores / n, app.storeFraction * non_branch, 0.03)
        << app.name;
    EXPECT_NEAR(s.fpOps / n, app.fpFraction * non_branch, 0.03)
        << app.name;
}

TEST_P(CpuMixTest, PcStaysInThreadCodeRegion)
{
    const AppProfile &app = cpuApps()[GetParam()];
    SyntheticCpuTrace t(app, 2, 4, 1, 0.02);
    const uint64_t code_base = 0x400000ull + (2ull << 24);
    MicroOp op;
    while (t.next(op)) {
        if (op.cls == OpClass::Barrier)
            continue;
        EXPECT_GE(op.pc, code_base);
        EXPECT_LT(op.pc, code_base + (1ull << 24));
    }
}

INSTANTIATE_TEST_SUITE_P(AllApps, CpuMixTest,
                         ::testing::Range(0, 14));

// ---------------------- Recorded workloads ----------------------

namespace
{

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.cls == b.cls && a.src1 == b.src1 && a.src2 == b.src2 &&
        a.dst == b.dst && a.pc == b.pc && a.addr == b.addr &&
        a.target == b.target && a.taken == b.taken &&
        a.accessSize == b.accessSize;
}

/** Up to `max` ops of `src`. */
std::vector<MicroOp>
take(cpu::TraceSource &src, size_t max = ~size_t{0})
{
    std::vector<MicroOp> ops;
    MicroOp op;
    while (ops.size() < max && src.next(op))
        ops.push_back(op);
    return ops;
}

} // namespace

/** For every CPU app (the paper's 14 and the 5 contention apps) at 1,
 *  4 and 8 threads, each cursor yields its generator's ops in order
 *  and ends where the generator ends. */
TEST(CpuRecording, CursorsReplayTheGenerators)
{
    std::vector<AppProfile> apps = cpuApps();
    apps.insert(apps.end(), contentionApps().begin(),
                contentionApps().end());
    ASSERT_EQ(apps.size(), 19u);
    for (const AppProfile &app : apps) {
        for (uint32_t threads : {1u, 4u, 8u}) {
            const CpuRecording rec(app, threads, 3, 0.01);
            ASSERT_EQ(rec.numThreads(), threads);
            EXPECT_TRUE(rec.records(app, 3, 0.01));
            auto gens = makeCpuWorkload(app, threads, 3, 0.01);
            auto cursors = rec.open();
            ASSERT_EQ(cursors.size(), threads);
            for (uint32_t t = 0; t < threads; ++t) {
                uint64_t n = 0;
                MicroOp want, got;
                for (;; ++n) {
                    const bool more = gens[t]->next(want);
                    ASSERT_EQ(cursors[t]->next(got), more)
                        << app.name << " thread " << t << "/"
                        << threads << " op " << n;
                    if (!more)
                        break;
                    ASSERT_TRUE(sameOp(want, got))
                        << app.name << " thread " << t << "/"
                        << threads << " op " << n;
                }
                EXPECT_GT(n, 0u) << app.name;
                EXPECT_FALSE(cursors[t]->next(got)) << app.name;
            }
        }
    }
}

/** Cursors over one recording keep their own positions: reading one
 *  neither skips nor repeats an op of another, and the recording is
 *  still whole for a cursor opened later. */
TEST(CpuRecording, CursorsAreIndependent)
{
    const AppProfile &app = cpuApp("lock_heavy");
    const CpuRecording rec(app, 4, 1, 0.01);
    const std::vector<MicroOp> want =
        take(*makeCpuWorkload(app, 4, 1, 0.01)[2]);
    ASSERT_GT(want.size(), 100u);

    auto a = rec.open();
    auto b = rec.open();
    std::vector<MicroOp> got_a = take(*a[2], 100);
    const std::vector<MicroOp> got_b = take(*b[2]);
    const std::vector<MicroOp> rest_a = take(*a[2]);
    got_a.insert(got_a.end(), rest_a.begin(), rest_a.end());
    auto expect_whole = [&](const std::vector<MicroOp> &got) {
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameOp(got[i], want[i])) << "op " << i;
    };
    expect_whole(got_a);
    expect_whole(got_b);
    expect_whole(take(*rec.open()[2]));
    EXPECT_FALSE(rec.records(app, 2, 0.01));
    EXPECT_FALSE(rec.records(cpuApp("fft"), 1, 0.01));
}
