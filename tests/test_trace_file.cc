/**
 * @file
 * Tests for binary trace recording and replay, including the
 * recoverable-error contract: every malformed-trace class yields its
 * own ErrorCode and never aborts the process.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "cpu/multicore.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/fault_inject.hh"
#include "workload/trace_file.hh"
#include "workload/vector_trace.hh"

#include "temp_file.hh"

using namespace hetsim;
using namespace hetsim::workload;
using hetsim::test::TempFile;

namespace
{

/** Record a small two-record trace for corruption tests into `file`
 *  and return its path. */
const std::string &
makeSmallTrace(const TempFile &file)
{
    VectorTrace v;
    cpu::MicroOp op;
    op.cls = cpu::OpClass::IntAlu;
    op.dst = 5;
    op.pc = 0x1234;
    v.add(op);
    op.dst = 6;
    v.add(op);
    EXPECT_TRUE(recordTrace(v, file.path()).ok());
    return file.path();
}

} // namespace

TEST(TraceFile, RoundTripIsBitIdentical)
{
    const AppProfile &app = cpuApp("lu");
    const TempFile file("roundtrip.trace");
    const std::string &path = file.path();

    SyntheticCpuTrace writer_src(app, 0, 4, 7, 0.05);
    Result<uint64_t> written = recordTrace(writer_src, path);
    ASSERT_TRUE(written.ok());
    EXPECT_GT(written.value(), 1000u);

    SyntheticCpuTrace ref(app, 0, 4, 7, 0.05);
    auto replay = FileTrace::open(path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value()->size(), written.value());

    cpu::MicroOp a, b;
    uint64_t n = 0;
    while (true) {
        const bool ra = ref.next(a);
        const bool rb = replay.value()->next(b);
        ASSERT_EQ(ra, rb) << "at record " << n;
        if (!ra)
            break;
        ASSERT_EQ(a.cls, b.cls) << n;
        ASSERT_EQ(a.src1, b.src1) << n;
        ASSERT_EQ(a.src2, b.src2) << n;
        ASSERT_EQ(a.dst, b.dst) << n;
        ASSERT_EQ(a.pc, b.pc) << n;
        ASSERT_EQ(a.addr, b.addr) << n;
        ASSERT_EQ(a.target, b.target) << n;
        ASSERT_EQ(a.taken, b.taken) << n;
        ++n;
    }
    EXPECT_EQ(n, written.value());
    EXPECT_TRUE(replay.value()->status().ok());
}

TEST(TraceFile, ReplayReproducesSimulationExactly)
{
    const AppProfile &app = cpuApp("water-sp");
    const TempFile file("sim.trace");
    const std::string &path = file.path();

    // Record thread 0's trace, then simulate one core from the
    // generator and from the file: identical cycle counts.
    {
        SyntheticCpuTrace src(app, 0, 1, 3, 0.05);
        ASSERT_TRUE(recordTrace(src, path).ok());
    }

    auto run = [](cpu::TraceSource &t) {
        cpu::MulticoreParams p;
        p.mem.numCores = 1;
        cpu::Multicore mc(p, {&t});
        return mc.run().cycles;
    };
    SyntheticCpuTrace live(app, 0, 1, 3, 0.05);
    auto replay = FileTrace::open(path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(run(live), run(*replay.value()));
}

TEST(TraceFile, MaxOpsTruncates)
{
    const AppProfile &app = cpuApp("fft");
    const TempFile file("truncated.trace");
    const std::string &path = file.path();
    SyntheticCpuTrace src(app, 0, 4, 1, 0.05);
    Result<uint64_t> written = recordTrace(src, path, 500);
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(written.value(), 500u);
    auto replay = FileTrace::open(path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value()->size(), 500u);
    cpu::MicroOp op;
    uint64_t n = 0;
    while (replay.value()->next(op))
        ++n;
    EXPECT_EQ(n, 500u);
}

TEST(TraceFile, RewindRestartsReplay)
{
    const TempFile file("rewind.trace");
    const std::string &path = makeSmallTrace(file);

    auto replay = FileTrace::open(path);
    ASSERT_TRUE(replay.ok());
    cpu::MicroOp first, again;
    ASSERT_TRUE(replay.value()->next(first));
    ASSERT_TRUE(replay.value()->rewind().ok());
    ASSERT_TRUE(replay.value()->next(again));
    EXPECT_EQ(first.dst, again.dst);
    EXPECT_EQ(first.pc, again.pc);
}

TEST(TraceFile, EmptySourceYieldsEmptyTrace)
{
    const TempFile file("empty.trace");
    const std::string &path = file.path();
    VectorTrace v;
    Result<uint64_t> written = recordTrace(v, path);
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(written.value(), 0u);
    auto replay = FileTrace::open(path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value()->size(), 0u);
    cpu::MicroOp op;
    EXPECT_FALSE(replay.value()->next(op));
    EXPECT_TRUE(replay.value()->status().ok());
}

TEST(TraceFile, RecordToUnwritablePathIsIoError)
{
    VectorTrace v;
    Result<uint64_t> r =
        recordTrace(v, "/nonexistent/dir/hetsim.trace");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::IoError);
}

// Every malformed-trace class gets its own error code, and none of
// them aborts the process.

TEST(TraceFileMalformed, MissingFileIsIoError)
{
    auto r = FileTrace::open("/nonexistent/hetsim.trace");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::IoError);
    EXPECT_NE(r.status().message().find("cannot open"),
              std::string::npos);
}

TEST(TraceFileMalformed, BadMagic)
{
    const TempFile file("badmagic.trace");
    const std::string &path = file.path();
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all.............";
    }
    auto r = FileTrace::open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::BadMagic);
    EXPECT_NE(r.status().message().find("bad magic"),
              std::string::npos);
}

TEST(TraceFileMalformed, UnsupportedVersion)
{
    const TempFile file("version.trace");
    const std::string &path = makeSmallTrace(file);
    const uint32_t future_version = kTraceVersion + 9;
    ASSERT_TRUE(
        overwriteBytes(path, 4, &future_version, 4).ok());
    auto r = FileTrace::open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::UnsupportedVersion);
}

TEST(TraceFileMalformed, TruncatedHeader)
{
    const TempFile file("shorthdr.trace");
    const std::string &path = makeSmallTrace(file);
    ASSERT_TRUE(truncateFile(path, kTraceHeaderBytes - 3).ok());
    auto r = FileTrace::open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::TruncatedHeader);
}

TEST(TraceFileMalformed, TruncatedRecordStream)
{
    const TempFile file("shortrec.trace");
    const std::string &path = makeSmallTrace(file);
    // Cut the second record in half: stray bytes after the last
    // whole record.
    ASSERT_TRUE(truncateFile(path, kTraceHeaderBytes +
                                       kTraceRecordBytes +
                                       kTraceRecordBytes / 2)
                    .ok());
    auto r = FileTrace::open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::TruncatedStream);
}

TEST(TraceFileMalformed, RecordCountSizeMismatch)
{
    const TempFile file("countmismatch.trace");
    const std::string &path = makeSmallTrace(file);
    // Drop exactly one whole record; header still claims two.
    ASSERT_TRUE(
        truncateFile(path, kTraceHeaderBytes + kTraceRecordBytes)
            .ok());
    auto r = FileTrace::open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::SizeMismatch);
}

TEST(TraceFileMalformed, CorruptOpClassIsRecoverable)
{
    const TempFile file("badclass.trace");
    const std::string &path = makeSmallTrace(file);
    // First byte of the first record is the op class; 0xFF is far
    // outside the OpClass range.
    const uint8_t bad_cls = 0xFF;
    ASSERT_TRUE(
        overwriteBytes(path, kTraceHeaderBytes, &bad_cls, 1).ok());
    auto r = FileTrace::open(path);
    ASSERT_TRUE(r.ok()); // Header and sizes are intact.
    cpu::MicroOp op;
    EXPECT_FALSE(r.value()->next(op));
    EXPECT_EQ(r.value()->status().code(), ErrorCode::CorruptRecord);
    // rewind clears the error; the same record fails again.
    ASSERT_TRUE(r.value()->rewind().ok());
    EXPECT_TRUE(r.value()->status().ok());
    EXPECT_FALSE(r.value()->next(op));
    EXPECT_EQ(r.value()->status().code(), ErrorCode::CorruptRecord);
}

/** A register outside [-1, 64) would index past the core's
 *  scoreboard, so the reader rejects the record before the core sees
 *  it. Record offsets: src1 at 4, src2 at 6, dst at 8. */
TEST(TraceFileMalformed, OutOfRangeRegisterIsCorruptRecord)
{
    for (const uint64_t field : {4u, 6u, 8u}) {
        for (const int16_t reg : {20000, 64, -2}) {
            const TempFile file("badreg.trace");
            const std::string &path = makeSmallTrace(file);
            ASSERT_TRUE(overwriteBytes(path,
                                       kTraceHeaderBytes +
                                           kTraceRecordBytes + field,
                                       &reg, sizeof(reg))
                            .ok());
            auto r = FileTrace::open(path);
            ASSERT_TRUE(r.ok());
            cpu::MicroOp op;
            EXPECT_TRUE(r.value()->next(op)); // First record intact.
            EXPECT_FALSE(r.value()->next(op));
            EXPECT_EQ(r.value()->status().code(),
                      ErrorCode::CorruptRecord);
            EXPECT_NE(r.value()->status().message().find("register"),
                      std::string::npos);
        }
    }
}

/** Versions 1 and 2 are retired: only version 3 is read. */
TEST(TraceFileMalformed, RetiredVersionsAreUnsupported)
{
    for (const uint32_t version : {1u, 2u}) {
        const TempFile file("retired.trace");
        const std::string &path = makeSmallTrace(file);
        ASSERT_TRUE(overwriteBytes(path, 4, &version, 4).ok());
        auto r = FileTrace::open(path);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), ErrorCode::UnsupportedVersion);
    }
}

TEST(ValidateMicroOp, BoundsOfClassRegistersAndSize)
{
    constexpr int kRegs = cpu::kNumIntRegs + cpu::kNumFpRegs;
    cpu::MicroOp op; // A Nop without registers.
    EXPECT_TRUE(cpu::validateMicroOp(op).ok());
    auto corrupt = [](const cpu::MicroOp &o) {
        return cpu::validateMicroOp(o).code() == ErrorCode::CorruptRecord;
    };

    op.cls = cpu::OpClass::WaitEvt;
    EXPECT_TRUE(cpu::validateMicroOp(op).ok());
    op.cls = static_cast<cpu::OpClass>(
        static_cast<uint8_t>(cpu::OpClass::WaitEvt) + 1);
    EXPECT_TRUE(corrupt(op));
    op.cls = cpu::OpClass::Load;

    for (int16_t cpu::MicroOp::*reg :
         {&cpu::MicroOp::src1, &cpu::MicroOp::src2, &cpu::MicroOp::dst}) {
        op.*reg = kRegs - 1;
        EXPECT_TRUE(cpu::validateMicroOp(op).ok());
        op.*reg = kRegs;
        EXPECT_TRUE(corrupt(op));
        op.*reg = -2;
        EXPECT_TRUE(corrupt(op));
        op.*reg = -1;
    }

    op.accessSize = 64;
    EXPECT_TRUE(cpu::validateMicroOp(op).ok());
    op.accessSize = 65;
    EXPECT_TRUE(corrupt(op));
    op.accessSize = 0;
    EXPECT_TRUE(corrupt(op));
}

TEST(TraceFileMalformed, DistinctCodesPerCorruptionClass)
{
    // The five corruption classes of the format must stay
    // distinguishable for sweep summaries and triage.
    EXPECT_NE(ErrorCode::BadMagic, ErrorCode::UnsupportedVersion);
    EXPECT_NE(ErrorCode::TruncatedHeader,
              ErrorCode::TruncatedStream);
    EXPECT_NE(ErrorCode::TruncatedStream, ErrorCode::SizeMismatch);
    EXPECT_NE(ErrorCode::SizeMismatch, ErrorCode::CorruptRecord);
    EXPECT_NE(ErrorCode::BadMagic, ErrorCode::TruncatedHeader);
}
