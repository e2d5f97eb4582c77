/**
 * @file
 * Fault-injection fuzzer for trace I/O.
 *
 * Records a real trace, then corrupts copies of it — random bit
 * flips, random truncations, combinations — across many seeds and
 * asserts that FileTrace open/replay always degrades to a clean
 * Status. The whole point: no input, however mangled, may abort the
 * process. Also covers the FaultyTraceSource decorator (upstream
 * producer faults) end to end through recordTrace and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "common/rng.hh"
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

/** The pristine trace every test copies; removed at exit. */
const TempFile kPristine("fuzz_pristine.trace");

/** Record a moderately sized pristine trace once for all tests. */
uint64_t
ensurePristine()
{
    static uint64_t count = 0;
    if (count == 0) {
        SyntheticCpuTrace src(cpuApp("fft"), 0, 4, 11, 0.02);
        Result<uint64_t> r = recordTrace(src, kPristine.path(), 200);
        EXPECT_TRUE(r.ok());
        count = r.value();
    }
    return count;
}

/** Copy the pristine trace to a scratch path. */
void
copyPristine(const std::string &dst)
{
    std::ifstream in(kPristine.path(), std::ios::binary);
    std::ofstream out(dst, std::ios::binary);
    out << in.rdbuf();
    ASSERT_TRUE(in.good() && out.good());
}

/**
 * Open and fully drain a (possibly corrupted) trace. Returns the
 * terminal ErrorCode: Ok when everything parsed, else the first
 * failure. Must never abort.
 */
ErrorCode
drain(const std::string &path)
{
    auto r = FileTrace::open(path);
    if (!r.ok())
        return r.status().code();
    cpu::MicroOp op;
    while (r.value()->next(op)) {
    }
    return r.value()->status().code();
}

bool
isTraceErrorCode(ErrorCode c)
{
    switch (c) {
      case ErrorCode::Ok:
      case ErrorCode::IoError:
      case ErrorCode::BadMagic:
      case ErrorCode::UnsupportedVersion:
      case ErrorCode::TruncatedHeader:
      case ErrorCode::TruncatedStream:
      case ErrorCode::SizeMismatch:
      case ErrorCode::CorruptRecord:
        return true;
      default:
        return false;
    }
}

} // namespace

TEST(FaultInjectPrimitives, FileSizeAndTruncate)
{
    ensurePristine();
    Result<uint64_t> size = fileSize(kPristine.path());
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(),
              kTraceHeaderBytes + 200 * kTraceRecordBytes);

    const TempFile file("fuzz_trunc.trace");
    const std::string &path = file.path();
    copyPristine(path);
    ASSERT_TRUE(truncateFile(path, 100).ok());
    EXPECT_EQ(fileSize(path).value(), 100u);
    // Growing is refused.
    Status grow = truncateFile(path, 1 << 20);
    ASSERT_FALSE(grow.ok());
    EXPECT_EQ(grow.code(), ErrorCode::InvalidArgument);

    EXPECT_EQ(fileSize("/nonexistent/x").status().code(),
              ErrorCode::IoError);
    EXPECT_EQ(flipBitInFile("/nonexistent/x", 0, 0).code(),
              ErrorCode::IoError);
}

TEST(FaultInjectPrimitives, FlipBitIsItsOwnInverse)
{
    ensurePristine();
    const TempFile file("fuzz_flip.trace");
    const std::string &path = file.path();
    copyPristine(path);
    ASSERT_TRUE(flipBitInFile(path, 5, 3).ok());
    EXPECT_EQ(drain(path), ErrorCode::UnsupportedVersion);
    ASSERT_TRUE(flipBitInFile(path, 5, 3).ok());
    EXPECT_EQ(drain(path), ErrorCode::Ok);
}

TEST(FaultInjectFuzz, RandomBitFlipsNeverAbort)
{
    const uint64_t count = ensurePristine();
    const uint64_t bytes = kTraceHeaderBytes +
                           count * kTraceRecordBytes;
    const TempFile file("fuzz_bits.trace");
    const std::string &path = file.path();

    std::set<ErrorCode> seen;
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        copyPristine(path);
        Rng rng(seed);
        const int flips = 1 + static_cast<int>(rng.range(4));
        for (int i = 0; i < flips; ++i)
            ASSERT_TRUE(flipBitInFile(path, rng.range(bytes),
                                      static_cast<int>(rng.range(8)))
                            .ok());
        const ErrorCode code = drain(path);
        EXPECT_TRUE(isTraceErrorCode(code))
            << "seed " << seed << " -> unexpected code "
            << errorCodeName(code);
        seen.insert(code);
    }
    // 64 seeds of up-to-4 flips must hit several distinct classes.
    EXPECT_GE(seen.size(), 2u);
}

TEST(FaultInjectFuzz, RandomTruncationsNeverAbort)
{
    const uint64_t count = ensurePristine();
    const uint64_t bytes = kTraceHeaderBytes +
                           count * kTraceRecordBytes;
    const TempFile file("fuzz_cut.trace");
    const std::string &path = file.path();

    std::set<ErrorCode> seen;
    for (uint64_t seed = 1; seed <= 64; ++seed) {
        copyPristine(path);
        Rng rng(seed);
        const uint64_t cut = rng.range(bytes); // [0, bytes)
        ASSERT_TRUE(truncateFile(path, cut).ok());
        const ErrorCode code = drain(path);
        // Any strictly shorter file must fail cleanly: either too
        // short for a header, cut mid-record, or a whole-record
        // count mismatch.
        EXPECT_TRUE(code == ErrorCode::TruncatedHeader ||
                    code == ErrorCode::TruncatedStream ||
                    code == ErrorCode::SizeMismatch)
            << "cut at " << cut << " -> " << errorCodeName(code);
        seen.insert(code);
    }
    EXPECT_GE(seen.size(), 2u);
}

TEST(FaultInjectFuzz, CombinedFlipAndCutNeverAbort)
{
    const uint64_t count = ensurePristine();
    const uint64_t bytes = kTraceHeaderBytes +
                           count * kTraceRecordBytes;
    const TempFile file("fuzz_both.trace");
    const std::string &path = file.path();

    for (uint64_t seed = 100; seed < 132; ++seed) {
        copyPristine(path);
        Rng rng(seed);
        ASSERT_TRUE(flipBitInFile(path, rng.range(bytes),
                                  static_cast<int>(rng.range(8)))
                        .ok());
        ASSERT_TRUE(truncateFile(path, rng.range(bytes)).ok());
        EXPECT_TRUE(isTraceErrorCode(drain(path))) << "seed " << seed;
    }
}

TEST(FaultyTraceSource, TruncatesAfterLimit)
{
    SyntheticCpuTrace src(cpuApp("lu"), 0, 4, 3, 0.02);
    FaultyTraceSource::Faults f;
    f.truncateAfter = 37;
    FaultyTraceSource faulty(src, f);
    cpu::MicroOp op;
    uint64_t n = 0;
    while (faulty.next(op))
        ++n;
    EXPECT_EQ(n, 37u);
}

TEST(FaultyTraceSource, CorruptsDeterministically)
{
    auto run = [](uint64_t seed) {
        SyntheticCpuTrace src(cpuApp("lu"), 0, 4, 3, 0.02);
        FaultyTraceSource::Faults f;
        f.corruptProb = 0.05;
        f.seed = seed;
        f.truncateAfter = 2000;
        FaultyTraceSource faulty(src, f);
        cpu::MicroOp op;
        uint64_t sig = 0;
        while (faulty.next(op))
            sig = sig * 1099511628211ull ^ op.pc ^ op.addr ^
                  static_cast<uint64_t>(op.cls);
        return std::make_pair(sig, faulty.corruptedOps());
    };
    const auto a = run(7), b = run(7), c = run(8);
    EXPECT_EQ(a, b);       // Same seed, same corrupted stream.
    EXPECT_NE(a.first, c.first); // Different seed, different stream.
    EXPECT_GT(a.second, 0u);
    EXPECT_LT(a.second, 2000u);
}

TEST(FaultyTraceSource, CorruptedStreamRecordsAndReplaysCleanly)
{
    // A misbehaving producer feeds recordTrace; the recorded file
    // must still open (its structure is sound) and replay must
    // either succeed or stop with CorruptRecord — never abort.
    const TempFile file("fuzz_producer.trace");
    const std::string &path = file.path();
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SyntheticCpuTrace src(cpuApp("fft"), 0, 4, 5, 0.02);
        FaultyTraceSource::Faults f;
        f.corruptProb = 0.2;
        f.seed = seed;
        f.truncateAfter = 300;
        FaultyTraceSource faulty(src, f);
        ASSERT_TRUE(recordTrace(faulty, path).ok());

        auto r = FileTrace::open(path);
        ASSERT_TRUE(r.ok()) << "seed " << seed;
        cpu::MicroOp op;
        while (r.value()->next(op)) {
        }
        const ErrorCode code = r.value()->status().code();
        EXPECT_TRUE(code == ErrorCode::Ok ||
                    code == ErrorCode::CorruptRecord)
            << "seed " << seed << " -> " << errorCodeName(code);
    }
}
