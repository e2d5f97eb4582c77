/**
 * @file
 * Tests for the durable, checksummed result store: atomic writes,
 * verify-on-read, and the headline robustness property — every class
 * of on-disk corruption is detected, quarantined (never served), and
 * transparently recomputed.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "common/serialize.hh"
#include "core/result_store.hh"
#include "workload/fault_inject.hh"
#include "workload/trace_file.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

/** 40-byte on-disk header (see result_store.cc): magic, schema,
 *  trace version, key length, payload length, two checksums. Tests
 *  target corruption at these offsets. */
constexpr uint64_t kHeaderSize = 40;
constexpr uint64_t kOffSchema = 4;
constexpr uint64_t kOffTraceVersion = 8;

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Fresh store in a unique temp directory. */
class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/hetsim_store_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        // Best-effort cleanup of entries, quarantine files, temps.
        std::string cmd = "rm -rf " + dir_;
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }

    ResultStore
    openStore(uint32_t trace_version = workload::kTraceVersion)
    {
        Result<ResultStore> store =
            ResultStore::open(dir_, trace_version);
        EXPECT_TRUE(store.ok()) << store.status().toString();
        return std::move(store.value());
    }

    std::string dir_;
};

} // namespace

TEST(StoreFnv1a, MatchesReferenceVectors)
{
    // FNV-1a 64-bit published test vectors, through the one hash that
    // names and checksums store entries and hashes designs.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
    EXPECT_EQ(fnv1a(std::string("foobar")), 0x85944171f73967e8ull);
}

TEST(MakeDirectories, CreatesNestedAndRejectsFiles)
{
    char tmpl[] = "/tmp/hetsim_mkdir_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string base = tmpl;

    EXPECT_TRUE(makeDirectories(base + "/a/b/c").ok());
    EXPECT_TRUE(fileExists(base + "/a/b/c"));
    // Idempotent.
    EXPECT_TRUE(makeDirectories(base + "/a/b/c").ok());

    // A path component that is a regular file fails with context.
    std::FILE *f = std::fopen((base + "/file").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    const Status s = makeDirectories(base + "/file/sub");
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find(base + "/file"), std::string::npos);

    EXPECT_FALSE(makeDirectories("").ok());
    std::string cmd = std::string("rm -rf ") + base;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
}

TEST_F(ResultStoreTest, PutGetRoundTrip)
{
    ResultStore store = openStore();
    const std::string payload("bytes\0with\0nuls", 15);
    ASSERT_TRUE(store.put("key-a", payload).ok());

    Result<std::string> got = store.get("key-a");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got.value(), payload);

    const ResultStore::Counters c = store.counters();
    EXPECT_EQ(c.puts, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.quarantined, 0u);
}

TEST_F(ResultStoreTest, MissIsNotFoundAndCounted)
{
    ResultStore store = openStore();
    Result<std::string> got = store.get("absent");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(store.counters().misses, 1u);
}

TEST_F(ResultStoreTest, PutLeavesNoTempFilesBehind)
{
    ResultStore store = openStore();
    ASSERT_TRUE(store.put("k1", "v1").ok());
    ASSERT_TRUE(store.put("k2", "v2").ok());
    // Overwrite an existing entry: still atomic, still no temps.
    ASSERT_TRUE(store.put("k1", "v1-prime").ok());
    EXPECT_EQ(store.get("k1").value(), "v1-prime");

    std::string find = "ls " + dir_ + " | grep -c tmp";
    std::FILE *p = ::popen(find.c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[32] = {0};
    ASSERT_NE(std::fgets(buf, sizeof(buf), p), nullptr);
    ::pclose(p);
    EXPECT_EQ(std::atoi(buf), 0);
}

/**
 * The fuzzer matrix: every corruption class is detected on read,
 * the entry is sidelined as .quarantined (never served), the
 * quarantine counter ticks, and a recompute + re-put recovers.
 */
TEST_F(ResultStoreTest, EveryCorruptionClassIsQuarantined)
{
    struct Case
    {
        const char *name;
        /** Corrupt the (freshly written) entry at `path`. */
        void (*corrupt)(const std::string &path);
    };
    const Case cases[] = {
        {"truncated header",
         [](const std::string &p) {
             ASSERT_TRUE(workload::truncateFile(p, 10).ok());
         }},
        {"bad magic",
         [](const std::string &p) {
             ASSERT_TRUE(workload::flipBitInFile(p, 0, 3).ok());
         }},
        {"schema version mismatch",
         [](const std::string &p) {
             const uint32_t v = 0xffffffffu;
             ASSERT_TRUE(
                 workload::overwriteBytes(p, kOffSchema, &v, 4)
                     .ok());
         }},
        {"trace version mismatch",
         [](const std::string &p) {
             const uint32_t v = 0xfffffffeu;
             ASSERT_TRUE(
                 workload::overwriteBytes(p, kOffTraceVersion, &v, 4)
                     .ok());
         }},
        {"size mismatch (payload cut)",
         [](const std::string &p) {
             const uint64_t size =
                 workload::fileSize(p).valueOr(0);
             ASSERT_GT(size, 4u);
             ASSERT_TRUE(
                 workload::truncateFile(p, size - 4).ok());
         }},
        {"key checksum mismatch",
         [](const std::string &p) {
             ASSERT_TRUE(
                 workload::flipBitInFile(p, kHeaderSize, 0).ok());
         }},
        {"payload checksum mismatch",
         [](const std::string &p) {
             const uint64_t size =
                 workload::fileSize(p).valueOr(0);
             ASSERT_GT(size, 1u);
             ASSERT_TRUE(
                 workload::flipBitInFile(p, size - 1, 7).ok());
         }},
    };

    ResultStore store = openStore();
    uint64_t expect_quarantined = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string key = std::string("corrupt-") + c.name;
        const std::string payload =
            std::string("payload for ") + c.name;
        ASSERT_TRUE(store.put(key, payload).ok());
        const std::string path = store.entryPath(key);
        ASSERT_TRUE(fileExists(path));

        c.corrupt(path);

        // Detected: the corrupt bytes are NEVER served.
        Result<std::string> got = store.get(key);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), ErrorCode::NotFound);

        // Quarantined: sidelined, not deleted, not in the way.
        EXPECT_FALSE(fileExists(path));
        EXPECT_TRUE(fileExists(path + ".quarantined"));
        EXPECT_EQ(store.counters().quarantined,
                  ++expect_quarantined);

        // Recomputed: a fresh put + get recovers the key.
        ASSERT_TRUE(store.put(key, payload).ok());
        Result<std::string> again = store.get(key);
        ASSERT_TRUE(again.ok()) << again.status().toString();
        EXPECT_EQ(again.value(), payload);
    }

    const ResultStore::Counters c = store.counters();
    const uint64_t n = std::size(cases);
    EXPECT_EQ(c.quarantined, n);
    EXPECT_EQ(c.misses, n);   // One per corrupt read.
    EXPECT_EQ(c.hits, n);     // One per recovery read.
    EXPECT_EQ(c.puts, 2 * n); // Original + recompute.
}

TEST_F(ResultStoreTest, TraceVersionFencesOldEntries)
{
    // An entry journaled under trace format v2 must not be served by
    // a store opened for v3: the payload may embed v2 semantics.
    {
        ResultStore v2 = openStore(2);
        ASSERT_TRUE(v2.put("fenced", "v2 payload").ok());
        EXPECT_TRUE(v2.get("fenced").ok());
    }
    ResultStore v3 = openStore(3);
    Result<std::string> got = v3.get("fenced");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
    EXPECT_EQ(v3.counters().quarantined, 1u);
    // And the quarantine is durable: the next read is a plain miss.
    EXPECT_FALSE(v3.get("fenced").ok());
    EXPECT_EQ(v3.counters().quarantined, 1u);
}

TEST_F(ResultStoreTest, VerifiedEntryForOtherKeyIsAMissNotQuarantine)
{
    // Simulate an FNV filename collision: a healthy entry written
    // under key A occupies the path that key B hashes to. Reading B
    // must miss without quarantining A's good entry.
    ResultStore store = openStore();
    ASSERT_TRUE(store.put("key-A", "payload-A").ok());
    const std::string pathA = store.entryPath("key-A");
    const std::string pathB = store.entryPath("key-B");
    ASSERT_EQ(::rename(pathA.c_str(), pathB.c_str()), 0);

    Result<std::string> got = store.get("key-B");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
    EXPECT_NE(got.status().message().find("collision"),
              std::string::npos);
    EXPECT_EQ(store.counters().quarantined, 0u);
    EXPECT_TRUE(fileExists(pathB)); // The healthy entry survives.
}

TEST_F(ResultStoreTest, ErrorsCarryPathAndErrnoContext)
{
    ResultStore store = openStore();
    // Make the directory unwritable so put() fails at the temp file.
    if (::geteuid() == 0)
        GTEST_SKIP() << "running as root: chmod 0 does not deny";
    ASSERT_EQ(::chmod(dir_.c_str(), 0500), 0);
    const Status s = store.put("k", "v");
    ::chmod(dir_.c_str(), 0755);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::IoError);
    EXPECT_NE(s.message().find(dir_), std::string::npos)
        << s.message();
    EXPECT_NE(s.message().find("EACCES"), std::string::npos)
        << s.message();
}

TEST_F(ResultStoreTest, OpenRejectsFilePath)
{
    const std::string file = dir_ + "/plainfile";
    std::FILE *f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    Result<ResultStore> store = ResultStore::open(file);
    ASSERT_FALSE(store.ok());
    EXPECT_NE(store.status().message().find(file),
              std::string::npos);
}
