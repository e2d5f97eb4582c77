/**
 * @file
 * Persistent, content-addressed result store with corruption
 * quarantine.
 *
 * The in-memory DSE memo cache proves the (design FNV-1a hash,
 * workload, options) key scheme but evaporates with the process; a
 * million-cell sweep re-run next session recomputes everything. This
 * store is the durable tier: one file per entry under a store
 * directory, named by the FNV-1a hash of the key, holding a versioned
 * header + the key + an opaque payload.
 *
 * Trust model — the store must be *safe to believe* after crashes,
 * kills, and bit-rot:
 *
 *  - Atomic writes: entries are written to a unique temp file,
 *    fsync'd, then rename(2)'d into place (and the directory fsync'd),
 *    so a SIGKILL mid-put leaves either the old entry or the new one,
 *    never a torn file. Leftover temp files are ignored by readers.
 *  - Verify-on-read: every get() re-validates magic, store schema
 *    version, trace-format version, key identity, and the payload's
 *    FNV-1a checksum. An entry failing any check is *quarantined* —
 *    renamed to "<entry>.quarantined", never served — and reported as
 *    a miss so the caller transparently recomputes.
 *  - Version fencing: entries written by an older store schema or an
 *    older trace format are never served (quarantined on sight), so a
 *    format bump cannot resurrect stale bytes as fresh results.
 *
 * Counters (hits / misses / quarantined / puts) feed the sweep
 * summary and the `dse --store` line. All operations are
 * thread-safe; concurrent put() of the same key is resolved by rename
 * atomicity (last writer wins, both writers wrote identical bytes for
 * a deterministic workload).
 */

#ifndef HETSIM_CORE_RESULT_STORE_HH
#define HETSIM_CORE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "workload/trace_file.hh"

namespace hetsim::core
{

class ResultStore
{
  public:
    /** Bump when the on-disk entry layout changes; older entries are
     *  quarantined, never reinterpreted.
     *  v2: the run record's section checksum is checksum64, not
     *      FNV-1a. */
    static constexpr uint32_t kSchemaVersion = 2;

    /** Entry filename extension (quarantined entries get
     *  ".quarantined" appended on top). */
    static constexpr const char *kEntrySuffix = ".hres";

    struct Counters
    {
        uint64_t hits = 0;        ///< get() served a verified entry.
        uint64_t misses = 0;      ///< No entry (or key collision).
        uint64_t quarantined = 0; ///< Corrupt/stale entry sidelined.
        uint64_t puts = 0;        ///< Entries durably written.
    };

    /**
     * Open (creating directories as needed) a store rooted at `dir`.
     * `trace_version` fences entries against trace-format changes;
     * the default is the current recorder/replayer format.
     */
    static Result<ResultStore>
    open(const std::string &dir,
         uint32_t trace_version = workload::kTraceVersion);

    /**
     * Look up `key`. Returns the payload bytes on a verified hit.
     * NotFound on a miss *and* on a quarantined entry (the caller's
     * action is identical: recompute, then put()). Never serves bytes
     * that fail verification.
     */
    Result<std::string> get(const std::string &key);

    /** Durably write (key, payload); atomic via temp file + rename. */
    Status put(const std::string &key, const std::string &payload);

    /** Entry file for a key (exposed for tests and tooling). */
    std::string entryPath(const std::string &key) const;

    Counters counters() const;
    const std::string &dir() const { return dir_; }
    uint32_t traceVersion() const { return traceVersion_; }

  private:
    struct Stats
    {
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
        std::atomic<uint64_t> quarantined{0};
        std::atomic<uint64_t> puts{0};
        std::atomic<uint64_t> tmpSeq{0}; ///< Unique temp-file names.
    };

    ResultStore(std::string dir, uint32_t trace_version)
        : dir_(std::move(dir)), traceVersion_(trace_version),
          stats_(std::make_unique<Stats>())
    {
    }

    /** Sideline a failed entry and account for it. */
    void quarantine(const std::string &path, const char *reason);

    std::string dir_;
    uint32_t traceVersion_ = 0;
    std::unique_ptr<Stats> stats_;
};

/** Create `dir` and any missing parents (mkdir -p semantics). */
Status makeDirectories(const std::string &dir);

/** What a store maintenance pass (fsck / gc) found and did. */
struct StoreFsckReport
{
    uint64_t okEntries = 0;      ///< Entries passing every check.
    uint64_t corruptEntries = 0; ///< Newly quarantined by this pass.
    uint64_t quarantined = 0;    ///< *.quarantined files present
                                 ///  (including corruptEntries).
    uint64_t orphanTemps = 0;    ///< Leftover *.tmp.* files (a write
                                 ///  killed before its rename).
    uint64_t checkpoints = 0;    ///< Live checkpoint files (.hckp /
                                 ///  .prev); never pruned.
    uint64_t okCheckpoints = 0;  ///< Checkpoints passing header and
                                 ///  checksum verification.
    uint64_t corruptCheckpoints = 0; ///< Checkpoints failing it;
                                 ///  reported only, never renamed or
                                 ///  removed (the owning run
                                 ///  quarantines on load; see notes).
    uint64_t pruned = 0;         ///< Files removed (prune mode only).
    std::vector<std::string> notes; ///< One line per problem file.
};

/**
 * Offline store maintenance. Verifies every "*.hres" entry exactly as
 * get() would (magic, schema, trace version, sizes, key and payload
 * checksums), quarantining failures; verifies every checkpoint file
 * (.hckp and its rotated .prev) the same way but *report-only* — a
 * checkpoint is live, possibly mid-write resumable state owned by a
 * running or resumable sweep, so fsck never renames, quarantines, or
 * deletes one (a corrupt primary still has its .prev fallback, and
 * the owning run quarantines on load); counts pre-existing
 * quarantined files and orphaned O_EXCL temp files. With `prune` set
 * (the `store gc` mode), quarantined files and orphaned temps are
 * deleted — live entries and checkpoint files are never touched.
 * Returns the report; errors only when the directory itself cannot
 * be read.
 */
Result<StoreFsckReport>
fsckStore(const std::string &dir,
          uint32_t trace_version = workload::kTraceVersion,
          bool prune = false);

} // namespace hetsim::core

#endif // HETSIM_CORE_RESULT_STORE_HH
