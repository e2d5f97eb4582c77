/**
 * @file
 * Versioned, checksummed, atomically-rotated checkpoint files.
 *
 * A checkpoint is one file holding a header (magic, schema version,
 * trace-format version, identity-key and payload lengths +
 * checksum64s), an identity key, and an opaque payload (the Serializer
 * section stream produced by the simulators at a quiesce point).
 *
 * Durability and trust model mirror the result store:
 *
 *  - Atomic writes: the new checkpoint is written to a unique O_EXCL
 *    temp file, fsync'd, and rename(2)'d into place (directory
 *    fsync'd). A SIGKILL mid-write leaves the previous checkpoint
 *    intact; leftover temps are never read (and `store gc` prunes
 *    them).
 *  - Rotation: before the rename, the current checkpoint (if any) is
 *    rotated to "<path>.prev". A reader that finds the primary file
 *    corrupt falls back to the rotated one, so a torn rotation or a
 *    bit-flipped primary costs one checkpoint interval, not the run.
 *  - Verify-on-read: magic, schema, trace version, sizes, and both
 *    checksums are validated before a single payload byte is
 *    interpreted. A file failing any check is *quarantined* (renamed
 *    to "<file>.quarantined") and never restored from.
 *  - Identity fencing: the stored key names the exact run (config,
 *    workload, seed, scale, flags). A healthy checkpoint for a
 *    different run is refused — reported as NotFound so the caller
 *    cold-starts — but not quarantined (the bytes are not corrupt).
 *
 * The hard invariant the callers maintain on top of this file format:
 * with a fixed `--checkpoint-every N`, checkpoint cycles are a pure
 * function of the simulated machine, so a run SIGKILL'd anywhere and
 * restored from its last checkpoint emits a report byte-identical to
 * the same invocation run uninterrupted.
 */

#ifndef HETSIM_CORE_CHECKPOINT_HH
#define HETSIM_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "workload/trace_file.hh"

namespace hetsim::core
{

/** Bump when the checkpoint layout (header or any component section)
 *  changes; older files are quarantined, never reinterpreted.
 *  v2: sync-controller section + core barrier/sync park fields.
 *  v3: caches and the BTB write only live entries (sparse sections);
 *      the chip section records the run loop's unfinished-core count.
 *  v4: a cache line carries a u8 recency rank instead of a u64 LRU
 *      stamp, and the cache section drops the stamp counter.
 *  v5: sections and the header's key and payload sums are
 *      checksum64 instead of FNV-1a; the directory section drops the
 *      line address and lists one (sharers, owner) entry per
 *      L3-resident line in the L3's (set, way) order. */
constexpr uint32_t kCheckpointSchemaVersion = 5;

/** Canonical checkpoint filename extension. */
constexpr const char *kCheckpointSuffix = ".hckp";

/** Suffix of the rotated previous checkpoint. */
constexpr const char *kCheckpointPrevSuffix = ".prev";

/** A verified checkpoint read back from disk. */
struct LoadedCheckpoint
{
    std::string key;     ///< Stored run-identity key.
    std::string payload; ///< Serializer section stream.
    uint64_t cycle = 0;  ///< Quiesce cycle (header copy, pre-verified).
    std::string path;    ///< File it was loaded from (primary/.prev).
};

/**
 * Durably write a checkpoint: rotate the current file to .prev, then
 * atomically install the new bytes (O_EXCL temp + fsync + rename +
 * directory fsync).
 */
Status saveCheckpoint(const std::string &path, const std::string &key,
                      uint64_t cycle, const std::string &payload,
                      uint32_t trace_version =
                          workload::kTraceVersion);

/**
 * Read and fully verify one checkpoint file (no fallback). Corrupt,
 * truncated, or version-fenced files are quarantined and reported as
 * NotFound; a healthy file whose key differs from `expect_key` is
 * refused (NotFound) but left in place.
 */
Result<LoadedCheckpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expect_key,
                   uint32_t trace_version = workload::kTraceVersion);

/**
 * Load `path`, falling back to `path + ".prev"` when the primary is
 * missing or fails verification. NotFound when neither yields a
 * verified checkpoint for this key — the caller cold-starts.
 */
Result<LoadedCheckpoint>
loadCheckpoint(const std::string &path, const std::string &expect_key,
               uint32_t trace_version = workload::kTraceVersion);

/**
 * Report-only verification of one checkpoint file: magic, schema,
 * trace version, sizes, and both checksums — exactly the checks a
 * load performs — without quarantining, renaming, or key-fencing the
 * file (any run identity is accepted, and the bytes are never
 * touched, so verifying cannot race the run that owns the
 * checkpoint). ok() when a load with the right key would restore
 * from these bytes; InvalidArgument with the failure reason
 * otherwise; NotFound when the file is absent.
 */
Status verifyCheckpointFile(const std::string &path,
                            uint32_t trace_version =
                                workload::kTraceVersion);

/** Remove a run's checkpoint files (primary + .prev); used once a
 *  run completes so a finished run never resumes from stale state. */
void removeCheckpoint(const std::string &path);

} // namespace hetsim::core

#endif // HETSIM_CORE_CHECKPOINT_HH
