/**
 * @file
 * Binary trace recording and replay.
 *
 * Lets users capture any TraceSource (including the synthetic
 * generators) into a compact binary file and replay it later — the
 * path for bringing externally collected instruction traces into
 * HetSim. The format is version 3, a fixed-size little-endian record
 * stream:
 *
 *   header: magic "HSTR" (4 B), version u32, record count u64
 *   record: cls u8, taken u8, size u8, pad u8,
 *           src1 i16, src2 i16, dst i16, pad u16,
 *           pc u64, addr u64, target u64   (36 bytes)
 *
 * `size` is the memory access size in bytes, which store-to-load
 * forwarding needs for byte-accurate aliasing. The op classes include
 * the synchronization records (LockAcquire/LockRelease/SignalEvt/
 * WaitEvt, carrying the sync variable's address in `addr`). Only
 * version 3 is read: a file of any other version, including the
 * retired versions 1 and 2, gets UnsupportedVersion.
 *
 * Replay through FileTrace is bit-identical to the original source,
 * so a recorded run reproduces the exact same simulation.
 *
 * All I/O and validation failures are recoverable: open() returns a
 * Result, and mid-stream corruption surfaces through status() instead
 * of aborting, so a batch sweep survives a poisoned trace. Each
 * corruption class gets a distinct ErrorCode (bad magic, unsupported
 * version, truncated header, truncated stream, count/size mismatch,
 * corrupt record). Every record passes cpu::validateMicroOp before
 * the core sees it.
 */

#ifndef HETSIM_WORKLOAD_TRACE_FILE_HH
#define HETSIM_WORKLOAD_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "common/file.hh"
#include "common/status.hh"
#include "cpu/microop.hh"

namespace hetsim::workload
{

/** Magic bytes and current format version. */
constexpr uint32_t kTraceMagic = 0x52545348; // "HSTR" LE
constexpr uint32_t kTraceVersion = 3;

/** On-disk sizes, exposed so fault-injection tests can aim at the
 *  header/record boundaries. */
constexpr uint64_t kTraceHeaderBytes = 16;
constexpr uint64_t kTraceRecordBytes = 36;

/**
 * Record up to `max_ops` micro-ops from `source` into `path`.
 * @return the number of ops written, or an IoError Status.
 */
Result<uint64_t> recordTrace(cpu::TraceSource &source,
                             const std::string &path,
                             uint64_t max_ops = ~0ull);

/** Streaming replay of a recorded trace file. */
class FileTrace : public cpu::TraceSource
{
  public:
    /**
     * Open and fully validate `path`: header magic and version 3,
     * and that the file size matches the header's record count
     * exactly.
     */
    static Result<std::unique_ptr<FileTrace>>
    open(const std::string &path);

    FileTrace(const FileTrace &) = delete;
    FileTrace &operator=(const FileTrace &) = delete;

    /**
     * Produce the next op. Returns false at end of trace *or* on a
     * read/validation error; check status() to tell the two apart.
     * After an error the trace stays exhausted.
     */
    bool next(cpu::MicroOp &op) override;

    /** Ok unless replay hit an I/O or record-validation error. */
    const Status &status() const { return status_; }

    /** Total records in the file. */
    uint64_t size() const { return count_; }

    /** Rewind to the first record (also clears an error status). */
    Status rewind();

  private:
    FileTrace(FileHandle file, std::string path, uint64_t count)
        : file_(std::move(file)), path_(std::move(path)), count_(count)
    {
    }

    FileHandle file_;
    std::string path_;
    uint64_t count_ = 0;
    uint64_t pos_ = 0;
    Status status_;
};

} // namespace hetsim::workload

#endif // HETSIM_WORKLOAD_TRACE_FILE_HH
