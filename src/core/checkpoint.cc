#include "core/checkpoint.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/file.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "core/result_store.hh"

namespace hetsim::core
{

namespace
{

/** On-disk prefix of every checkpoint; key + payload bytes follow. */
#pragma pack(push, 1)
struct CheckpointHeader
{
    char magic[4];         // "HCP\n"
    uint32_t schema;       // kCheckpointSchemaVersion
    uint32_t traceVersion; // Trace-format fence.
    uint32_t keyLen;
    uint64_t payloadLen;
    uint64_t cycle;        // Quiesce cycle (convenience copy).
    uint64_t keySum;       // checksum64 of the key bytes
    uint64_t payloadSum;   // checksum64 of the payload bytes
};
#pragma pack(pop)

constexpr char kMagic[4] = {'H', 'C', 'P', '\n'};

/** Sideline a failed checkpoint so it is never restored from. */
void
quarantineCheckpoint(const std::string &path, const char *reason)
{
    const std::string side = path + ".quarantined";
    if (::rename(path.c_str(), side.c_str()) != 0)
        ::unlink(path.c_str());
    warn("checkpoint: quarantined %s (%s)", path.c_str(), reason);
}

/** The full header/checksum validation a load performs, over raw
 *  file bytes: nullptr when healthy (with *hdr filled in), else the
 *  failure reason. Identity-key fencing is NOT part of this — key
 *  ownership is the caller's policy, not a property of the bytes. */
const char *
checkpointProblem(const std::string &raw, uint32_t trace_version,
                  CheckpointHeader *hdr)
{
    if (raw.size() < sizeof(*hdr))
        return "truncated header";
    std::memcpy(hdr, raw.data(), sizeof(*hdr));
    if (std::memcmp(hdr->magic, kMagic, sizeof(kMagic)) != 0)
        return "bad magic";
    if (hdr->schema != kCheckpointSchemaVersion)
        return "checkpoint schema version mismatch";
    if (hdr->traceVersion != trace_version)
        return "trace format version mismatch";
    if (raw.size() != sizeof(*hdr) + hdr->keyLen + hdr->payloadLen)
        return "size mismatch";
    if (checksum64(raw.data() + sizeof(*hdr), hdr->keyLen) !=
        hdr->keySum)
        return "key checksum mismatch";
    if (checksum64(raw.data() + sizeof(*hdr) + hdr->keyLen,
                   hdr->payloadLen) != hdr->payloadSum)
        return "payload checksum mismatch";
    return nullptr;
}

} // namespace

Status
saveCheckpoint(const std::string &path, const std::string &key,
               uint64_t cycle, const std::string &payload,
               uint32_t trace_version)
{
    CheckpointHeader hdr;
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.schema = kCheckpointSchemaVersion;
    hdr.traceVersion = trace_version;
    hdr.keyLen = static_cast<uint32_t>(key.size());
    hdr.payloadLen = payload.size();
    hdr.cycle = cycle;
    hdr.keySum = checksum64(key);
    hdr.payloadSum = checksum64(payload);

    char suffix[48];
    static uint64_t tmp_seq = 0;
    std::snprintf(suffix, sizeof(suffix), ".tmp.%d.%llu",
                  static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(++tmp_seq));
    const std::string tmp = path + suffix;

    FdHandle fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL,
                       0644));
    if (!fd)
        return ioError("open failed", tmp, errno);

    Status s = writeAllFd(fd.get(), &hdr, sizeof(hdr), tmp);
    if (s.ok())
        s = writeAllFd(fd.get(), key.data(), key.size(), tmp);
    if (s.ok())
        s = writeAllFd(fd.get(), payload.data(), payload.size(), tmp);
    if (s.ok() && ::fsync(fd.get()) != 0)
        s = ioError("fsync failed", tmp, errno);
    fd.reset();
    if (!s.ok()) {
        ::unlink(tmp.c_str());
        return s;
    }

    // Rotate the current checkpoint aside before installing the new
    // one: a kill between the two renames leaves .prev as the live
    // fallback, so the reader never sees less than the last completed
    // checkpoint.
    const std::string prev = path + kCheckpointPrevSuffix;
    ::rename(path.c_str(), prev.c_str()); // ENOENT on first save: fine

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const Status rs = ioError("rename failed", path, errno);
        ::unlink(tmp.c_str());
        return rs;
    }
    const size_t slash = path.rfind('/');
    syncDirectory(slash == std::string::npos ? "." : path.substr(0, slash));
    return Status();
}

Result<LoadedCheckpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expect_key,
                   uint32_t trace_version)
{
    FdHandle fd(::open(path.c_str(), O_RDONLY));
    if (!fd) {
        if (errno == ENOENT)
            return Status::error(ErrorCode::NotFound,
                                 "no checkpoint at %s", path.c_str());
        return ioError("open failed", path, errno);
    }
    std::string raw;
    const Status read = readAllFd(fd.get(), &raw, path);
    if (!read.ok())
        return read;
    fd.reset();

    CheckpointHeader hdr;
    const char *reason = checkpointProblem(raw, trace_version, &hdr);
    if (reason != nullptr) {
        quarantineCheckpoint(path, reason);
        return Status::error(ErrorCode::NotFound,
                             "checkpoint quarantined: %s", reason);
    }

    // Healthy bytes for a different run: refuse but do not
    // quarantine — restoring another run's machine state would be
    // silent corruption of results.
    if (raw.compare(sizeof(hdr), hdr.keyLen, expect_key) != 0)
        return Status::error(ErrorCode::NotFound,
                             "checkpoint at %s belongs to a "
                             "different run", path.c_str());

    LoadedCheckpoint out;
    out.key = expect_key;
    out.payload = raw.substr(sizeof(hdr) + hdr.keyLen,
                             hdr.payloadLen);
    out.cycle = hdr.cycle;
    out.path = path;
    return out;
}

Result<LoadedCheckpoint>
loadCheckpoint(const std::string &path, const std::string &expect_key,
               uint32_t trace_version)
{
    Result<LoadedCheckpoint> primary =
        loadCheckpointFile(path, expect_key, trace_version);
    if (primary.ok())
        return primary;
    Result<LoadedCheckpoint> prev = loadCheckpointFile(
        path + kCheckpointPrevSuffix, expect_key, trace_version);
    if (prev.ok()) {
        warn("checkpoint: primary unusable (%s); restored from %s",
             primary.status().message().c_str(),
             prev->path.c_str());
        return prev;
    }
    return Status::error(ErrorCode::NotFound,
                         "no restorable checkpoint at %s (%s; "
                         "fallback: %s)", path.c_str(),
                         primary.status().message().c_str(),
                         prev.status().message().c_str());
}

Status
verifyCheckpointFile(const std::string &path, uint32_t trace_version)
{
    FdHandle fd(::open(path.c_str(), O_RDONLY));
    if (!fd) {
        if (errno == ENOENT)
            return Status::error(ErrorCode::NotFound,
                                 "no checkpoint at %s", path.c_str());
        return ioError("open failed", path, errno);
    }
    std::string raw;
    const Status read = readAllFd(fd.get(), &raw, path);
    if (!read.ok())
        return read;
    CheckpointHeader hdr;
    const char *reason = checkpointProblem(raw, trace_version, &hdr);
    if (reason != nullptr)
        return Status::error(ErrorCode::InvalidArgument, "%s",
                             reason);
    return Status();
}

void
removeCheckpoint(const std::string &path)
{
    ::unlink(path.c_str());
    ::unlink((path + kCheckpointPrevSuffix).c_str());
}

} // namespace hetsim::core
