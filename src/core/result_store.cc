#include "core/result_store.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/file.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "core/checkpoint.hh"

namespace hetsim::core
{

namespace
{

/** On-disk prefix of every entry; key bytes + payload bytes follow. */
#pragma pack(push, 1)
struct EntryHeader
{
    char magic[4];         // "HRS\n"
    uint32_t schema;       // ResultStore::kSchemaVersion
    uint32_t traceVersion; // Trace-format fence.
    uint32_t keyLen;
    uint64_t payloadLen;
    uint64_t keyFnv;       // fnv1a(key bytes)
    uint64_t payloadFnv;   // fnv1a(payload bytes)
};
#pragma pack(pop)

constexpr char kMagic[4] = {'H', 'R', 'S', '\n'};

/** Why the raw bytes of an entry are not a healthy entry (get() and
 *  fsckStore() quarantine it for this reason); nullptr when they are. */
const char *
entryProblem(const std::string &raw, uint32_t trace_version)
{
    EntryHeader hdr;
    if (raw.size() < sizeof(hdr))
        return "truncated header";
    std::memcpy(&hdr, raw.data(), sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        return "bad magic";
    if (hdr.schema != ResultStore::kSchemaVersion)
        return "store schema version mismatch";
    if (hdr.traceVersion != trace_version)
        return "trace format version mismatch";
    if (raw.size() != sizeof(hdr) + hdr.keyLen + hdr.payloadLen)
        return "size mismatch";
    if (fnv1a(raw.data() + sizeof(hdr), hdr.keyLen) != hdr.keyFnv)
        return "key checksum mismatch";
    if (fnv1a(raw.data() + sizeof(hdr) + hdr.keyLen,
              hdr.payloadLen) != hdr.payloadFnv)
        return "payload checksum mismatch";
    return nullptr;
}

} // namespace

Status
makeDirectories(const std::string &dir)
{
    if (dir.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "empty store directory");
    std::string partial;
    size_t start = 0;
    while (start <= dir.size()) {
        const size_t slash = dir.find('/', start);
        const size_t end =
            slash == std::string::npos ? dir.size() : slash;
        partial = dir.substr(0, end);
        start = end + 1;
        if (partial.empty()) // Leading '/' of an absolute path.
            continue;
        if (::mkdir(partial.c_str(), 0755) == 0 || errno == EEXIST)
            continue;
        return ioError("mkdir failed", partial, errno);
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0)
        return ioError("stat failed", dir, errno);
    if (!S_ISDIR(st.st_mode))
        return Status::error(ErrorCode::InvalidArgument,
                             "store path is not a directory: %s",
                             dir.c_str());
    return Status();
}

Result<ResultStore>
ResultStore::open(const std::string &dir, uint32_t trace_version)
{
    const Status made = makeDirectories(dir);
    if (!made.ok())
        return made;
    return ResultStore(dir, trace_version);
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(fnv1a(key)));
    return dir_ + "/" + name + kEntrySuffix;
}

void
ResultStore::quarantine(const std::string &path, const char *reason)
{
    const std::string side = path + ".quarantined";
    if (::rename(path.c_str(), side.c_str()) != 0) {
        // Sidelining failed (e.g. read-only media): unlink so the
        // corrupt bytes can at least never be served again.
        ::unlink(path.c_str());
    }
    ++stats_->quarantined;
    warn("result store: quarantined %s (%s)", path.c_str(), reason);
}

Result<std::string>
ResultStore::get(const std::string &key)
{
    const std::string path = entryPath(key);
    FdHandle fd(::open(path.c_str(), O_RDONLY));
    if (!fd) {
        ++stats_->misses;
        if (errno == ENOENT)
            return Status::error(ErrorCode::NotFound,
                                 "store miss for key '%s'",
                                 key.c_str());
        return ioError("open failed", path, errno);
    }

    std::string raw;
    const Status read = readAllFd(fd.get(), &raw, path);
    if (!read.ok()) {
        ++stats_->misses;
        return read;
    }
    fd.reset();

    if (const char *reason = entryProblem(raw, traceVersion_)) {
        quarantine(path, reason);
        ++stats_->misses;
        return Status::error(ErrorCode::NotFound,
                             "store entry quarantined: %s", reason);
    }
    EntryHeader hdr;
    std::memcpy(&hdr, raw.data(), sizeof(hdr));

    // Verified but for a different key: an FNV filename collision.
    // Not corruption — the other key's entry is healthy — so it is a
    // plain miss (this key simply cannot be stored here).
    if (raw.compare(sizeof(hdr), hdr.keyLen, key) != 0) {
        ++stats_->misses;
        return Status::error(ErrorCode::NotFound,
                             "store key collision for '%s'",
                             key.c_str());
    }

    ++stats_->hits;
    return raw.substr(sizeof(hdr) + hdr.keyLen, hdr.payloadLen);
}

Status
ResultStore::put(const std::string &key, const std::string &payload)
{
    EntryHeader hdr;
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.schema = kSchemaVersion;
    hdr.traceVersion = traceVersion_;
    hdr.keyLen = static_cast<uint32_t>(key.size());
    hdr.payloadLen = payload.size();
    hdr.keyFnv = fnv1a(key);
    hdr.payloadFnv = fnv1a(payload);

    const std::string path = entryPath(key);
    char suffix[48];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%d.%llu",
                  static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(++stats_->tmpSeq));
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

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const Status rs = ioError("rename failed", path, errno);
        ::unlink(tmp.c_str());
        return rs;
    }
    syncDirectory(dir_);
    ++stats_->puts;
    return Status();
}

namespace
{

/** True when `name` ends with `suffix`. */
bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

Result<StoreFsckReport>
fsckStore(const std::string &dir, uint32_t trace_version, bool prune)
{
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return ioError("opendir failed", dir, errno);

    // Sorted for deterministic note order (readdir order is not).
    std::vector<std::string> names;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name != "." && name != "..")
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());

    StoreFsckReport rep;
    auto prune_file = [&](const std::string &path) {
        if (!prune)
            return;
        if (::unlink(path.c_str()) == 0)
            ++rep.pruned;
        else
            rep.notes.push_back("cannot remove " + path + ": " +
                                std::strerror(errno));
    };

    for (const std::string &name : names) {
        const std::string path = dir + "/" + name;
        // Orphaned O_EXCL temps: a put()/saveCheckpoint() killed
        // between open and rename. Readers never open them; gc may.
        if (name.find(".tmp.") != std::string::npos) {
            ++rep.orphanTemps;
            rep.notes.push_back("orphan temp file: " + path);
            prune_file(path);
            continue;
        }
        if (endsWith(name, ".quarantined")) {
            ++rep.quarantined;
            rep.notes.push_back("quarantined: " + path);
            prune_file(path);
            continue;
        }
        // Live mid-run checkpoints (and their rotated previous):
        // resumable state, verified report-only and deliberately
        // left alone — never renamed or pruned, even when corrupt
        // (the owning run quarantines on load; gc must not race it).
        if (endsWith(name, ".hckp") || endsWith(name, ".prev")) {
            ++rep.checkpoints;
            const Status v = verifyCheckpointFile(path,
                                                  trace_version);
            if (v.ok()) {
                ++rep.okCheckpoints;
            } else {
                ++rep.corruptCheckpoints;
                rep.notes.push_back("corrupt checkpoint (" +
                                    v.message() + "): " + path +
                                    " (left in place)");
            }
            continue;
        }
        if (!endsWith(name, ResultStore::kEntrySuffix))
            continue;

        std::string raw;
        {
            FdHandle fd(::open(path.c_str(), O_RDONLY));
            if (!fd) {
                rep.notes.push_back("cannot open " + path + ": " +
                                    std::strerror(errno));
                continue;
            }
            const Status read = readAllFd(fd.get(), &raw, path);
            if (!read.ok()) {
                rep.notes.push_back(read.toString());
                continue;
            }
        }
        const char *problem = entryProblem(raw, trace_version);
        if (problem == nullptr) {
            ++rep.okEntries;
            continue;
        }
        ++rep.corruptEntries;
        rep.notes.push_back(std::string("corrupt entry (") + problem +
                            "): " + path);
        const std::string side = path + ".quarantined";
        if (::rename(path.c_str(), side.c_str()) != 0) {
            ::unlink(path.c_str());
            rep.notes.push_back("quarantine rename failed; unlinked " +
                                path);
        } else {
            ++rep.quarantined;
            prune_file(side);
        }
    }
    return rep;
}

ResultStore::Counters
ResultStore::counters() const
{
    Counters c;
    c.hits = stats_->hits.load();
    c.misses = stats_->misses.load();
    c.quarantined = stats_->quarantined.load();
    c.puts = stats_->puts.load();
    return c;
}

} // namespace hetsim::core
