#include "workload/trace_file.hh"

#include <cstring>

#include "common/logging.hh"

namespace hetsim::workload
{

namespace
{

#pragma pack(push, 1)
struct TraceHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t count;
};

/** On-disk record (version 3). */
struct TraceRecord
{
    uint8_t cls;
    uint8_t taken;
    uint8_t size;
    uint8_t pad0;
    int16_t src1;
    int16_t src2;
    int16_t dst;
    uint16_t pad1;
    uint64_t pc;
    uint64_t addr;
    uint64_t target;
};
#pragma pack(pop)

static_assert(sizeof(TraceHeader) == kTraceHeaderBytes,
              "header layout drifted");
static_assert(sizeof(TraceRecord) == kTraceRecordBytes,
              "record layout drifted");

TraceRecord
pack(const cpu::MicroOp &op)
{
    TraceRecord r;
    r.cls = static_cast<uint8_t>(op.cls);
    r.taken = op.taken ? 1 : 0;
    r.size = op.accessSize;
    r.pad0 = 0;
    r.src1 = op.src1;
    r.src2 = op.src2;
    r.dst = op.dst;
    r.pad1 = 0;
    r.pc = op.pc;
    r.addr = op.addr;
    r.target = op.target;
    return r;
}

cpu::MicroOp
unpack(const TraceRecord &r)
{
    cpu::MicroOp op;
    op.cls = static_cast<cpu::OpClass>(r.cls);
    op.taken = r.taken != 0;
    op.accessSize = r.size;
    op.src1 = r.src1;
    op.src2 = r.src2;
    op.dst = r.dst;
    op.pc = r.pc;
    op.addr = r.addr;
    op.target = r.target;
    return op;
}

} // namespace

Result<uint64_t>
recordTrace(cpu::TraceSource &source, const std::string &path,
            uint64_t max_ops)
{
    FileHandle f(path, "wb");
    if (!f)
        return Status::error(
            ErrorCode::IoError,
            "cannot open trace file '%s' for writing", path.c_str());

    TraceHeader header{kTraceMagic, kTraceVersion, 0};
    if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1)
        return Status::error(ErrorCode::IoError,
                             "cannot write trace header to '%s'",
                             path.c_str());

    uint64_t written = 0;
    cpu::MicroOp op;
    // Buffer records for fewer syscalls.
    constexpr size_t kBatch = 4096;
    TraceRecord batch[kBatch];
    size_t in_batch = 0;
    while (written < max_ops && source.next(op)) {
        batch[in_batch++] = pack(op);
        ++written;
        if (in_batch == kBatch) {
            if (std::fwrite(batch, sizeof(TraceRecord), in_batch,
                            f.get()) != in_batch)
                return Status::error(ErrorCode::IoError,
                                     "short write to '%s'",
                                     path.c_str());
            in_batch = 0;
        }
    }
    if (in_batch > 0 &&
        std::fwrite(batch, sizeof(TraceRecord), in_batch, f.get())
            != in_batch)
        return Status::error(ErrorCode::IoError,
                             "short write to '%s'", path.c_str());

    // Patch the record count into the header.
    header.count = written;
    if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        std::fwrite(&header, sizeof(header), 1, f.get()) != 1)
        return Status::error(ErrorCode::IoError,
                             "cannot finalize trace header in '%s'",
                             path.c_str());
    return written;
}

Result<std::unique_ptr<FileTrace>>
FileTrace::open(const std::string &path)
{
    FileHandle f(path, "rb");
    if (!f)
        return Status::error(ErrorCode::IoError,
                             "cannot open trace file '%s'",
                             path.c_str());

    TraceHeader header;
    if (std::fread(&header, sizeof(header), 1, f.get()) != 1)
        return Status::error(
            ErrorCode::TruncatedHeader,
            "trace file '%s' is too short for a header",
            path.c_str());
    if (header.magic != kTraceMagic)
        return Status::error(ErrorCode::BadMagic,
                             "'%s' is not a HetSim trace (bad magic)",
                             path.c_str());
    if (header.version != kTraceVersion)
        return Status::error(ErrorCode::UnsupportedVersion,
                             "trace '%s' has unsupported version %u",
                             path.c_str(), header.version);

    // The payload must hold whole records, exactly as many as the
    // header claims; anything else means the file was cut or edited.
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return Status::error(ErrorCode::IoError,
                             "cannot seek in trace '%s'",
                             path.c_str());
    const long end = std::ftell(f.get());
    if (end < 0)
        return Status::error(ErrorCode::IoError,
                             "cannot measure trace '%s'",
                             path.c_str());
    const uint64_t payload =
        static_cast<uint64_t>(end) - kTraceHeaderBytes;
    if (payload % kTraceRecordBytes != 0)
        return Status::error(
            ErrorCode::TruncatedStream,
            "trace '%s' record stream is cut mid-record "
            "(%llu stray bytes)",
            path.c_str(),
            static_cast<unsigned long long>(payload % kTraceRecordBytes));
    if (payload / kTraceRecordBytes != header.count)
        return Status::error(
            ErrorCode::SizeMismatch,
            "trace '%s' header claims %llu records but the file "
            "holds %llu",
            path.c_str(),
            static_cast<unsigned long long>(header.count),
            static_cast<unsigned long long>(payload / kTraceRecordBytes));
    if (std::fseek(f.get(), static_cast<long>(kTraceHeaderBytes),
                   SEEK_SET) != 0)
        return Status::error(ErrorCode::IoError,
                             "cannot seek in trace '%s'",
                             path.c_str());

    return std::unique_ptr<FileTrace>(
        new FileTrace(std::move(f), path, header.count));
}

bool
FileTrace::next(cpu::MicroOp &op)
{
    if (!status_.ok() || pos_ >= count_)
        return false;
    TraceRecord r;
    if (std::fread(&r, sizeof(r), 1, file_.get()) != 1) {
        // The open-time size check makes this unreachable unless the
        // file changed underneath us; degrade to an early end.
        status_ = Status::error(
            ErrorCode::TruncatedStream,
            "trace '%s' truncated at record %llu", path_.c_str(),
            static_cast<unsigned long long>(pos_));
        return false;
    }
    op = unpack(r);
    if (const Status s = cpu::validateMicroOp(op); !s.ok()) {
        status_ = Status::error(
            ErrorCode::CorruptRecord, "trace '%s' record %llu: %s",
            path_.c_str(), static_cast<unsigned long long>(pos_),
            s.message().c_str());
        return false;
    }
    ++pos_;
    return true;
}

Status
FileTrace::rewind()
{
    if (std::fseek(file_.get(),
                   static_cast<long>(kTraceHeaderBytes),
                   SEEK_SET) != 0)
        return Status::error(ErrorCode::IoError,
                             "cannot rewind trace '%s'",
                             path_.c_str());
    pos_ = 0;
    status_ = Status();
    return Status();
}

} // namespace hetsim::workload
