#include "common/serialize.hh"

#include "common/logging.hh"

namespace hetsim
{

namespace
{

/** Section header: u32 name length + name bytes + u64 payload length
 *  + u64 payload FNV-1a. The length/checksum pair is patched by
 *  endSection() once the payload is complete. */
constexpr size_t kSectionPatchBytes = 8 + 8;

} // namespace

uint64_t
fnv1a(const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
Serializer::putRaw(const void *p, size_t n)
{
    buf_.append(static_cast<const char *>(p), n);
}

void
Serializer::beginSection(const char *name)
{
    hetsim_assert(!inSection_, "serializer sections do not nest");
    inSection_ = true;
    const uint32_t len = static_cast<uint32_t>(std::strlen(name));
    putScalar(len);
    putRaw(name, len);
    sectionHeaderAt_ = buf_.size();
    // Placeholder for payload length + checksum, patched on close.
    putU64(0);
    putU64(0);
}

void
Serializer::endSection()
{
    hetsim_assert(inSection_, "endSection without beginSection");
    inSection_ = false;
    const size_t payload_at = sectionHeaderAt_ + kSectionPatchBytes;
    const uint64_t payload_len = buf_.size() - payload_at;
    const uint64_t fnv = fnv1a(buf_.data() + payload_at, payload_len);
    for (size_t i = 0; i < 8; ++i) {
        buf_[sectionHeaderAt_ + i] =
            static_cast<char>(payload_len >> (8 * i));
        buf_[sectionHeaderAt_ + 8 + i] =
            static_cast<char>(fnv >> (8 * i));
    }
}

void
Serializer::putString(std::string_view s)
{
    putU64(s.size());
    putRaw(s.data(), s.size());
}

void
Deserializer::getRaw(void *p, size_t n)
{
    if (!err_.ok()) {
        std::memset(p, 0, n);
        return;
    }
    const size_t limit = inSection_ ? sectionEnd_ : data_.size();
    if (pos_ + n > limit) {
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint read past %s end at byte %zu",
                             inSection_ ? "section" : "buffer", pos_);
        std::memset(p, 0, n);
        return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
}

void
Deserializer::openSection(const char *name)
{
    if (!err_.ok())
        return;
    hetsim_assert(!inSection_, "deserializer sections do not nest");
    const uint32_t len = getScalar<uint32_t>();
    if (!err_.ok())
        return;
    if (len != std::strlen(name) || pos_ + len > data_.size() ||
        std::memcmp(data_.data() + pos_, name, len) != 0) {
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint section '%s' not found at "
                             "byte %zu", name, pos_);
        return;
    }
    pos_ += len;
    const uint64_t payload_len = getScalar<uint64_t>();
    const uint64_t fnv = getScalar<uint64_t>();
    if (!err_.ok())
        return;
    if (pos_ + payload_len > data_.size()) {
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint section '%s' truncated",
                             name);
        return;
    }
    if (fnv1a(data_.data() + pos_, payload_len) != fnv) {
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint section '%s' checksum "
                             "mismatch", name);
        return;
    }
    inSection_ = true;
    sectionEnd_ = pos_ + payload_len;
}

void
Deserializer::closeSection()
{
    if (!err_.ok()) {
        inSection_ = false;
        return;
    }
    hetsim_assert(inSection_, "closeSection without openSection");
    inSection_ = false;
    if (pos_ != sectionEnd_) {
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint section not fully consumed "
                             "(%zu of %zu bytes)", pos_, sectionEnd_);
    }
}

std::string
Deserializer::getString()
{
    const uint64_t n = getU64();
    if (!err_.ok())
        return {};
    const size_t limit = inSection_ ? sectionEnd_ : data_.size();
    if (pos_ + n > limit) {
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint string truncated at byte %zu",
                             pos_);
        return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
}

void
Deserializer::fail(const char *what)
{
    if (err_.ok())
        err_ = Status::error(ErrorCode::CorruptRecord,
                             "checkpoint restore rejected: %s", what);
}

SparseIndexReader::SparseIndexReader(Deserializer &des, size_t capacity)
    : des_(des), capacity_(capacity), remaining_(des.getU32())
{
    if (remaining_ > capacity_) {
        des_.fail("sparse entry count above capacity");
        remaining_ = 0;
    }
}

bool
SparseIndexReader::next(size_t &index)
{
    if (remaining_ == 0 || !des_.ok())
        return false;
    --remaining_;
    index = des_.getU32();
    if (index >= capacity_ || index < nextMin_) {
        des_.fail("sparse entry index out of range or not ascending");
        return false;
    }
    nextMin_ = index + 1;
    return des_.ok();
}

} // namespace hetsim
