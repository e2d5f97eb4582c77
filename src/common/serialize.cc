#include "common/serialize.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace hetsim
{

namespace
{

/** Section header: u32 name length + name bytes + u64 payload length
 *  + u64 payload checksum64. The length/checksum pair is patched by
 *  endSection() once the payload is complete. */
constexpr size_t kSectionPatchBytes = 8 + 8;

/** Serializer::grow() adds at least this much room. A buffer handed
 *  back from an earlier stream already holds that stream's length,
 *  so a same-sized stream never grows and a longer one zero-fills
 *  about the difference. */
constexpr size_t kGrowBytes = 4096;

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

/** The little-endian word at `p`, which need not be aligned. */
template <typename T>
T
loadLe(const unsigned char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 8)
            v = __builtin_bswap64(v);
        else
            v = __builtin_bswap32(v);
    }
    return v;
}

/** One lane step: fold a word into an accumulator. */
uint64_t
lane(uint64_t acc, uint64_t word)
{
    acc += word * kPrime2;
    acc = std::rotl(acc, 31);
    return acc * kPrime1;
}

/** Fold a finished lane into the merged hash. */
uint64_t
merge(uint64_t h, uint64_t acc)
{
    h ^= lane(0, acc);
    return h * kPrime1 + kPrime4;
}

/** Write `v` little-endian into the 8 bytes at `p`. */
void
storeLe64(char *p, uint64_t v)
{
    for (size_t i = 0; i < 8; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
}

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

uint64_t
checksum64(const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + n;
    uint64_t h;
    if (n >= 32) {
        uint64_t v1 = kPrime1 + kPrime2;
        uint64_t v2 = kPrime2;
        uint64_t v3 = 0;
        uint64_t v4 = 0 - kPrime1;
        for (; end - p >= 32; p += 32) {
            v1 = lane(v1, loadLe<uint64_t>(p));
            v2 = lane(v2, loadLe<uint64_t>(p + 8));
            v3 = lane(v3, loadLe<uint64_t>(p + 16));
            v4 = lane(v4, loadLe<uint64_t>(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = merge(h, v1);
        h = merge(h, v2);
        h = merge(h, v3);
        h = merge(h, v4);
    } else {
        h = kPrime5;
    }
    h += n;
    for (; end - p >= 8; p += 8) {
        h ^= lane(0, loadLe<uint64_t>(p));
        h = std::rotl(h, 27) * kPrime1 + kPrime4;
    }
    if (end - p >= 4) {
        h ^= loadLe<uint32_t>(p) * kPrime1;
        h = std::rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * kPrime5;
        h = std::rotl(h, 11) * kPrime1;
    }
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

void
Serializer::grow(size_t n)
{
    buf_.resize(std::max(len_ + n, buf_.size() + kGrowBytes));
}

void
Serializer::beginSection(const char *name)
{
    hetsim_assert(!inSection_, "serializer sections do not nest");
    inSection_ = true;
    const uint32_t len = static_cast<uint32_t>(std::strlen(name));
    putScalar(len);
    putRaw(name, len);
    sectionHeaderAt_ = len_;
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
    const uint64_t payload_len = len_ - payload_at;
    char *slot = buf_.data() + sectionHeaderAt_;
    storeLe64(slot, payload_len);
    storeLe64(slot + 8, checksum64(buf_.data() + payload_at, payload_len));
}

void
Serializer::putString(std::string_view s)
{
    putU64(s.size());
    putRaw(s.data(), s.size());
}

std::string
Serializer::take()
{
    hetsim_assert(!inSection_, "take() inside an open section");
    buf_.resize(len_);
    len_ = 0;
    return std::exchange(buf_, std::string());
}

void
Deserializer::latch(Status err)
{
    if (err_.ok()) {
        err_ = std::move(err);
        limit_ = pos_;
    }
}

void
Deserializer::readPastLimit(void *p, size_t n)
{
    std::memset(p, 0, n);
    latch(Status::error(ErrorCode::CorruptRecord,
                        "checkpoint read past %s end at byte %zu",
                        inSection_ ? "section" : "buffer", pos_));
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
    if (len != std::strlen(name) || len > data_.size() - pos_ ||
        std::memcmp(data_.data() + pos_, name, len) != 0) {
        latch(Status::error(ErrorCode::CorruptRecord,
                            "checkpoint section '%s' not found at "
                            "byte %zu", name, pos_));
        return;
    }
    pos_ += len;
    const uint64_t payload_len = getScalar<uint64_t>();
    const uint64_t sum = getScalar<uint64_t>();
    if (!err_.ok())
        return;
    if (payload_len > data_.size() - pos_) {
        latch(Status::error(ErrorCode::CorruptRecord,
                            "checkpoint section '%s' truncated", name));
        return;
    }
    if (checksum64(data_.data() + pos_, payload_len) != sum) {
        latch(Status::error(ErrorCode::CorruptRecord,
                            "checkpoint section '%s' checksum "
                            "mismatch", name));
        return;
    }
    inSection_ = true;
    limit_ = pos_ + payload_len;
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
    if (pos_ != limit_) {
        latch(Status::error(ErrorCode::CorruptRecord,
                            "checkpoint section not fully consumed "
                            "(%zu of %zu bytes)", pos_, limit_));
        return;
    }
    limit_ = data_.size();
}

std::string
Deserializer::getString()
{
    const uint64_t n = getU64();
    if (!err_.ok())
        return {};
    if (n > limit_ - pos_) {
        latch(Status::error(ErrorCode::CorruptRecord,
                            "checkpoint string truncated at byte %zu",
                            pos_));
        return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
}

void
Deserializer::fail(const char *what)
{
    latch(Status::error(ErrorCode::CorruptRecord,
                        "checkpoint restore rejected: %s", what));
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
