/**
 * @file
 * Test helpers for checkpoint sections: save a component into a
 * section stream, restore one into a component, and edit one section
 * of a stream in place and re-checksum it, the way a writer with the
 * same bugs would have, so that only a component's own restore checks
 * can reject the bytes.
 */

#ifndef HETSIM_TESTS_CHECKPOINT_SECTIONS_HH
#define HETSIM_TESTS_CHECKPOINT_SECTIONS_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/serialize.hh"
#include "common/status.hh"

namespace hetsim::test
{

/** The section stream `component.saveState()` writes. */
template <typename Component>
std::string
savedSection(const Component &component)
{
    Serializer ser;
    component.saveState(ser);
    return ser.take();
}

/** Restore `component` from `bytes`; the Deserializer's status. */
template <typename Component>
Status
restoreSection(Component &component, const std::string &bytes)
{
    Deserializer des(bytes);
    component.restoreState(des);
    return des.status();
}

/** Little-endian field of `width` bytes at `at`. */
inline uint64_t
readLe(const std::string &bytes, size_t at, size_t width)
{
    uint64_t v = 0;
    for (size_t i = 0; i < width; ++i)
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
    return v;
}

inline void
writeLe(std::string &bytes, size_t at, size_t width, uint64_t v)
{
    for (size_t i = 0; i < width; ++i)
        bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/**
 * Apply `edit` to the payload of the first section named `name` in a
 * Serializer stream (u32 name length, name, u64 payload length, u64
 * payload checksum64, payload), then patch the checksum. `edit` must keep
 * the payload's length. Returns false when no such section exists.
 * The section is found by its header bytes, not by walking from the
 * start, because some components write stats between sections.
 */
inline bool
rewriteSection(std::string &stream, const char *name,
               const std::function<void(std::string &)> &edit)
{
    std::string header(4, '\0');
    writeLe(header, 0, 4, std::strlen(name));
    header += name;
    const size_t at = stream.find(header);
    if (at == std::string::npos)
        return false;
    const size_t payload_at = at + header.size() + 16;
    if (payload_at > stream.size())
        return false;
    const size_t payload_len = readLe(stream, at + header.size(), 8);
    if (payload_at + payload_len > stream.size())
        return false;
    std::string payload = stream.substr(payload_at, payload_len);
    edit(payload);
    if (payload.size() != payload_len)
        return false;
    stream.replace(payload_at, payload_len, payload);
    writeLe(stream, payload_at - 8, 8, checksum64(payload));
    return true;
}

/** Directory section payload: u64 entry count, then per L3-resident
 *  line, in the L3's (set, way) order, a u32 sharer mask and an i64
 *  owner. */
constexpr size_t kDirEntryBytes = 4 + 8;

/** The sharer mask of directory entry `i`. */
inline uint32_t
dirSharers(const std::string &payload, size_t i)
{
    return static_cast<uint32_t>(
        readLe(payload, 8 + i * kDirEntryBytes, 4));
}

/** The owner of directory entry `i` (-1: none). */
inline int64_t
dirOwner(const std::string &payload, size_t i)
{
    return static_cast<int64_t>(
        readLe(payload, 8 + i * kDirEntryBytes + 4, 8));
}

/** Overwrite the sharers and owner of directory entry `i`. */
inline void
setDirEntry(std::string &payload, size_t i, uint32_t sharers,
            int64_t owner)
{
    const size_t at = 8 + i * kDirEntryBytes;
    writeLe(payload, at, 4, sharers);
    writeLe(payload, at + 4, 8, static_cast<uint64_t>(owner));
}

} // namespace hetsim::test

#endif // HETSIM_TESTS_CHECKPOINT_SECTIONS_HH
