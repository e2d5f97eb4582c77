/**
 * @file
 * Byte-level serialization helpers for the checkpoint subsystem.
 *
 * Serializer appends fixed-width little-endian scalars and
 * length-prefixed byte strings to a growing buffer, grouped into named
 * *sections*. Each section carries its own length and FNV-1a checksum,
 * so a reader can verify every component's bytes independently and a
 * schema drift (a component serializing more or fewer fields than the
 * reader expects) is caught at the section boundary instead of
 * corrupting every later field.
 *
 * Deserializer is the sticky-error mirror: reads return values
 * directly and a failed read (bounds, section name, checksum) latches
 * an error Status that every later read observes, so restore code can
 * run straight-line and check ok() once at the end. Restored objects
 * must be discarded when !ok() — partial application is the caller's
 * responsibility to avoid (hetsim rebuilds the simulator from scratch
 * and falls back to a cold start).
 *
 * Doubles round-trip bit-exactly (raw IEEE-754 bytes), which is what
 * lets restored Welford accumulators reproduce byte-identical reports.
 */

#ifndef HETSIM_COMMON_SERIALIZE_HH
#define HETSIM_COMMON_SERIALIZE_HH

#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace hetsim
{

/** FNV-1a over a byte range (same parameters as the result store). */
uint64_t serializeFnv1a(const void *data, size_t n);

/**
 * Checkpoint control shared by the chip runners (cpu::Multicore::run,
 * gpu::Gpu::run).
 *
 * When everyCycles > 0, the runner arms a *drain* each time the chip
 * clock reaches the next multiple of everyCycles: new work stops
 * entering the machine, the in-flight window retires, and at the
 * resulting quiesce point `save` receives the cycle and the full
 * serialized chip payload, after which the run continues. Drains are
 * a pure function of the machine and the cadence, so two runs with
 * the same cadence quiesce at the same cycles with the same state —
 * the basis of the restore-equals-uninterrupted guarantee.
 *
 * When `preempt` is non-null and the pointee becomes nonzero (e.g.
 * set by a SIGTERM handler), the runner stops at the next periodic
 * drain: it saves as usual and returns with `preempted` set instead
 * of continuing. Because that stopping point is a quiesce point the
 * uninterrupted twin also passes through, a preempted run resumed
 * from its checkpoint still finishes byte-identical to the twin. In
 * preempt-only mode (everyCycles == 0) the runner instead drains as
 * soon as it sees the flag; that snapshot is valid and resumable, but
 * the drain itself perturbs cycle timing, so only runs with a cadence
 * carry the byte-identity guarantee.
 */
struct CheckpointHook
{
    uint64_t everyCycles = 0; ///< 0 disables periodic checkpoints.
    std::function<void(uint64_t cycle, const std::string &payload)>
        save;
    const volatile sig_atomic_t *preempt = nullptr;
};

/** Section-structured binary writer. */
class Serializer
{
  public:
    /** Open a named section; every put until endSection() lands in
     *  it. Sections do not nest. */
    void beginSection(const char *name);

    /** Close the open section, patching its length and checksum. */
    void endSection();

    void putU8(uint8_t v) { putRaw(&v, sizeof(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU16(uint16_t v) { putScalar(v); }
    void putU32(uint32_t v) { putScalar(v); }
    void putU64(uint64_t v) { putScalar(v); }
    void putI64(int64_t v) { putScalar(static_cast<uint64_t>(v)); }

    /** Raw IEEE-754 bytes: bit-exact round trip. */
    void
    putDouble(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        putU64(bits);
    }

    /** Length-prefixed byte string. */
    void putString(std::string_view s);

    /** The serialized bytes (valid once every section is closed). */
    const std::string &data() const { return buf_; }

  private:
    template <typename T>
    void
    putScalar(T v)
    {
        // Fixed-width little-endian, independent of host layout.
        unsigned char b[sizeof(T)];
        for (size_t i = 0; i < sizeof(T); ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        putRaw(b, sizeof(b));
    }

    void putRaw(const void *p, size_t n);

    std::string buf_;
    bool inSection_ = false;
    size_t sectionHeaderAt_ = 0; ///< Offset of the len/fnv patch slot.
};

/** Sticky-error reader over a serialized byte range. */
class Deserializer
{
  public:
    explicit Deserializer(std::string_view data) : data_(data) {}

    /**
     * Open the next section, verifying its name, bounds, and
     * checksum. Reads are then confined to the section payload.
     */
    void openSection(const char *name);

    /** Close the current section; flags an error if the reader did
     *  not consume exactly the section payload (schema drift). */
    void closeSection();

    uint8_t
    getU8()
    {
        uint8_t v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }
    bool getBool() { return getU8() != 0; }
    uint16_t getU16() { return getScalar<uint16_t>(); }
    uint32_t getU32() { return getScalar<uint32_t>(); }
    uint64_t getU64() { return getScalar<uint64_t>(); }
    int64_t getI64() { return static_cast<int64_t>(getU64()); }

    double
    getDouble()
    {
        const uint64_t bits = getU64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string getString();

    /** True until any read or section check has failed. */
    bool ok() const { return err_.ok(); }

    /** The first failure (OK while ok()). */
    const Status &status() const { return err_; }

    /** Flag an application-level consistency failure (e.g. a field
     *  value the restoring component cannot accept). */
    void fail(const char *what);

  private:
    template <typename T>
    T
    getScalar()
    {
        unsigned char b[sizeof(T)] = {};
        getRaw(b, sizeof(b));
        T v = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(b[i]) << (8 * i);
        return v;
    }

    void getRaw(void *p, size_t n);

    std::string_view data_;
    size_t pos_ = 0;
    size_t sectionEnd_ = 0;
    bool inSection_ = false;
    Status err_;
};

/**
 * Reader for a sparse array: a u32 count of live entries, then each
 * entry's u32 array index in strictly ascending order, each followed
 * by the entry's fields (which the caller reads). Components with
 * large, mostly empty arrays (caches, the BTB) write only their live
 * entries this way. A count above the array's capacity, or an index
 * out of range or not above its predecessor, fails the Deserializer,
 * so every index next() returns is safe to subscript with.
 */
class SparseIndexReader
{
  public:
    SparseIndexReader(Deserializer &des, size_t capacity);

    /** Read the next entry's index; false once every entry has been
     *  read or the Deserializer has failed. */
    bool next(size_t &index);

  private:
    Deserializer &des_;
    size_t capacity_;
    uint32_t remaining_;
    size_t nextMin_ = 0; ///< Smallest index the next entry may have.
};

} // namespace hetsim

#endif // HETSIM_COMMON_SERIALIZE_HH
