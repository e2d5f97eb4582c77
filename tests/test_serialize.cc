/**
 * @file
 * Tests for the serialization primitives under every checkpoint and
 * run record: checksum64 known answers and bit sensitivity, a
 * Serializer reusing a buffer, dense byte runs, and reads that must
 * fail at a section's end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/serialize.hh"

using namespace hetsim;

namespace
{

/** A 4 KiB buffer whose byte i is i * 131 + 7. */
std::vector<unsigned char>
patternBuffer()
{
    std::vector<unsigned char> buf(4096);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 131 + 7);
    return buf;
}

/** A stream of two sections holding every kind of field. */
void
writeSample(Serializer &ser)
{
    ser.beginSection("alpha");
    ser.putU8(0xab);
    ser.putBool(true);
    ser.putU16(0xbeef);
    ser.putU32(0xdeadbeef);
    ser.putU64(0x0123456789abcdefull);
    ser.putI64(-42);
    ser.putDouble(0.1);
    ser.putString("a string");
    ser.endSection();
    ser.beginSection("beta");
    const std::vector<unsigned char> run = patternBuffer();
    ser.putBytes(run.data(), run.size());
    ser.endSection();
}

} // namespace

TEST(Checksum64, MatchesXxh64ReferenceVectors)
{
    // Published XXH64 (seed 0) values: checksum64 is that function.
    EXPECT_EQ(checksum64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(checksum64("a", 1), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(checksum64("abc", 3), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(checksum64(std::string(
                  "Nobody inspects the spammish repetition")),
              0xfbcea83c8a378bf1ull);
}

TEST(Checksum64, PinnedAcrossTheRoundAndTailPaths)
{
    // Below, at and past one 32-byte round, and whole-word and
    // byte tails: the checkpoint format depends on every one.
    const std::vector<unsigned char> buf = patternBuffer();
    const struct
    {
        size_t n;
        uint64_t sum;
    } pins[] = {
        {0, 0xef46db3751d8e999ull},    {1, 0xa96c7f0ce858bbb7ull},
        {7, 0x2744460dd675d2c0ull},    {8, 0x994b676b71ce94ddull},
        {31, 0x6711d55e306b5d8full},   {32, 0x07f7b8e3bc5d6e25ull},
        {33, 0x09f85eeb4e1cbe9full},   {4096, 0xcf05adf75aca30cfull},
    };
    for (const auto &pin : pins)
        EXPECT_EQ(checksum64(buf.data(), pin.n), pin.sum) << pin.n;
}

TEST(Checksum64, UnalignedInputGivesTheSameValue)
{
    const std::vector<unsigned char> buf = patternBuffer();
    std::vector<unsigned char> shifted(buf.size() + 3);
    for (size_t offset = 1; offset <= 3; ++offset) {
        std::copy(buf.begin(), buf.end(), shifted.begin() + offset);
        EXPECT_EQ(checksum64(shifted.data() + offset, buf.size()),
                  checksum64(buf.data(), buf.size()))
            << offset;
    }
}

TEST(Checksum64, EverySingleBitFlipChangesTheValue)
{
    std::vector<unsigned char> buf = patternBuffer();
    const uint64_t base = checksum64(buf.data(), buf.size());
    for (size_t bit = 0; bit < buf.size() * 8; ++bit) {
        buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        ASSERT_NE(checksum64(buf.data(), buf.size()), base) << bit;
        buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
}

TEST(Checksum64, SameBitInTwoWordsChangesTheValue)
{
    // Flipping one bit position in two words cancels in any checksum
    // that combines words by XOR or addition before mixing. Pairs of
    // adjacent words (different lanes) and of words one round apart
    // (the same lane) are both covered.
    std::vector<unsigned char> buf = patternBuffer();
    const uint64_t base = checksum64(buf.data(), buf.size());
    const size_t words = buf.size() / 8;
    for (const size_t stride : {size_t{1}, size_t{4}}) {
        for (size_t w = 0; w + stride < words; ++w) {
            for (uint32_t bit = 0; bit < 64; ++bit) {
                const unsigned char mask =
                    static_cast<unsigned char>(1u << (bit % 8));
                buf[w * 8 + bit / 8] ^= mask;
                buf[(w + stride) * 8 + bit / 8] ^= mask;
                ASSERT_NE(checksum64(buf.data(), buf.size()), base)
                    << "words " << w << " and " << w + stride << ", bit "
                    << bit;
                buf[w * 8 + bit / 8] ^= mask;
                buf[(w + stride) * 8 + bit / 8] ^= mask;
            }
        }
    }
}

TEST(Serializer, ReusedBufferWritesTheSameBytes)
{
    Serializer fresh;
    writeSample(fresh);
    const std::string want = fresh.take();

    // A buffer longer than the stream, one shorter (so the write
    // grows it), and the stream's own earlier bytes.
    for (std::string used :
         {std::string(3 * want.size(), 'x'),
          std::string(want.size() / 2, '\xff'), want}) {
        Serializer reused(std::move(used));
        writeSample(reused);
        EXPECT_EQ(reused.take(), want);
    }

    // take() empties the Serializer, so it writes the stream again.
    Serializer again;
    writeSample(again);
    EXPECT_EQ(again.take(), want);
    writeSample(again);
    EXPECT_EQ(again.take(), want);
}

TEST(Serializer, FieldsRoundTrip)
{
    Serializer ser;
    writeSample(ser);
    const std::string bytes = ser.take();

    Deserializer des(bytes);
    des.openSection("alpha");
    EXPECT_EQ(des.getU8(), 0xab);
    EXPECT_TRUE(des.getBool());
    EXPECT_EQ(des.getU16(), 0xbeef);
    EXPECT_EQ(des.getU32(), 0xdeadbeefu);
    EXPECT_EQ(des.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(des.getI64(), -42);
    EXPECT_EQ(des.getDouble(), 0.1);
    EXPECT_EQ(des.getString(), "a string");
    des.closeSection();
    des.openSection("beta");
    std::vector<unsigned char> run(4096);
    des.getBytes(run.data(), run.size());
    des.closeSection();
    EXPECT_TRUE(des.ok()) << des.status().toString();
    EXPECT_TRUE(des.atEnd());
    EXPECT_EQ(run, patternBuffer());
}

TEST(Serializer, ScalarsAreLittleEndian)
{
    Serializer ser;
    ser.beginSection("s");
    ser.putU32(0x04030201);
    ser.endSection();
    const std::string bytes = ser.take();
    // u32 name length, name, u64 length, u64 checksum, payload.
    EXPECT_EQ(bytes.substr(4 + 1 + 8 + 8), std::string("\x01\x02\x03\x04"));
}

TEST(Deserializer, ReadPastSectionEndFails)
{
    Serializer ser;
    ser.beginSection("run");
    const unsigned char bytes[5] = {1, 2, 3, 4, 5};
    ser.putBytes(bytes, sizeof(bytes));
    ser.endSection();
    ser.beginSection("next");
    ser.putU64(7);
    ser.endSection();
    const std::string stream = ser.take();

    // A byte run one byte longer than the section fails, although the
    // next section's bytes follow, and zero-fills its output.
    Deserializer des(stream);
    des.openSection("run");
    unsigned char got[6] = {9, 9, 9, 9, 9, 9};
    des.getBytes(got, sizeof(got));
    EXPECT_FALSE(des.ok());
    EXPECT_NE(des.status().message().find("past section end"),
              std::string::npos)
        << des.status().toString();
    for (unsigned char b : got)
        EXPECT_EQ(b, 0);

    // The failure is sticky: later reads return zero and fail too.
    des.closeSection();
    des.openSection("next");
    EXPECT_EQ(des.getU64(), 0u);
    EXPECT_FALSE(des.ok());

    // Reading exactly the run succeeds.
    Deserializer exact(stream);
    exact.openSection("run");
    unsigned char five[5] = {};
    exact.getBytes(five, sizeof(five));
    exact.closeSection();
    exact.openSection("next");
    EXPECT_EQ(exact.getU64(), 7u);
    exact.closeSection();
    EXPECT_TRUE(exact.ok()) << exact.status().toString();
    EXPECT_EQ(five[4], 5);
}

TEST(Deserializer, HugeSectionLengthIsTruncationNotOverflow)
{
    Serializer ser;
    ser.beginSection("s");
    ser.putU64(1);
    ser.endSection();
    std::string stream = ser.take();
    // The u64 payload length follows the u32 name length and name.
    const uint64_t huge = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < 8; ++i)
        stream[4 + 1 + i] = static_cast<char>(huge >> (8 * i));
    Deserializer des(stream);
    des.openSection("s");
    EXPECT_FALSE(des.ok());
    EXPECT_NE(des.status().message().find("truncated"), std::string::npos)
        << des.status().toString();
}
