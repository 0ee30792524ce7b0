/**
 * @file
 * Unit tests for the bit-granular streams underlying all codecs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"

using namespace compresso;

TEST(BitWriter, EmptyStream)
{
    BitWriter w;
    EXPECT_EQ(w.bitSize(), 0u);
    EXPECT_EQ(w.byteSize(), 0u);
    EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriter, SingleBits)
{
    BitWriter w;
    w.put(1, 1);
    w.put(0, 1);
    w.put(1, 1);
    EXPECT_EQ(w.bitSize(), 3u);
    EXPECT_EQ(w.byteSize(), 1u);
    // MSB-first: 101xxxxx.
    EXPECT_EQ(w.bytes()[0], 0b10100000);
}

TEST(BitWriter, ValueIsMasked)
{
    BitWriter w;
    w.put(0xff, 4); // only the low 4 bits should be kept
    EXPECT_EQ(w.bytes()[0], 0xf0);
}

TEST(BitWriter, CrossByteBoundary)
{
    BitWriter w;
    w.put(0b101, 3);
    w.put(0b111111, 6); // spans into the second byte
    EXPECT_EQ(w.bitSize(), 9u);
    EXPECT_EQ(w.byteSize(), 2u);
    EXPECT_EQ(w.bytes()[0], 0b10111111);
    EXPECT_EQ(w.bytes()[1], 0b10000000);
}

TEST(BitWriter, ZeroWidthPutIsNoop)
{
    BitWriter w;
    w.put(123, 0);
    EXPECT_EQ(w.bitSize(), 0u);
}

TEST(BitWriter, SixtyFourBitValue)
{
    BitWriter w;
    w.put(0xdeadbeefcafebabeULL, 64);
    ASSERT_EQ(w.byteSize(), 8u);
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(64), 0xdeadbeefcafebabeULL);
}

TEST(BitReader, ReadBack)
{
    BitWriter w;
    w.put(0b1101, 4);
    w.put(0x3a, 8);
    w.put(1, 1);
    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_EQ(r.get(4), 0b1101u);
    EXPECT_EQ(r.get(8), 0x3au);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_FALSE(r.overrun());
}

TEST(BitReader, OverrunReturnsZeroAndFlags)
{
    BitWriter w;
    w.put(0b1, 1);
    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(4), 0u);
    EXPECT_TRUE(r.overrun());
}

TEST(BitReader, PeekDoesNotConsume)
{
    BitWriter w;
    w.put(0b1011, 4);
    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_EQ(r.peek(2), 0b10u);
    EXPECT_EQ(r.pos(), 0u);
    EXPECT_EQ(r.get(4), 0b1011u);
}

TEST(BitReader, RemainingTracksPosition)
{
    BitWriter w;
    w.put(0xabcd, 16);
    BitReader r(w.bytes().data(), w.bitSize());
    EXPECT_EQ(r.remaining(), 16u);
    r.get(5);
    EXPECT_EQ(r.remaining(), 11u);
}

/** Property: any sequence of (value, width) writes reads back
 *  identically. */
TEST(BitStream, RandomRoundTrip)
{
    Rng rng(42);
    for (int iter = 0; iter < 200; ++iter) {
        BitWriter w;
        std::vector<std::pair<uint64_t, unsigned>> items;
        unsigned n = 1 + unsigned(rng.below(64));
        for (unsigned i = 0; i < n; ++i) {
            unsigned width = 1 + unsigned(rng.below(64));
            uint64_t value = rng.next();
            if (width < 64)
                value &= (uint64_t(1) << width) - 1;
            items.emplace_back(value, width);
            w.put(value, width);
        }
        BitReader r(w.bytes().data(), w.bitSize());
        for (auto [value, width] : items)
            ASSERT_EQ(r.get(width), value);
        EXPECT_FALSE(r.overrun());
    }
}

// ---------------------------------------------------------------------
// Word-level reader edge cases. Every buffer below is a heap vector of
// exactly ceil(size_bits / 8) bytes, so that a read past its end is an
// out-of-bounds load the asan-ubsan preset reports.
// ---------------------------------------------------------------------

namespace {

std::vector<uint8_t>
randomBytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> b(n);
    for (auto &x : b)
        x = uint8_t(rng.next());
    return b;
}

/** Bit-at-a-time model of get(): bits at or past @p size read as 0. */
uint64_t
refBits(const std::vector<uint8_t> &b, size_t size, size_t pos, unsigned n)
{
    uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) {
        size_t p = pos + i;
        uint64_t bit = p < size ? (b[p / 8] >> (7 - p % 8)) & 1 : 0;
        v = (v << 1) | bit;
    }
    return v;
}

/** Advance @p r by @p bits in reads of at most 64 bits. */
void
skip(BitReader &r, size_t bits)
{
    while (bits > 0) {
        unsigned step = unsigned(std::min<size_t>(64, bits));
        r.get(step);
        bits -= step;
    }
}

} // namespace

TEST(BitReader, EveryWidthAtEveryOffset)
{
    Rng rng(7);
    std::vector<uint8_t> b = randomBytes(rng, 24);
    size_t size = b.size() * 8;
    for (unsigned off = 0; off < 8; ++off) {
        for (unsigned n = 1; n <= 64; ++n) {
            BitReader r(b.data(), size);
            r.get(off);
            ASSERT_EQ(r.get(n), refBits(b, size, off, n))
                << "off " << off << " n " << n;
            ASSERT_EQ(r.pos(), off + n);
            ASSERT_FALSE(r.overrun());
        }
    }
}

TEST(BitReader, ReadsEndingExactlyAtTheEnd)
{
    // Byte lengths that are not multiples of 8, and bit lengths that
    // end inside the last byte (its pad bits are set and must read as
    // zero).
    Rng rng(11);
    for (size_t bytes = 1; bytes <= 19; ++bytes) {
        std::vector<uint8_t> b = randomBytes(rng, bytes);
        b.back() |= 0x01;
        for (size_t size = bytes * 8 - 7; size <= bytes * 8; ++size) {
            for (unsigned n = 1; n <= 64 && n <= size; ++n) {
                BitReader r(b.data(), size);
                size_t pos = size - n;
                skip(r, pos);
                ASSERT_EQ(r.get(n), refBits(b, size, pos, n))
                    << "bytes " << bytes << " size " << size << " n " << n;
                ASSERT_FALSE(r.overrun());
                ASSERT_EQ(r.remaining(), 0u);
            }
        }
    }
}

TEST(BitReader, StraddlingReadReturnsInRangeBitsThenZeros)
{
    Rng rng(13);
    for (size_t bytes = 1; bytes <= 11; ++bytes) {
        std::vector<uint8_t> b = randomBytes(rng, bytes);
        for (size_t size = bytes * 8 - 7; size <= bytes * 8; ++size) {
            for (size_t pos = size > 64 ? size - 64 : 0; pos <= size;
                 ++pos) {
                for (unsigned n = unsigned(size - pos) + 1; n <= 64; ++n) {
                    BitReader r(b.data(), size);
                    skip(r, pos);
                    ASSERT_FALSE(r.overrun());
                    uint64_t want = refBits(b, size, pos, n);
                    ASSERT_EQ(r.get(n), want)
                        << "size " << size << " pos " << pos << " n " << n;
                    ASSERT_TRUE(r.overrun());
                    ASSERT_EQ(r.pos(), pos + n);
                    ASSERT_EQ(r.remaining(), 0u);
                    // Once past the end every read is zero.
                    ASSERT_EQ(r.get(n), 0u);
                }
            }
        }
    }
}

TEST(BitReader, EmptyBufferReadsZeroAndOverruns)
{
    BitReader r(nullptr, 0);
    EXPECT_EQ(r.get(0), 0u);
    EXPECT_FALSE(r.overrun());
    EXPECT_EQ(r.get(64), 0u);
    EXPECT_TRUE(r.overrun());
    EXPECT_EQ(r.pos(), 64u);
}

TEST(BitReader, PeekAtTheTailLeavesStateUnchanged)
{
    Rng rng(17);
    std::vector<uint8_t> b = randomBytes(rng, 9);
    size_t size = 70;
    for (size_t pos = 40; pos <= size; ++pos) {
        for (unsigned n = 1; n <= 64; ++n) {
            BitReader r(b.data(), size);
            skip(r, pos);
            ASSERT_EQ(r.peek(n), refBits(b, size, pos, n));
            ASSERT_EQ(r.pos(), pos);
            ASSERT_FALSE(r.overrun());
            // Peeking from an already overrun reader keeps the flag.
            BitReader o(b.data(), size);
            skip(o, 128);
            ASSERT_TRUE(o.overrun());
            size_t opos = o.pos();
            ASSERT_EQ(o.peek(n), 0u);
            ASSERT_EQ(o.pos(), opos);
            ASSERT_TRUE(o.overrun());
        }
    }
}

TEST(BitWriter, MatchesBitAtATimeModel)
{
    // Every width at every starting offset, against a model that
    // appends one bit at a time.
    Rng rng(19);
    for (unsigned off = 0; off < 8; ++off) {
        for (unsigned n = 1; n <= 64; ++n) {
            BitWriter w;
            std::vector<uint8_t> model;
            size_t bits = 0;
            auto modelPut = [&](uint64_t v, unsigned k) {
                for (unsigned i = k; i-- > 0;) {
                    if (bits % 8 == 0)
                        model.push_back(0);
                    model.back() |= uint8_t(((v >> i) & 1) << (7 - bits % 8));
                    ++bits;
                }
            };
            uint64_t lead = rng.next(), v = rng.next();
            w.put(lead, off);
            modelPut(lead, off);
            w.put(v, n);
            modelPut(v, n);
            w.put(v, 3);
            modelPut(v, 3);
            ASSERT_EQ(w.bytes(), model) << "off " << off << " n " << n;
            ASSERT_EQ(w.bitSize(), bits);
            ASSERT_EQ(w.byteSize(), model.size());
        }
    }
}

TEST(BitReader, PeekEveryWidthAtEveryPosition)
{
    // Byte lengths 1-19 cover buffers shorter than 8 bytes, reads from
    // the last 8 bytes and reads running past the end. Every bit length
    // that ends inside the last byte, with that byte's pad bits set.
    Rng rng(23);
    for (size_t bytes = 1; bytes <= 19; ++bytes) {
        std::vector<uint8_t> b = randomBytes(rng, bytes);
        b.back() |= 0x7f;
        for (size_t size = bytes * 8 - 7; size <= bytes * 8; ++size) {
            for (size_t pos = 0; pos <= size; ++pos) {
                BitReader r(b.data(), size);
                skip(r, pos);
                for (unsigned n = 1; n <= 64; ++n) {
                    ASSERT_EQ(r.peek(n), refBits(b, size, pos, n))
                        << "bytes " << bytes << " size " << size << " pos "
                        << pos << " n " << n;
                    ASSERT_EQ(r.pos(), pos);
                    ASSERT_FALSE(r.overrun());
                }
            }
        }
    }
}

TEST(BitReader, SkipMatchesGet)
{
    Rng rng(29);
    for (size_t bytes = 1; bytes <= 19; ++bytes) {
        std::vector<uint8_t> b = randomBytes(rng, bytes);
        for (size_t size : {bytes * 8 - 5, bytes * 8}) {
            for (size_t pos = 0; pos <= size + 1; ++pos) {
                for (unsigned n = 0; n <= 64; ++n) {
                    BitReader g(b.data(), size), s(b.data(), size);
                    skip(g, pos);
                    skip(s, pos);
                    ASSERT_EQ(s.overrun(), g.overrun());
                    g.get(n);
                    s.skip(n);
                    ASSERT_EQ(s.pos(), g.pos())
                        << "size " << size << " pos " << pos << " n " << n;
                    ASSERT_EQ(s.overrun(), g.overrun())
                        << "size " << size << " pos " << pos << " n " << n;
                    ASSERT_EQ(s.remaining(), g.remaining());
                }
            }
        }
    }
}
