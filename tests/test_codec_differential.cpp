/**
 * @file
 * Differential test of the bit-serial line decoders' symbol reading.
 *
 * BPC, LZ, C-Pack and FPC read each symbol with one BitReader::peek
 * wide enough for the longest symbol and then skip() its length. This
 * file keeps reference copies of the decoders that read every field
 * with its own get(), and checks that both return the same verdict,
 * leave the same pos() and overrun(), and, when the verdict is true,
 * produce the same line, on every valid stream of codecTestLines() and
 * on the single-bit flips, truncations and random tails that
 * CodecMutation decodes. BDI decodes each shape with compile-time
 * widths; its reference looks the widths up in a table at run time.
 * The fault model hands corrupted streams to the decoders, so a verdict
 * that moved would move fault-campaign results.
 * Every stream is decoded from a heap buffer of exactly ceil(bits / 8)
 * bytes, so that under the asan-ubsan preset a read past it is an error.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "codec_inputs.h"
#include "compress/factory.h"

using namespace compresso;

namespace {

// ---------------------------------------------------------------------
// Reference decoders: one get() per field.
// ---------------------------------------------------------------------

bool
refBpcBase(BitReader &in, uint32_t &base)
{
    if (in.get(1)) {
        base = uint32_t(in.get(32));
        return !in.overrun();
    }
    switch (unsigned(in.get(2))) {
      case 0:
        base = 0;
        break;
      case 1:
        base = uint32_t(int32_t(in.get(4) << 28) >> 28);
        break;
      case 2:
        base = uint32_t(int32_t(in.get(8) << 24) >> 24);
        break;
      default:
        base = uint32_t(int32_t(in.get(16) << 16) >> 16);
        break;
    }
    return !in.overrun();
}

/** BPC's planes, most significant first, into @p dbp[0, count). */
bool
refBpcPlanes(BitReader &in, uint32_t *dbp, unsigned count, unsigned width)
{
    uint32_t ones = (1u << width) - 1;
    int k = int(count) - 1;
    uint32_t dbp_above = 0;
    while (k >= 0) {
        if (in.get(1)) {
            dbp[k] = uint32_t(in.get(width)) ^ dbp_above;
        } else if (in.get(1)) {
            unsigned run = unsigned(in.get(5)) + 2;
            for (unsigned i = 0; i < run; ++i) {
                if (k < 0)
                    return false;
                dbp[k] = dbp_above;
                --k;
            }
            if (in.overrun())
                return false;
            continue;
        } else if (in.get(1)) {
            dbp[k] = dbp_above;
        } else {
            switch (unsigned(in.get(2))) {
              case 0:
                dbp[k] = ones ^ dbp_above;
                break;
              case 1:
                dbp[k] = 0;
                break;
              case 2:
                dbp[k] = (3u << unsigned(in.get(4))) ^ dbp_above;
                break;
              default:
                dbp[k] = (1u << unsigned(in.get(4))) ^ dbp_above;
                break;
            }
        }
        if (in.overrun())
            return false;
        dbp_above = dbp[k];
        --k;
    }
    return true;
}

bool
refBpc(BitReader &in, Line &out)
{
    bool direct = in.get(1) != 0;
    uint32_t base = 0;
    if (!direct && !refBpcBase(in, base))
        return false;
    uint32_t dbp[33];
    if (!refBpcPlanes(in, dbp, direct ? 32 : 33, direct ? 16 : 15))
        return false;
    // Bit j of plane b is bit b of word j (direct) or of the delta from
    // word j to word j + 1 (transformed); plane 32 is the delta's sign,
    // which a 32-bit sum does not need.
    for (unsigned j = 0; j < 16; ++j) {
        uint32_t v = 0;
        for (unsigned b = 0; b < 32; ++b)
            v |= ((dbp[b] >> j) & 1u) << b;
        setLineWord32(out, j, direct ? v : base);
        base += v;
    }
    return !in.overrun();
}

bool
refLz(BitReader &in, Line &out)
{
    size_t pos = 0;
    while (pos < kLineBytes) {
        if (in.get(1)) {
            unsigned dist = unsigned(in.get(6));
            unsigned len = unsigned(in.get(5)) + 3;
            if (dist == 0 || dist > pos || pos + len > kLineBytes)
                return false;
            for (unsigned i = 0; i < len; ++i, ++pos)
                out[pos] = out[pos - dist];
        } else {
            unsigned n = unsigned(in.get(3)) + 1;
            if (pos + n > kLineBytes)
                return false;
            for (uint64_t bytes = in.get(8 * n); n-- > 0; ++pos)
                out[pos] = uint8_t(bytes >> (8 * n));
        }
        if (in.overrun())
            return false;
    }
    return !in.overrun();
}

bool
refCpack(BitReader &in, Line &out)
{
    uint32_t dict[16] = {};
    unsigned count = 0, head = 0;
    auto push = [&](uint32_t w) {
        dict[head] = w;
        head = (head + 1) % 16;
        count += count < 16;
    };
    for (size_t i = 0; i < 16; ++i) {
        unsigned c2 = unsigned(in.get(2));
        if (in.overrun())
            return false;
        uint32_t w = 0;
        if (c2 == 0b01) {
            unsigned idx = unsigned(in.get(4));
            if (idx >= count)
                return false;
            w = dict[idx];
        } else if (c2 == 0b10) {
            w = uint32_t(in.get(32));
            push(w);
        } else if (c2 == 0b11) {
            unsigned sub = unsigned(in.get(2));
            if (sub == 0b00) {
                w = uint32_t(in.get(8));
            } else if (sub == 0b10) {
                unsigned idx = unsigned(in.get(4));
                if (idx >= count)
                    return false;
                w = (dict[idx] & 0xffffff00u) | uint32_t(in.get(8));
            } else if (sub == 0b01) {
                unsigned idx = unsigned(in.get(4));
                if (idx >= count)
                    return false;
                w = (dict[idx] & 0xffff0000u) | uint32_t(in.get(16));
            } else {
                return false;
            }
            push(w);
        }
        setLineWord32(out, i, w);
    }
    return !in.overrun();
}

bool
refFpc(BitReader &in, Line &out)
{
    size_t i = 0;
    while (i < 16) {
        unsigned prefix = unsigned(in.get(3));
        if (in.overrun())
            return false;
        uint32_t w;
        switch (prefix) {
          case 0b000: {
            unsigned run = unsigned(in.get(3)) + 1;
            if (i + run > 16)
                return false;
            for (unsigned j = 0; j < run; ++j)
                setLineWord32(out, i + j, 0);
            i += run;
            continue;
          }
          case 0b001:
            w = uint32_t(int32_t(in.get(4) << 28) >> 28);
            break;
          case 0b010:
            w = uint32_t(int32_t(in.get(8) << 24) >> 24);
            break;
          case 0b011:
            w = uint32_t(int32_t(in.get(16) << 16) >> 16);
            break;
          case 0b100:
            w = uint32_t(in.get(16)) << 16;
            break;
          case 0b101: {
            uint32_t hi = uint32_t(int32_t(in.get(8) << 24) >> 24) & 0xffff;
            uint32_t lo = uint32_t(int32_t(in.get(8) << 24) >> 24) & 0xffff;
            w = (hi << 16) | lo;
            break;
          }
          case 0b110:
            w = uint32_t(in.get(8)) * 0x01010101u;
            break;
          default:
            w = uint32_t(in.get(32));
            break;
        }
        setLineWord32(out, i, w);
        ++i;
    }
    return !in.overrun();
}

/** BDI with the element and delta widths looked up in a table at run
 *  time, and the deltas read in the 64-bit groups the encoder puts. */
bool
refBdi(BitReader &in, Line &out)
{
    // {selector, base bytes, delta bytes} of each (base, delta) shape.
    constexpr unsigned kShapes[][3] = {{2, 8, 1}, {5, 4, 1}, {3, 8, 2},
                                       {7, 2, 1}, {6, 4, 2}, {4, 8, 4}};
    auto signExtend = [](uint64_t v, unsigned nbytes) {
        unsigned shift = 64 - nbytes * 8;
        return int64_t(v << shift) >> shift;
    };
    unsigned sel = unsigned(in.get(4));
    if (in.overrun())
        return false;
    if (sel == 0) {
        out.fill(0);
        return true;
    }
    if (sel == 1) {
        uint64_t v = in.get(64);
        for (size_t i = 0; i < 8; ++i)
            setLineWord64(out, i, v);
        return !in.overrun();
    }
    if (sel == 15) {
        for (size_t i = 0; i < 8; ++i)
            setLineWord64(out, i, in.get(64));
        return !in.overrun();
    }
    const unsigned *sh = nullptr;
    for (const auto &s : kShapes)
        if (s[0] == sel)
            sh = s;
    if (!sh)
        return false;
    unsigned b = sh[1], d = sh[2], n = unsigned(kLineBytes / b);
    uint64_t base = in.get(b * 8);
    uint32_t mask = uint32_t(in.get(n)); // element 0 in the MSB
    unsigned width = d * 8;
    for (unsigned i = 0; i < n;) {
        uint64_t packed = in.get(64);
        for (unsigned left = 64; left > 0; left -= width, ++i) {
            uint64_t v = uint64_t(signExtend(packed >> (left - width), d));
            if (!((mask >> (n - 1 - i)) & 1))
                v += base;
            std::memcpy(out.data() + i * b, &v, b); // little-endian host
        }
    }
    return !in.overrun();
}

using RefDecoder = bool (*)(BitReader &, Line &);

struct Case
{
    const char *codec;
    RefDecoder ref;
};

// Print the codec name, so the test names carry no load address.
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << '"' << c.codec << '"';
}

const Case kCases[] = {
    {"bpc", refBpc},     {"bpc-xform", refBpc}, {"lz", refLz},
    {"cpack", refCpack}, {"fpc", refFpc},       {"bdi", refBdi},
};

class DecoderDifferential : public ::testing::TestWithParam<Case>
{
  protected:
    void
    SetUp() override
    {
        codec_ = makeCompressor(GetParam().codec);
        ASSERT_TRUE(codec_);
        streams_ = codecTestStreams(*codec_);
    }

    /** Decode the first @p bits of @p bytes with both decoders, each
     *  from its own exact-size copy, and compare what they leave. */
    void
    expectSame(const std::vector<uint8_t> &bytes, size_t bits) const
    {
        size_t n = (bits + 7) / 8;
        std::vector<uint8_t> a(bytes.begin(), bytes.begin() + ptrdiff_t(n));
        std::vector<uint8_t> b = a;
        BitReader ra(a.data(), bits), rb(b.data(), bits);
        Line got{}, want{};
        bool ok = codec_->decompress(ra, got);
        bool ref_ok = GetParam().ref(rb, want);
        ASSERT_EQ(ok, ref_ok) << "bits " << bits;
        ASSERT_EQ(ra.pos(), rb.pos()) << "bits " << bits;
        ASSERT_EQ(ra.overrun(), rb.overrun()) << "bits " << bits;
        if (ok) {
            ASSERT_EQ(got, want) << "bits " << bits;
        }
    }

    std::unique_ptr<Compressor> codec_;
    std::vector<CodecStream> streams_;
};

TEST_P(DecoderDifferential, ValidStreams)
{
    for (const CodecStream &s : streams_)
        ASSERT_NO_FATAL_FAILURE(expectSame(s.bytes, s.bits));
}

TEST_P(DecoderDifferential, SingleBitFlips)
{
    for (const CodecStream &s : streams_) {
        std::vector<uint8_t> b = s.bytes;
        for (size_t bit = 0; bit < s.bits; ++bit) {
            flipBit(b, bit);
            ASSERT_NO_FATAL_FAILURE(expectSame(b, s.bits)) << "flip " << bit;
            flipBit(b, bit);
        }
    }
}

TEST_P(DecoderDifferential, Truncations)
{
    for (const CodecStream &s : streams_)
        for (size_t bits = 0; bits < s.bits; ++bits)
            ASSERT_NO_FATAL_FAILURE(expectSame(s.bytes, bits));
}

TEST_P(DecoderDifferential, RandomTails)
{
    // CodecMutation.RandomTails' seed, so these are its streams.
    Rng rng(0x7a11);
    for (const CodecStream &s : streams_) {
        for (int i = 0; i < 16; ++i) {
            CodecStream t = randomTail(rng, s);
            ASSERT_NO_FATAL_FAILURE(expectSame(t.bytes, t.bits));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BitSerial, DecoderDifferential,
                         ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             std::string n = info.param.codec;
                             for (auto &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

} // namespace
