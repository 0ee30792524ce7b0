#include "compress/fpc.h"

#include "prof/profiler.h"

namespace compresso {

namespace {

bool
fitsSigned32(int32_t v, unsigned bits)
{
    int32_t lo = -(int32_t(1) << (bits - 1));
    int32_t hi = (int32_t(1) << (bits - 1)) - 1;
    return v >= lo && v <= hi;
}

/** The top @p bits of @p v as a signed value, sign-extended to 32
 *  bits. */
uint32_t
topSigned(uint32_t v, unsigned bits)
{
    return uint32_t(int32_t(v) >> (32 - bits));
}

} // namespace

size_t
FpcCompressor::compress(const Line &line, BitWriter &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kFpcCompress);
    size_t start = out.bitSize();
    size_t i = 0;
    while (i < 16) {
        uint32_t w = lineWord32(line, i);
        if (w == 0) {
            // Zero run, up to 8 words.
            unsigned run = 1;
            while (i + run < 16 && run < 8 && lineWord32(line, i + run) == 0)
                ++run;
            out.put(0b000, 3);
            out.put(run - 1, 3);
            i += run;
            continue;
        }
        int32_t s = int32_t(w);
        uint16_t lo16 = uint16_t(w);
        uint16_t hi16 = uint16_t(w >> 16);
        if (fitsSigned32(s, 4)) {
            out.put(0b001, 3);
            out.put(w & 0xf, 4);
        } else if (fitsSigned32(s, 8)) {
            out.put(0b010, 3);
            out.put(w & 0xff, 8);
        } else if (fitsSigned32(s, 16)) {
            out.put(0b011, 3);
            out.put(w & 0xffff, 16);
        } else if (lo16 == 0) {
            // Halfword padded with zeros (value in upper half).
            out.put(0b100, 3);
            out.put(hi16, 16);
        } else if (fitsSigned32(int16_t(lo16), 8) &&
                   fitsSigned32(int16_t(hi16), 8)) {
            out.put(0b101, 3);
            out.put(hi16 & 0xff, 8);
            out.put(lo16 & 0xff, 8);
        } else if (((w & 0xff) * 0x01010101u) == w) {
            out.put(0b110, 3);
            out.put(w & 0xff, 8);
        } else {
            out.put(0b111, 3);
            out.put(w, 32);
        }
        ++i;
    }
    return out.bitSize() - start;
}

bool
FpcCompressor::decompress(BitReader &in, Line &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kFpcDecompress);
    size_t i = 0;
    while (i < 16) {
        // One peek covers the 3-bit prefix and the longest payload (32
        // bits): the prefix is t's bits 34..32, the payload's top bit
        // bit 31.
        uint64_t t = in.peek(35);
        in.skip(3);
        if (in.overrun())
            return false;
        uint32_t p = uint32_t(t), w;
        switch (unsigned(t >> 32)) {
          case 0b000: {
            unsigned run = (p >> 29) + 1;
            in.skip(3);
            if (i + run > 16)
                return false;
            for (unsigned j = 0; j < run; ++j)
                setLineWord32(out, i + j, 0);
            i += run;
            continue;
          }
          case 0b001:
            w = topSigned(p, 4);
            in.skip(4);
            break;
          case 0b010:
            w = topSigned(p, 8);
            in.skip(8);
            break;
          case 0b011:
            w = topSigned(p, 16);
            in.skip(16);
            break;
          case 0b100:
            w = p & 0xffff0000u;
            in.skip(16);
            break;
          case 0b101:
            w = (topSigned(p, 8) << 16) | (topSigned(p << 8, 8) & 0xffff);
            in.skip(16);
            break;
          case 0b110:
            w = (p >> 24) * 0x01010101u;
            in.skip(8);
            break;
          default:
            w = p;
            in.skip(32);
            break;
        }
        setLineWord32(out, i, w);
        ++i;
    }
    return !in.overrun();
}

} // namespace compresso
