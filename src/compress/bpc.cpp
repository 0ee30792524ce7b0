#include "compress/bpc.h"

#include <algorithm>

#include "prof/profiler.h"

namespace compresso {

namespace {

constexpr unsigned kXformPlanes = 33;  // 33-bit deltas
constexpr unsigned kXformWidth = 15;   // 15 deltas
constexpr unsigned kDirectPlanes = 32; // 32-bit words
constexpr unsigned kDirectWidth = 16;  // 16 words

/** Bit-planes before (dbp) and after (dbx) the XOR chain. */
struct Planes
{
    uint32_t dbp[kXformPlanes];
    uint32_t dbx[kXformPlanes];
    unsigned count;
    unsigned width;
};

/**
 * One Hacker's Delight (Sec. 7-3) transpose round on 16 rows: swap the
 * off-diagonal S x S blocks of every 2S x 2S block, M selecting the low
 * S bits of each 2S-bit group in both 16-bit halves of a word.
 */
template <unsigned S, uint32_t M>
void
transposeRound(uint32_t a[16])
{
    for (unsigned k = 0; k < 16; k += 2 * S) {
        for (unsigned i = k; i < k + S; ++i) {
            uint32_t t = ((a[i] >> S) ^ a[i + S]) & M;
            a[i] ^= t << S;
            a[i + S] ^= t;
        }
    }
}

/**
 * Transpose the low and the high 16 x 16 bit matrices held in the two
 * halves of 16 words, side by side (bit 0 is column 0): afterwards bit
 * j of half h of a[k] is what bit k of half h of a[j] was. Its own
 * inverse.
 */
void
transposeHalves(uint32_t a[16])
{
    transposeRound<8, 0x00ff00ffu>(a);
    transposeRound<4, 0x0f0f0f0fu>(a);
    transposeRound<2, 0x33333333u>(a);
    transposeRound<1, 0x55555555u>(a);
}

/** The 32 bit-planes of 16 words: bit j of plane k is bit k of
 *  rows[j]. Clobbers @p rows. */
void
toPlanes(uint32_t rows[16], uint32_t planes[32])
{
    transposeHalves(rows);
    for (unsigned k = 0; k < 16; ++k) {
        planes[k] = rows[k] & 0xffffu;
        planes[k + 16] = rows[k] >> 16;
    }
}

/** Inverse of toPlanes; bits 16..31 of each plane are ignored. */
void
fromPlanes(const uint32_t planes[32], uint32_t rows[16])
{
    for (unsigned k = 0; k < 16; ++k)
        rows[k] = (planes[k] & 0xffffu) | (planes[k + 16] << 16);
    transposeHalves(rows);
}

/** Fill dbx[k] = dbp[k] ^ dbp[k + 1], with an implicit zero plane above
 *  the MSB plane. */
void
xorChain(Planes &p)
{
    for (unsigned k = 0; k + 1 < p.count; ++k)
        p.dbx[k] = p.dbp[k] ^ p.dbp[k + 1];
    p.dbx[p.count - 1] = p.dbp[p.count - 1];
}

/** Build the Delta-BitPlane planes from a line; returns the base word. */
uint32_t
buildTransformed(const Line &line, Planes &p)
{
    uint32_t words[16];
    for (size_t i = 0; i < 16; ++i)
        words[i] = lineWord32(line, i);

    // 33-bit two's-complement deltas between adjacent words: their low
    // 32 bits transpose into planes 0..31, and bit 32, the sign of the
    // difference, is gathered into plane 32.
    uint32_t rows[16] = {};
    uint32_t sign = 0;
    for (unsigned j = 0; j < kXformWidth; ++j) {
        rows[j] = words[j + 1] - words[j];
        sign |= uint32_t(words[j + 1] < words[j]) << j;
    }
    p.count = kXformPlanes;
    p.width = kXformWidth;
    toPlanes(rows, p.dbp);
    p.dbp[32] = sign;
    xorChain(p);
    return words[0];
}

/** Invert buildTransformed: planes + base -> line. */
void
unbuildTransformed(const Planes &p, uint32_t base, Line &line)
{
    // Adding the sign-extended 33-bit delta wraps to the same 32-bit
    // word as adding its low 32 bits, so plane 32 is not needed.
    uint32_t deltas[16];
    fromPlanes(p.dbp, deltas);
    uint32_t w = base;
    setLineWord32(line, 0, w);
    for (unsigned j = 0; j < kXformWidth; ++j) {
        w += deltas[j];
        setLineWord32(line, j + 1, w);
    }
}

/** Build raw-word bit-planes (direct mode: no delta transform). */
void
buildDirect(const Line &line, Planes &p)
{
    uint32_t rows[kDirectWidth];
    for (size_t i = 0; i < kDirectWidth; ++i)
        rows[i] = lineWord32(line, i);
    p.count = kDirectPlanes;
    p.width = kDirectWidth;
    toPlanes(rows, p.dbp);
    xorChain(p);
}

void
unbuildDirect(const Planes &p, Line &line)
{
    uint32_t words[kDirectWidth];
    fromPlanes(p.dbp, words);
    for (unsigned j = 0; j < kDirectWidth; ++j)
        setLineWord32(line, j, words[j]);
}

/** Encode the base word with a small-magnitude code. */
template <class Sink>
void
encodeBase(uint32_t base, Sink &out)
{
    int32_t s = int32_t(base);
    if (base == 0) {
        out.put(0b000, 3);
    } else if (s >= -8 && s < 8) {
        out.put(0b001, 3);
        out.put(uint32_t(s) & 0xf, 4);
    } else if (s >= -128 && s < 128) {
        out.put(0b010, 3);
        out.put(uint32_t(s) & 0xff, 8);
    } else if (s >= -32768 && s < 32768) {
        out.put(0b011, 3);
        out.put(uint32_t(s) & 0xffff, 16);
    } else {
        out.put(1, 1);
        out.put(base, 32);
    }
}

bool
decodeBase(BitReader &in, uint32_t &base)
{
    if (in.get(1)) {
        base = uint32_t(in.get(32));
        return !in.overrun();
    }
    unsigned sel = unsigned(in.get(2));
    switch (sel) {
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

/** True iff @p v has exactly the bits p and p+1 set for some p. */
bool
isTwoConsecutiveOnes(uint32_t v, unsigned &pos)
{
    if (v == 0 || (v & (v - 1)) == 0)
        return false;
    unsigned p = unsigned(__builtin_ctz(v));
    if (v == (3u << p)) {
        pos = p;
        return true;
    }
    return false;
}

/** Encode planes MSB-plane first; see the symbol table in bpc.h. */
template <class Sink>
void
encodePlanes(const Planes &p, Sink &out)
{
    uint32_t ones = (1u << p.width) - 1;
    int k = int(p.count) - 1;
    while (k >= 0) {
        if (p.dbx[k] == 0) {
            // Count the zero-DBX run downward.
            unsigned run = 1;
            while (int(k) - int(run) >= 0 && p.dbx[k - run] == 0 &&
                   run < 33) {
                ++run;
            }
            if (run >= 2) {
                out.put(0b01, 2);
                out.put(run - 2, 5);
            } else {
                out.put(0b001, 3);
            }
            k -= int(run);
            continue;
        }
        unsigned pos = 0;
        if (p.dbx[k] == ones) {
            out.put(0b00000, 5);
        } else if (p.dbp[k] == 0) {
            out.put(0b00001, 5);
        } else if (isTwoConsecutiveOnes(p.dbx[k], pos)) {
            out.put(0b00010, 5);
            out.put(pos, 4);
        } else if ((p.dbx[k] & (p.dbx[k] - 1)) == 0) {
            out.put(0b00011, 5);
            out.put(unsigned(__builtin_ctz(p.dbx[k])), 4);
        } else {
            out.put(1, 1);
            out.put(p.dbx[k], p.width);
        }
        --k;
    }
}

/** Decode planes, reconstructing DBP top-down. */
bool
decodePlanes(BitReader &in, Planes &p)
{
    uint32_t ones = (1u << p.width) - 1;
    int k = int(p.count) - 1;
    uint32_t dbp_above = 0;
    while (k >= 0) {
        if (in.get(1)) {
            // Verbatim DBX plane.
            uint32_t dbx = uint32_t(in.get(p.width));
            p.dbp[k] = dbx ^ dbp_above;
        } else if (in.get(1)) {
            // '01': zero-DBX run.
            unsigned run = unsigned(in.get(5)) + 2;
            for (unsigned i = 0; i < run; ++i) {
                if (k < 0)
                    return false;
                p.dbp[k] = dbp_above; // DBX == 0
                dbp_above = p.dbp[k];
                --k;
            }
            if (in.overrun())
                return false;
            continue;
        } else if (in.get(1)) {
            // '001': single zero-DBX plane.
            p.dbp[k] = dbp_above;
        } else {
            // '000xx' family.
            unsigned sel = unsigned(in.get(2));
            switch (sel) {
              case 0: // all ones
                p.dbp[k] = ones ^ dbp_above;
                break;
              case 1: // DBP == 0
                p.dbp[k] = 0;
                break;
              case 2: { // two consecutive ones
                unsigned pos = unsigned(in.get(4));
                p.dbp[k] = (3u << pos) ^ dbp_above;
                break;
              }
              default: { // single one
                unsigned pos = unsigned(in.get(4));
                p.dbp[k] = (1u << pos) ^ dbp_above;
                break;
              }
            }
        }
        if (in.overrun())
            return false;
        dbp_above = p.dbp[k];
        --k;
    }
    return true;
}

} // namespace

size_t
BpcCompressor::transformedBits(const Line &line) const
{
    Planes p;
    uint32_t base = buildTransformed(line, p);
    BitCounter c;
    c.put(0, 1); // mode bit
    encodeBase(base, c);
    encodePlanes(p, c);
    return c.bitSize();
}

size_t
BpcCompressor::directBits(const Line &line) const
{
    Planes p;
    buildDirect(line, p);
    BitCounter c;
    c.put(1, 1); // mode bit
    encodePlanes(p, c);
    return c.bitSize();
}

size_t
BpcCompressor::compressedBits(const Line &line) const
{
    CPR_PROF_SCOPE(ProfPhase::kBpcCompress);
    size_t bits = transformedBits(line);
    return adaptive_ ? std::min(bits, directBits(line)) : bits;
}

size_t
BpcCompressor::compress(const Line &line, BitWriter &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kBpcCompress);
    size_t start = out.bitSize();

    Planes xf;
    uint32_t base = buildTransformed(line, xf);
    if (adaptive_) {
        // Size both modes, then encode only the winner (the transformed
        // one on a tie).
        Planes dp;
        buildDirect(line, dp);
        BitCounter xc, dc;
        encodeBase(base, xc);
        encodePlanes(xf, xc);
        encodePlanes(dp, dc);
        if (dc.bitSize() < xc.bitSize()) {
            out.put(1, 1);
            encodePlanes(dp, out);
            return out.bitSize() - start;
        }
    }
    out.put(0, 1);
    encodeBase(base, out);
    encodePlanes(xf, out);
    return out.bitSize() - start;
}

bool
BpcCompressor::decompress(BitReader &in, Line &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kBpcDecompress);
    bool direct = in.get(1) != 0;
    Planes p;
    if (direct) {
        p.count = kDirectPlanes;
        p.width = kDirectWidth;
        if (!decodePlanes(in, p))
            return false;
        unbuildDirect(p, out);
    } else {
        uint32_t base;
        if (!decodeBase(in, base))
            return false;
        p.count = kXformPlanes;
        p.width = kXformWidth;
        if (!decodePlanes(in, p))
            return false;
        unbuildTransformed(p, base, out);
    }
    return !in.overrun();
}

} // namespace compresso
