#include "compress/bpc.h"

#include <algorithm>
#include <bit>

#include "prof/profiler.h"

namespace compresso {

namespace {

constexpr unsigned kXformPlanes = 33;  // 33-bit deltas
constexpr unsigned kXformWidth = 15;   // 15 deltas
constexpr unsigned kDirectPlanes = 32; // 32-bit words
constexpr unsigned kDirectWidth = 16;  // 16 words

/** One mode's DBP planes; the plane at index count is zero, so DBX
 *  plane k is dbp[k] ^ dbp[k + 1] for every k < count. */
struct Planes
{
    uint32_t dbp[kXformPlanes + 1];
    unsigned count;
    unsigned width;
};

/**
 * One Hacker's Delight (Sec. 7-3) transpose round on 16 rows: swap the
 * off-diagonal S x S blocks of every 2S x 2S block, M selecting the low
 * S bits of each 2S-bit group in all four 16-bit lanes of a row.
 */
template <unsigned S, uint64_t M>
void
transposeRound(uint64_t a[16])
{
    for (unsigned k = 0; k < 16; k += 2 * S) {
        for (unsigned i = k; i < k + S; ++i) {
            uint64_t t = ((a[i] >> S) ^ a[i + S]) & M;
            a[i] ^= t << S;
            a[i + S] ^= t;
        }
    }
}

/**
 * Transpose the four 16 x 16 bit matrices held in the 16-bit lanes of
 * 16 rows, side by side (bit 0 is column 0): afterwards bit j of lane
 * l of a[k] is what bit k of lane l of a[j] was. Its own inverse.
 */
void
transposeLanes(uint64_t a[16])
{
    transposeRound<8, 0x00ff00ff00ff00ffull>(a);
    transposeRound<4, 0x0f0f0f0f0f0f0f0full>(a);
    transposeRound<2, 0x3333333333333333ull>(a);
    transposeRound<1, 0x5555555555555555ull>(a);
}

/**
 * The DBP planes of both modes from one transpose of the rows
 * delta_j | word_j << 32 (delta_15 = 0): lanes 0..3 of row k hold
 * transformed planes k and k + 16 and direct planes k and k + 16.
 * The transformed mode's plane 32, the signs of the 33-bit deltas, is
 * kept apart.
 */
struct LinePlanes
{
    uint64_t row[16];
    uint32_t sign;
    uint32_t base;
};

LinePlanes
buildPlanes(const Line &line)
{
    LinePlanes lp;
    uint32_t words[16];
    for (size_t i = 0; i < 16; ++i)
        words[i] = lineWord32(line, i);
    lp.sign = 0;
    for (unsigned j = 0; j < 16; ++j) {
        uint32_t delta = 0;
        if (j < kXformWidth) {
            delta = words[j + 1] - words[j];
            lp.sign |= uint32_t(words[j + 1] < words[j]) << j;
        }
        lp.row[j] = delta | uint64_t(words[j]) << 32;
    }
    transposeLanes(lp.row);
    lp.base = words[0];
    return lp;
}

/** One mode's planes, taken from the shared rows. */
Planes
modePlanes(const LinePlanes &lp, bool direct)
{
    Planes p;
    unsigned shift = direct ? 32 : 0;
    for (unsigned k = 0; k < 16; ++k) {
        p.dbp[k] = uint32_t(lp.row[k] >> shift) & 0xffffu;
        p.dbp[k + 16] = uint32_t(lp.row[k] >> (shift + 16)) & 0xffffu;
    }
    p.count = direct ? kDirectPlanes : kXformPlanes;
    p.width = direct ? kDirectWidth : kXformWidth;
    p.dbp[32] = direct ? 0 : lp.sign;
    p.dbp[33] = 0;
    return p;
}

/** Value width of the base word's small-magnitude code: 000 for zero,
 *  001/010/011 + a 4/8/16-bit two's complement, else 1 + 32 bits. */
unsigned
baseWidth(uint32_t base)
{
    int32_t s = int32_t(base);
    if (base == 0)
        return 0;
    if (s >= -8 && s < 8)
        return 4;
    if (s >= -128 && s < 128)
        return 8;
    return s >= -32768 && s < 32768 ? 16 : 32;
}

void
encodeBase(uint32_t base, BitWriter &out)
{
    unsigned w = baseWidth(base);
    if (w == 32) {
        out.put(1, 1);
        out.put(base, 32);
        return;
    }
    out.put(w == 0 ? 0 : unsigned(std::countr_zero(w)) - 1, 3);
    out.put(base, w);
}

bool
decodeBase(BitReader &in, uint32_t &base)
{
    // One peek covers the longest code, 1 + 32 bits.
    uint64_t w = in.peek(33);
    if (w >> 32) {
        base = uint32_t(w);
        in.skip(33);
    } else {
        // 0 + sel(2): zero, or a 4/8/16-bit two's complement value.
        unsigned sel = unsigned(w >> 30) & 3;
        unsigned width = sel == 0 ? 0 : 2u << sel;
        // The value's top bit is w's bit 29; shift it to bit 31.
        base = sel == 0 ? 0
                        : uint32_t(int32_t(uint32_t(w << 2)) >> (32 - width));
        in.skip(3 + width);
    }
    return !in.overrun();
}

/** Encode planes MSB-plane first; see the symbol table in bpc.h. */
void
encodePlanes(const Planes &p, BitWriter &out)
{
    uint32_t ones = (1u << p.width) - 1;
    int k = int(p.count) - 1;
    while (k >= 0) {
        uint32_t x = p.dbp[k] ^ p.dbp[k + 1];
        if (x == 0) {
            // Count the zero-DBX run downward.
            unsigned run = 1;
            while (int(k) - int(run) >= 0 &&
                   p.dbp[k - run] == p.dbp[k - run + 1] && run < 33) {
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
        // rest: the plane without its lowest one.
        uint32_t rest = x & (x - 1);
        if (x == ones) {
            out.put(0b00000, 5);
        } else if (p.dbp[k] == 0) {
            out.put(0b00001, 5);
        } else if (rest == (x & -x) << 1) {
            out.put(0b00010, 5); // two consecutive ones
            out.put(unsigned(std::countr_zero(x)), 4);
        } else if (rest == 0) {
            out.put(0b00011, 5); // a single one
            out.put(unsigned(std::countr_zero(x)), 4);
        } else {
            out.put(1, 1);
            out.put(x, p.width);
        }
        --k;
    }
}

/** Bit 0, and bit 15, of each 16-bit lane of a row. */
constexpr uint64_t kLaneBit0 = 0x0001000100010001ull;
constexpr uint64_t kLaneTop = kLaneBit0 << 15;

/** Bit 15 of each 16-bit lane of @p x set iff that lane is non-zero. */
uint64_t
laneNonZero(uint64_t x)
{
    return (((x & ~kLaneTop) + ~kLaneTop) | x) & kLaneTop;
}

/** Stream sizes of both modes, mode bit included. */
struct ModeBits
{
    size_t xf, dp;
};

/**
 * What encodePlanes would write for both modes, four planes per step:
 * the DBX planes of row k are row[k] ^ row[k + 1], and each symbol
 * class is counted per lane, in bit 15 of its lane. A zero plane costs
 * 7 bits if it starts a run (the plane above it is non-zero or absent)
 * and 3 if that run is one plane long; run neighbours cross the plane
 * 15/16 and 31/32 boundaries. The transformed plane 32 is sized on its
 * own.
 */
ModeBits
sizeModes(const LinePlanes &lp)
{
    // All-ones DBX planes are 15 bits wide in the transformed lanes 0
    // and 1 and 16 in the direct lanes 2 and 3, where a verbatim plane
    // takes one bit more. Lanes 0 and 2 of row 15 continue in lanes 1
    // and 3 of row 0.
    constexpr uint64_t kOnes = 0xffffffff7fff7fffull;
    constexpr uint64_t kDirectLanes = 0xffffffff00000000ull;
    constexpr uint64_t kLowLanes = 0x0000ffff0000ffffull;
    uint64_t zero[16], lanes = 0; // per-lane bit counts
    for (unsigned k = 0; k < 16; ++k) {
        uint64_t above = k < 15 ? lp.row[k + 1]
                                : ((lp.row[0] >> 16) & kLowLanes) |
                                      uint64_t(lp.sign) << 16;
        uint64_t x = lp.row[k] ^ above;
        uint64_t nz = laneNonZero(x);
        uint64_t low = x & (((~x & ~kLaneTop) + kLaneBit0) ^ (~x & kLaneTop));
        uint64_t rest = x ^ low;
        // All ones or DBP == 0: 5 bits; one or two adjacent ones: 9.
        uint64_t c5 = nz & ~(laneNonZero(x ^ kOnes) & laneNonZero(lp.row[k]));
        uint64_t c9 = nz & ~c5 &
                      ~(laneNonZero(rest) &
                        laneNonZero(rest ^ ((low << 1) & ~kLaneBit0)));
        uint64_t verb = (nz & ~c5 & ~c9) >> 15;
        lanes += 5 * (c5 >> 15) + 9 * (c9 >> 15) + 16 * verb +
                 (verb & kDirectLanes);
        zero[k] = nz ^ kLaneTop;
    }
    for (unsigned k = 0; k < 16; ++k) {
        uint64_t up = k < 15 ? zero[k + 1]
                             : ((zero[0] >> 16) & kLowLanes) |
                                   uint64_t(lp.sign == 0) << 31;
        uint64_t down = k > 0 ? zero[k - 1] : (zero[15] << 16) & ~kLowLanes;
        uint64_t start = zero[k] & ~up;
        lanes += 7 * (start >> 15) - 4 * ((start & ~down) >> 15);
    }

    // Plane 32, where DBX == DBP.
    uint32_t s = lp.sign, rest = s & (s - 1);
    size_t top = s == 0 ? (zero[15] >> 31 & 1 ? 7 : 3)
                 : s == (1u << kXformWidth) - 1       ? 5
                 : rest == 0 || rest == (s & -s) << 1 ? 9
                                                      : 1 + kXformWidth;
    unsigned base = baseWidth(lp.base);
    return {1 + (base == 32 ? 33 : 3 + base) + top + (lanes & 0xffff) +
                (lanes >> 16 & 0xffff),
            1 + (lanes >> 32 & 0xffff) + (lanes >> 48)};
}

/**
 * Decode planes, reconstructing DBP top-down. Each symbol is classified
 * from one 17-bit peek, which covers the longest (1 + 16 bits): bit 16
 * is the symbol's first bit.
 */
bool
decodePlanes(BitReader &in, Planes &p)
{
    uint32_t ones = (1u << p.width) - 1;
    int k = int(p.count) - 1;
    uint32_t dbp_above = 0;
    while (k >= 0) {
        uint32_t w = uint32_t(in.peek(17));
        if (w >> 16) {
            // Verbatim DBX plane.
            p.dbp[k] = ((w >> (16 - p.width)) & ones) ^ dbp_above;
            in.skip(1 + p.width);
        } else if (w >> 15) {
            // '01': zero-DBX run.
            unsigned run = ((w >> 10) & 31) + 2;
            in.skip(7);
            if (run > unsigned(k) + 1)
                return false;
            for (unsigned i = 0; i < run; ++i, --k)
                p.dbp[k] = dbp_above; // DBX == 0
            if (in.overrun())
                return false;
            continue;
        } else if (w >> 14) {
            // '001': single zero-DBX plane.
            p.dbp[k] = dbp_above;
            in.skip(3);
        } else {
            // '000xx' family; the 4-bit position follows xx.
            unsigned pos = (w >> 8) & 15;
            switch ((w >> 12) & 3) {
              case 0: // all ones
                p.dbp[k] = ones ^ dbp_above;
                in.skip(5);
                break;
              case 1: // DBP == 0
                p.dbp[k] = 0;
                in.skip(5);
                break;
              case 2: // two consecutive ones
                p.dbp[k] = (3u << pos) ^ dbp_above;
                in.skip(9);
                break;
              default: // single one
                p.dbp[k] = (1u << pos) ^ dbp_above;
                in.skip(9);
                break;
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
    return sizeModes(buildPlanes(line)).xf;
}

size_t
BpcCompressor::directBits(const Line &line) const
{
    return sizeModes(buildPlanes(line)).dp;
}

size_t
BpcCompressor::compressedBits(const Line &line) const
{
    CPR_PROF_SCOPE(ProfPhase::kBpcCompress);
    ModeBits bits = sizeModes(buildPlanes(line));
    return adaptive_ ? std::min(bits.xf, bits.dp) : bits.xf;
}

size_t
BpcCompressor::compress(const Line &line, BitWriter &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kBpcCompress);
    size_t start = out.bitSize();
    LinePlanes lp = buildPlanes(line);
    // Size both modes, then encode only the winner (the transformed
    // one on a tie).
    bool direct = false;
    if (adaptive_) {
        ModeBits bits = sizeModes(lp);
        direct = bits.dp < bits.xf;
    }
    out.put(direct, 1);
    if (!direct)
        encodeBase(lp.base, out);
    encodePlanes(modePlanes(lp, direct), out);
    return out.bitSize() - start;
}

bool
BpcCompressor::decompress(BitReader &in, Line &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kBpcDecompress);
    bool direct = in.get(1) != 0;
    uint32_t base = 0;
    if (!direct && !decodeBase(in, base))
        return false;
    Planes p;
    p.count = direct ? kDirectPlanes : kXformPlanes;
    p.width = direct ? kDirectWidth : kXformWidth;
    if (!decodePlanes(in, p))
        return false;

    // The inverse of buildPlanes, with the direct half empty: bits 16..31
    // of a decoded plane are ignored.
    uint64_t rows[16];
    for (unsigned k = 0; k < 16; ++k)
        rows[k] = (p.dbp[k] & 0xffffu) | (p.dbp[k + 16] & 0xffffu) << 16;
    transposeLanes(rows);
    // Transformed words are the base plus a running sum of the deltas.
    // Adding the sign-extended 33-bit delta wraps to the same 32-bit
    // word as adding its low 32 bits, so plane 32 is not needed.
    for (unsigned j = 0; j < 16; ++j) {
        setLineWord32(out, j, direct ? uint32_t(rows[j]) : base);
        base += uint32_t(rows[j]);
    }
    return !in.overrun();
}

} // namespace compresso
