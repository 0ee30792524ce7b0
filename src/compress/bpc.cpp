#include "compress/bpc.h"

#include <algorithm>
#include <bit>
#include <cstring>

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

// 128-bit vectors (GCC/Clang vector extensions): two 64-bit rows,
// four 32-bit words or eight 16-bit plane lanes. A comparison yields
// a signed vector of the same lane width, all ones where it holds.
using U64x2 = uint64_t __attribute__((vector_size(16)));
using U32x4 = uint32_t __attribute__((vector_size(16)));
using U16x8 = uint16_t __attribute__((vector_size(16)));
using I16x8 = int16_t __attribute__((vector_size(16)));

/**
 * One Hacker's Delight (Sec. 7-3) transpose step on rows a and b, S
 * rows apart: swap the off-diagonal S x S blocks, @p m selecting the
 * low S bits of each 2S-bit group in all four 16-bit lanes of a row.
 */
void
swapBlocks(U64x2 &a, U64x2 &b, unsigned s, uint64_t m)
{
    U64x2 t = ((a >> s) ^ b) & m;
    a ^= t << s;
    b ^= t;
}

/**
 * Transpose the four 16 x 16 bit matrices held in the 16-bit lanes of
 * 16 rows, side by side (bit 0 is column 0), two rows per vector:
 * afterwards bit j of lane l of row k is what bit k of lane l of row j
 * was. Its own inverse.
 */
void
transposeLanes(U64x2 v[8])
{
    // Rounds S = 8, 4 and 2 pair row i with row i + S, that is vector
    // j with vector j + S / 2.
    for (unsigned j = 0; j < 4; ++j)
        swapBlocks(v[j], v[j + 4], 8, 0x00ff00ff00ff00ffull);
    for (unsigned j : {0u, 1u, 4u, 5u})
        swapBlocks(v[j], v[j + 2], 4, 0x0f0f0f0f0f0f0f0full);
    for (unsigned j = 0; j < 8; j += 2)
        swapBlocks(v[j], v[j + 1], 2, 0x3333333333333333ull);
    // Round S = 1 pairs the two rows of a vector: the low row's t,
    // taken against the swapped halves, goes back shifted into the low
    // row and as is into the high one.
    for (unsigned j = 0; j < 8; ++j) {
        U64x2 t = ((v[j] >> 1) ^ __builtin_shufflevector(v[j], v[j], 1, 0)) &
                  0x5555555555555555ull;
        v[j] ^= __builtin_shufflevector(t << 1, t, 0, 2);
    }
}

/**
 * The DBP planes of both modes from one transpose of the rows
 * delta_j | word_j << 32 (delta_15 = 0), as 16-bit lanes, rows 2j and
 * 2j + 1 in row[j]: lane 4k + l of the rows holds transformed plane k
 * (l = 0) and k + 16 (l = 1) and direct plane k (l = 2) and k + 16
 * (l = 3). Lanes 0..3 of row[8] are the planes above row 15's:
 * transformed plane 16, plane 32 (the signs of the 33-bit deltas),
 * direct plane 16 and none (zero). So the plane above lane i is lane
 * i + 4.
 */
struct LinePlanes
{
    U16x8 row[9];
    uint32_t base;
};

// Rows are built from pairs of 32-bit lanes and read as 16-bit lanes,
// lane l being bits 16l..16l + 15.
static_assert(std::endian::native == std::endian::little,
              "BPC's lane views of a row assume little-endian lanes");

/** Lanes 4..7 of @p a, then lanes 0..3 of @p b. */
template <typename V>
V
straddle(V a, V b)
{
    return __builtin_shufflevector(a, b, 4, 5, 6, 7, 8, 9, 10, 11);
}

LinePlanes
buildPlanes(const Line &line)
{
    // Words 16..19 repeat word 15, so delta 15 and its sign are zero.
    U32x4 w[5];
    std::memcpy(w, line.data(), kLineBytes);
    w[4] = __builtin_shufflevector(w[3], w[3], 3, 3, 3, 3);
    U64x2 rows[8];
    U32x4 sign = {};
    for (unsigned i = 0; i < 4; ++i) {
        U32x4 next = __builtin_shufflevector(w[i], w[i + 1], 1, 2, 3, 4);
        U32x4 delta = next - w[i];
        sign |= U32x4(next < w[i]) & (U32x4{1, 2, 4, 8} << 4 * i);
        rows[2 * i] = U64x2(__builtin_shufflevector(delta, w[i], 0, 4, 1, 5));
        rows[2 * i + 1] =
            U64x2(__builtin_shufflevector(delta, w[i], 2, 6, 3, 7));
    }
    transposeLanes(rows);
    LinePlanes lp;
    for (unsigned j = 0; j < 8; ++j)
        lp.row[j] = U16x8(rows[j]);
    sign |= __builtin_shufflevector(sign, sign, 2, 3, 0, 1);
    U16x8 top = {0, uint16_t(sign[0] | sign[1])};
    lp.row[8] =
        __builtin_shufflevector(lp.row[0], top, 1, 9, 3, 8, 8, 8, 8, 8);
    lp.base = w[0][0];
    return lp;
}

/** One mode's planes, taken from the shared lanes. */
Planes
modePlanes(const LinePlanes &lp, bool direct)
{
    Planes p;
    unsigned l = direct ? 2 : 0;
    for (unsigned k = 0; k < 16; ++k) {
        p.dbp[k] = lp.row[k / 2][4 * (k % 2) + l];
        p.dbp[k + 16] = lp.row[k / 2][4 * (k % 2) + l + 1];
    }
    p.count = direct ? kDirectPlanes : kXformPlanes;
    p.width = direct ? kDirectWidth : kXformWidth;
    p.dbp[32] = direct ? 0 : lp.row[8][1];
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

/** Stream sizes of both modes, mode bit included. */
struct ModeBits
{
    size_t xf, dp;
};

/**
 * What encodePlanes would write for both modes, eight planes per step:
 * with the lanes of row[] taken end to end, the DBX plane of lane i is
 * lane i ^ lane i + 4, and each symbol's cost is summed per lane. A
 * zero plane costs 7 bits if it starts a run (the plane above it is
 * non-zero or absent) and 3 if that run is one plane long; run
 * neighbours cross the plane 15/16 and 31/32 seams. The transformed
 * plane 32 is sized on its own.
 */
ModeBits
sizeModes(const LinePlanes &lp)
{
    // All-ones DBX planes are 15 bits wide in the transformed lanes 0
    // and 1 and 16 in the direct lanes 2 and 3, where a verbatim plane
    // takes one bit more.
    constexpr U16x8 kOnes = {0x7fff, 0x7fff, 0xffff, 0xffff,
                             0x7fff, 0x7fff, 0xffff, 0xffff};
    constexpr I16x8 kVerbatim = {16, 16, 17, 17, 16, 16, 17, 17};
    // zero[j]: which DBX planes of row[j] are zero.
    I16x8 zero[9];
    I16x8 bits = {};
    for (unsigned j = 0; j < 8; ++j) {
        U16x8 p = lp.row[j];
        U16x8 x = p ^ straddle(p, lp.row[j + 1]);
        U16x8 low = x & -x, rest = x ^ low;
        // All ones or DBP == 0: 5 bits; one or two adjacent ones: 9.
        I16x8 c5 = (x == kOnes) | (p == 0);
        I16x8 c9 = ~c5 & ((rest == 0) | (rest == low << 1));
        zero[j] = x == 0;
        bits += ~zero[j] & ((c5 & 5) | (c9 & 9) | (~(c5 | c9) & kVerbatim));
    }
    // Across the seams: above row 15's planes, transformed plane 16,
    // plane 32 and none; below row 0's, none, transformed plane 15,
    // none and direct plane 15.
    constexpr I16x8 kNone = {};
    I16x8 sign_zero = {0, int16_t(-int16_t(lp.row[8][1] == 0))};
    zero[8] =
        __builtin_shufflevector(zero[0], sign_zero, 1, 9, 3, 8, 8, 8, 8, 8);
    I16x8 below =
        __builtin_shufflevector(zero[7], kNone, 8, 8, 8, 8, 8, 4, 8, 6);
    for (unsigned j = 0; j < 8; ++j) {
        I16x8 start = zero[j] & ~straddle(zero[j], zero[j + 1]);
        bits += (start & 7) - (start & ~straddle(below, zero[j]) & 4);
        below = zero[j];
    }
    // Lanes 0 and 1 of each row are transformed, 2 and 3 direct.
    bits += straddle(bits, bits);
    size_t xf = size_t(bits[0] + bits[1]), dp = size_t(bits[2] + bits[3]);

    // Plane 32, where DBX == DBP.
    uint32_t s = lp.row[8][1], rest = s & (s - 1);
    size_t top = s == 0 ? (zero[7][5] ? 7 : 3)
                 : s == (1u << kXformWidth) - 1       ? 5
                 : rest == 0 || rest == (s & -s) << 1 ? 9
                                                      : 1 + kXformWidth;
    unsigned base = baseWidth(lp.base);
    return {1 + (base == 32 ? 33 : 3 + base) + top + xf, 1 + dp};
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
    U64x2 rows[8];
    for (unsigned k = 0; k < 16; ++k)
        rows[k / 2][k % 2] =
            (p.dbp[k] & 0xffffu) | (p.dbp[k + 16] & 0xffffu) << 16;
    transposeLanes(rows);
    // Transformed words are the base plus a running sum of the deltas.
    // Adding the sign-extended 33-bit delta wraps to the same 32-bit
    // word as adding its low 32 bits, so plane 32 is not needed.
    for (unsigned j = 0; j < 16; ++j) {
        uint32_t word = uint32_t(rows[j / 2][j % 2]);
        setLineWord32(out, j, direct ? word : base);
        base += word;
    }
    return !in.overrun();
}

} // namespace compresso
