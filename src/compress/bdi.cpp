#include "compress/bdi.h"

#include <cstring>
#include <iterator>

#include "prof/profiler.h"

namespace compresso {

namespace {

/** Encoding selectors (4 bits). */
enum Sel : unsigned
{
    kZero = 0b0000,
    kRep8 = 0b0001,
    kB8D1 = 0b0010,
    kB8D2 = 0b0011,
    kB8D4 = 0b0100,
    kB4D1 = 0b0101,
    kB4D2 = 0b0110,
    kB2D1 = 0b0111,
    kRaw = 0b1111,
};

struct Shape
{
    unsigned sel;
    unsigned base_bytes;
    unsigned delta_bytes;
};

/** Payload of a shape in bits: base + per-element mask + deltas. */
constexpr size_t
payloadBits(const Shape &sh)
{
    size_t n = kLineBytes / sh.base_bytes;
    return sh.base_bytes * 8 + n + n * sh.delta_bytes * 8;
}

/** In payload order, so the first shape that fits is the smallest (and
 *  of the equal B2D1 and B4D2, B2D1 wins). */
constexpr Shape kShapes[] = {
    {kB8D1, 8, 1}, {kB4D1, 4, 1}, {kB8D2, 8, 2},
    {kB2D1, 2, 1}, {kB4D2, 4, 2}, {kB8D4, 8, 4},
};

constexpr bool
payloadsAscend()
{
    for (size_t i = 1; i < std::size(kShapes); ++i)
        if (payloadBits(kShapes[i]) < payloadBits(kShapes[i - 1]))
            return false;
    return payloadBits(kShapes[std::size(kShapes) - 1]) < kLineBytes * 8;
}
static_assert(payloadsAscend(),
              "kShapes must be in payload order and all beat raw");

template <class T>
uint64_t
loadAs(const uint8_t *src)
{
    T v;
    std::memcpy(&v, src, sizeof(T));
    return v;
}

template <class T>
void
storeAs(uint8_t *dst, uint64_t v)
{
    T w = T(v);
    std::memcpy(dst, &w, sizeof(T));
}

/** Load a little-endian value of @p nbytes (2, 4 or 8) from @p src.
 *  Each branch copies a constant size, which compiles to one load. */
uint64_t
loadLE(const uint8_t *src, unsigned nbytes)
{
    return nbytes == 2   ? loadAs<uint16_t>(src)
           : nbytes == 4 ? loadAs<uint32_t>(src)
                         : loadAs<uint64_t>(src);
}

/** Store the low @p nbytes (2, 4 or 8) of @p v little-endian. */
void
storeLE(uint8_t *dst, uint64_t v, unsigned nbytes)
{
    if (nbytes == 2)
        storeAs<uint16_t>(dst, v);
    else if (nbytes == 4)
        storeAs<uint32_t>(dst, v);
    else
        storeAs<uint64_t>(dst, v);
}

/** Sign-extend the low @p nbytes of @p v. */
int64_t
signExtend(uint64_t v, unsigned nbytes)
{
    unsigned shift = 64 - nbytes * 8;
    return int64_t(v << shift) >> shift;
}

bool
fitsSigned(int64_t v, unsigned nbytes)
{
    int64_t lo = -(int64_t(1) << (nbytes * 8 - 1));
    int64_t hi = (int64_t(1) << (nbytes * 8 - 1)) - 1;
    return v >= lo && v <= hi;
}

/** A shape's fit to a line: the base, the zero-base mask (element 0
 *  in the MSB) and each element's delta, cut to the delta width. */
struct ShapeFit
{
    uint64_t base = 0;
    uint32_t mask = 0;
    uint64_t deltas[32] = {};
};

/**
 * Try a (base, delta) shape. Each element uses either the line base
 * (first non-immediate value) or the implicit zero base, indicated by a
 * per-element mask bit.
 *
 * @return the payload size in bits if the shape fits, or 0 otherwise;
 * when @p fit is given, the payload is stored there as far as the
 * shape fits.
 */
size_t
tryShape(const Line &line, const Shape &sh, ShapeFit *fit)
{
    unsigned n = unsigned(kLineBytes / sh.base_bytes);
    uint64_t delta_mask = ~uint64_t(0) >> (64 - sh.delta_bytes * 8);
    bool have_base = false;
    uint64_t base = 0;
    if (fit)
        fit->mask = 0;
    for (unsigned i = 0; i < n; ++i) {
        uint64_t v = loadLE(line.data() + i * sh.base_bytes, sh.base_bytes);
        int64_t dz = signExtend(v, sh.base_bytes); // delta from zero base
        bool zero_base = fitsSigned(dz, sh.delta_bytes);
        int64_t d = dz;
        if (!zero_base) {
            if (!have_base) {
                base = v;
                have_base = true;
            }
            d = signExtend(v - base, sh.base_bytes);
            if (!fitsSigned(d, sh.delta_bytes))
                return 0;
        }
        if (fit) {
            fit->mask = (fit->mask << 1) | uint32_t(zero_base);
            fit->deltas[i] = uint64_t(d) & delta_mask;
        }
    }
    if (fit)
        fit->base = base;
    return payloadBits(sh);
}

/** The encoding of a line: its selector, its shape (null for zero,
 *  repeated and raw lines) and its size in bits, selector included. */
struct Choice
{
    unsigned sel;
    const Shape *shape;
    size_t bits;
};

/** Pick a line's encoding; compress() and compressedBits() both go
 *  through here. With @p kFill, the chosen shape's payload is left in
 *  @p fit by the same pass; without, nothing is stored, so the
 *  size-only pass does no work for the payload. */
template <bool kFill>
Choice
chooseEncoding(const Line &line, ShapeFit *fit = nullptr)
{
    if (isZeroLine(line))
        return {kZero, nullptr, 4};

    // Repeated 8-byte value?
    uint64_t w0 = lineWord64(line, 0);
    bool repeated = true;
    for (size_t i = 1; i < 8 && repeated; ++i)
        repeated = lineWord64(line, i) == w0;
    if (repeated)
        return {kRep8, nullptr, 4 + 64};

    // The first fitting (base, delta) shape is the smallest.
    for (const Shape &sh : kShapes)
        if (tryShape(line, sh, kFill ? fit : nullptr) != 0)
            return {sh.sel, &sh, 4 + payloadBits(sh)};
    return {kRaw, nullptr, 4 + kLineBytes * 8};
}

} // namespace

size_t
BdiCompressor::compressedBits(const Line &line) const
{
    CPR_PROF_SCOPE(ProfPhase::kBdiCompress);
    return chooseEncoding<false>(line).bits;
}

size_t
BdiCompressor::compress(const Line &line, BitWriter &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kBdiCompress);
    size_t start = out.bitSize();
    ShapeFit fit;
    Choice c = chooseEncoding<true>(line, &fit);
    out.put(c.sel, 4);

    if (c.sel == kRep8) {
        out.put(lineWord64(line, 0), 64);
    } else if (c.sel == kRaw) {
        for (size_t i = 0; i < 8; ++i)
            out.put(lineWord64(line, i), 64);
    } else if (c.shape) {
        // Base, mask, then the deltas packed into puts of 64 bits.
        const Shape &sh = *c.shape;
        unsigned n = unsigned(kLineBytes / sh.base_bytes);
        unsigned width = sh.delta_bytes * 8, per_put = 64 / width;
        out.put(fit.base, sh.base_bytes * 8);
        out.put(fit.mask, n);
        for (unsigned i = 0; i < n; i += per_put) {
            uint64_t packed = 0;
            for (unsigned j = i; j < i + per_put; ++j)
                packed = (packed << width) | fit.deltas[j];
            out.put(packed, 64);
        }
    }
    return out.bitSize() - start;
}

bool
BdiCompressor::decompress(BitReader &in, Line &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kBdiDecompress);
    unsigned sel = unsigned(in.get(4));
    if (in.overrun())
        return false;

    if (sel == kZero) {
        out.fill(0);
        return true;
    }
    if (sel == kRep8) {
        uint64_t v = in.get(64);
        for (size_t i = 0; i < 8; ++i)
            setLineWord64(out, i, v);
        return !in.overrun();
    }
    if (sel == kRaw) {
        for (size_t i = 0; i < 8; ++i)
            setLineWord64(out, i, in.get(64));
        return !in.overrun();
    }

    const Shape *sh = nullptr;
    for (const Shape &s : kShapes) {
        if (s.sel == sel) {
            sh = &s;
            break;
        }
    }
    if (!sh)
        return false;

    unsigned n = unsigned(kLineBytes / sh->base_bytes);
    uint64_t base = in.get(sh->base_bytes * 8);
    uint32_t mask = uint32_t(in.get(n)); // element 0 in the MSB
    // The deltas, in the 64-bit groups compress() puts them in.
    unsigned width = sh->delta_bytes * 8;
    for (unsigned i = 0; i < n;) {
        uint64_t packed = in.get(64);
        for (unsigned left = 64; left > 0; left -= width, ++i) {
            uint64_t v = uint64_t(
                signExtend(packed >> (left - width), sh->delta_bytes));
            if (!((mask >> (n - 1 - i)) & 1))
                v += base;
            storeLE(out.data() + i * sh->base_bytes, v, sh->base_bytes);
        }
    }
    return !in.overrun();
}

} // namespace compresso
