#include "compress/bdi.h"

#include <array>
#include <cstring>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>

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
constexpr auto kShapeIndices = std::make_index_sequence<std::size(kShapes)>();

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

/** The unsigned integer of @p N (1, 2, 4 or 8) bytes. */
template <unsigned N>
using UInt =
    std::tuple_element_t<N == 1 ? 0 : N == 2 ? 1 : N == 4 ? 2 : 3,
                         std::tuple<uint8_t, uint16_t, uint32_t, uint64_t>>;

/** A shape's fit to a line: the base, the zero-base mask (element 0
 *  in the MSB) and the deltas cut to the delta width, packed into the
 *  64-bit groups the stream carries (element 0 in the MSB of group 0). */
struct ShapeFit
{
    uint64_t base = 0;
    uint32_t mask = 0;
    uint64_t groups[4] = {};
};

/**
 * The (base, delta) shape of @p B-byte elements and @p D-byte deltas.
 * Each element is coded as a delta from either the line base (the
 * first element whose delta from zero does not fit) or the implicit
 * zero base, chosen per element by a mask bit; deltas are taken and
 * sign-extended at the element width.
 */
template <unsigned B, unsigned D>
struct ShapeCodec
{
    using Word = UInt<B>;
    using Delta = UInt<D>;
    using SDelta = std::make_signed_t<Delta>;
    static constexpr unsigned kN = kLineBytes / B;
    static constexpr unsigned kWidth = D * 8;
    static constexpr unsigned kPerGroup = 64 / kWidth;
    static constexpr unsigned kGroups = kN / kPerGroup;
    static_assert(kGroups <= std::size(ShapeFit{}.groups));

    /** Whether @p d is the sign extension of its low D bytes. */
    static bool
    fits(Word d)
    {
        return Word(SDelta(d)) == d;
    }

    /**
     * Whether the shape fits @p line. With @p kFill, the payload is
     * left in @p fit as far as the shape fits; without, nothing is
     * stored, so the size-only pass does no work for the payload.
     */
    template <bool kFill>
    static bool
    tryFit(const Line &line, ShapeFit *fit)
    {
        bool have_base = false;
        Word base = 0;
        uint32_t mask = 0;
        for (unsigned i = 0; i < kN; ++i) {
            Word v;
            std::memcpy(&v, line.data() + i * B, B);
            // No branch on which base an element takes: that is data,
            // and on lines such as small integers a branch on it
            // mispredicts often enough to double the sizing time.
            bool zero_base = fits(v);
            base = have_base | zero_base ? base : v;
            have_base |= !zero_base;
            if (!(zero_base | fits(Word(v - base))))
                return false;
            if constexpr (kFill) {
                // Each group takes exactly 64 bits, so what an earlier
                // shape left in it is shifted out.
                Word d = zero_base ? v : Word(v - base);
                mask = (mask << 1) | uint32_t(zero_base);
                uint64_t &g = fit->groups[i / kPerGroup];
                g = (g << kWidth) | Delta(d);
            }
        }
        if constexpr (kFill) {
            fit->base = base;
            fit->mask = mask;
        }
        return true;
    }

    static void
    emit(const ShapeFit &fit, BitWriter &out)
    {
        out.put(fit.base, B * 8);
        out.put(fit.mask, kN);
        for (unsigned g = 0; g < kGroups; ++g)
            out.put(fit.groups[g], 64);
    }

    static bool
    decode(BitReader &in, Line &out)
    {
        Word base = Word(in.get(B * 8));
        uint32_t mask = uint32_t(in.get(kN));
        for (unsigned g = 0; g < kGroups; ++g) {
            uint64_t packed = in.get(64);
            for (unsigned j = 0; j < kPerGroup; ++j) {
                unsigned i = g * kPerGroup + j;
                auto d = Delta(packed >> (64 - kWidth * (j + 1)));
                Word v = Word(SDelta(d));
                if (!((mask >> (kN - 1 - i)) & 1))
                    v = Word(v + base);
                std::memcpy(out.data() + i * B, &v, B);
            }
        }
        return true;
    }
};

template <size_t I>
using CodecOf =
    ShapeCodec<kShapes[I].base_bytes, kShapes[I].delta_bytes>;

/** The encoding of a line: its selector, its size in bits, selector
 *  included, and for a (base, delta) shape the emitter of its payload
 *  (null for zero, repeated and raw lines). */
struct Choice
{
    unsigned sel;
    size_t bits;
    void (*emit)(const ShapeFit &, BitWriter &);
};

/** The first shape of kShapes that fits @p line, else raw. */
template <bool kFill, size_t... I>
Choice
firstFit(const Line &line, ShapeFit *fit, std::index_sequence<I...>)
{
    Choice c{kRaw, 4 + kLineBytes * 8, nullptr};
    (void)((CodecOf<I>::template tryFit<kFill>(line, fit) &&
            (c = {kShapes[I].sel, 4 + payloadBits(kShapes[I]),
                  CodecOf<I>::emit},
             true)) ||
           ...);
    return c;
}

/** Pick a line's encoding; compress() and compressedBits() both go
 *  through here. With @p kFill, the chosen shape's payload is left in
 *  @p fit by the same pass. */
template <bool kFill>
Choice
chooseEncoding(const Line &line, ShapeFit *fit = nullptr)
{
    if (isZeroLine(line))
        return {kZero, 4, nullptr};

    // Repeated 8-byte value?
    uint64_t w0 = lineWord64(line, 0);
    bool repeated = true;
    for (size_t i = 1; i < 8 && repeated; ++i)
        repeated = lineWord64(line, i) == w0;
    if (repeated)
        return {kRep8, 4 + 64, nullptr};

    return firstFit<kFill>(line, fit, kShapeIndices);
}

/** The payload decoder of each selector; false for an unused one.
 *  decompress() calls through this table rather than inlining every
 *  decoder, which kept the raw decoder's reads out of line and made it
 *  ~40% slower. */
using Decoder = bool (*)(BitReader &, Line &);

bool
decodeZero(BitReader &, Line &out)
{
    out.fill(0);
    return true;
}

bool
decodeRep8(BitReader &in, Line &out)
{
    uint64_t v = in.get(64);
    for (size_t i = 0; i < 8; ++i)
        setLineWord64(out, i, v);
    return true;
}

bool
decodeRaw(BitReader &in, Line &out)
{
    for (size_t i = 0; i < 8; ++i)
        setLineWord64(out, i, in.get(64));
    return true;
}

bool
decodeUnused(BitReader &, Line &)
{
    return false;
}

template <size_t... I>
constexpr std::array<Decoder, 16>
makeDecoders(std::index_sequence<I...>)
{
    std::array<Decoder, 16> t{};
    t.fill(decodeUnused);
    t[kZero] = decodeZero;
    t[kRep8] = decodeRep8;
    t[kRaw] = decodeRaw;
    ((t[kShapes[I].sel] = CodecOf<I>::decode), ...);
    return t;
}
constexpr std::array<Decoder, 16> kDecoders = makeDecoders(kShapeIndices);

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
    } else if (c.emit) {
        c.emit(fit, out);
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
    return kDecoders[sel](in, out) && !in.overrun();
}

} // namespace compresso
