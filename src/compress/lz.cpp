#include "compress/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "prof/profiler.h"

namespace compresso {

namespace {

constexpr unsigned kMinMatch = 3;
constexpr unsigned kMaxMatch = 34;   // 5-bit length field: 3 + 31
constexpr unsigned kMaxLiteral = 8;  // 3-bit length field: 1 + 7

/** Match search over one line from per-byte position masks: only the
 *  starts whose first bytes match are compared, 8 bytes at a time. */
struct Matcher
{
    uint64_t occ[256] = {};           // bit i of occ[b]: line[i] == b
    uint8_t buf[kLineBytes + 8] = {}; // the line, zero-padded for loads

    explicit Matcher(const Line &line)
    {
        std::memcpy(buf, line.data(), kLineBytes);
        for (size_t i = 0; i < kLineBytes; ++i)
            occ[line[i]] |= uint64_t(1) << i;
    }

    /** buf[i, i + 8) as a little-endian value. */
    uint64_t
    load(size_t i) const
    {
        uint64_t v;
        std::memcpy(&v, buf + i, 8);
        if constexpr (std::endian::native == std::endian::big)
            v = __builtin_bswap64(v);
        return v;
    }

    /**
     * Longest match for @p pos looking back into the line (overlapping
     * pos, as in LZ77 run encoding), farthest start first: a nearer one
     * wins only if strictly longer. With @p ops, never stops early and
     * adds the comparisons a byte-serial matcher makes over every
     * start: the common prefix up to the cap plus the failing one.
     */
    unsigned
    longest(size_t pos, unsigned &dist, size_t *ops) const
    {
        unsigned cap = unsigned(std::min<size_t>(kMaxMatch, kLineBytes - pos));
        unsigned known = std::min(cap, kMinMatch), k = 0, best = dist = 0;
        // Bit s stays set while line[s, s + k) == line[pos, pos + k).
        uint64_t starts = (uint64_t(1) << pos) - 1;
        size_t compares = pos;
        for (; k < known; ++k) {
            starts &= occ[buf[pos + k]] >> k;
            compares += size_t(std::popcount(starts));
        }
        while (starts) {
            unsigned start = unsigned(std::countr_zero(starts)), len = 0;
            starts &= starts - 1;
            // Common prefix up to the cap; pos + cap <= 64 bounds loads.
            uint64_t x = 0;
            while (!(x = load(start + len) ^ load(pos + len)) && len + 8 < cap)
                len += 8;
            len = std::min(cap, len + unsigned(std::countr_zero(x)) / 8);
            compares += len - known;
            if (len <= best)
                continue;
            best = len;
            dist = unsigned(pos - start);
            if (best == cap && !ops)
                break;
            // Only a nearer start that also matches byte best is longer.
            for (; !ops && k <= best; ++k)
                starts &= occ[buf[pos + k]] >> k;
        }
        if (ops)
            *ops += compares;
        return best;
    }
};

} // namespace

size_t
LzCompressor::compress(const Line &line, BitWriter &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kLzCompress);
    size_t start_bits = out.bitSize();
    const Matcher matcher(line);
    size_t lit_start = 0;

    auto flushLiterals = [&](size_t end) {
        for (unsigned n = 0; lit_start < end; lit_start += n) {
            n = unsigned(std::min<size_t>(kMaxLiteral, end - lit_start));
            uint64_t msb_first = __builtin_bswap64(matcher.load(lit_start));
            out.put(n - 1, 4); // flag 0 + len(3)
            out.put(msb_first >> (64 - 8 * n), 8 * n);
        }
    };

    for (size_t pos = 0; pos < kLineBytes;) {
        unsigned dist = 0;
        unsigned len = matcher.longest(pos, dist, nullptr);
        if (len >= kMinMatch) {
            flushLiterals(pos);
            out.put((uint64_t(1) << 11) | (dist << 5) | (len - kMinMatch), 12);
            pos += len;
            lit_start = pos;
        } else {
            ++pos;
        }
    }
    flushLiterals(kLineBytes);
    return out.bitSize() - start_bits;
}

bool
LzCompressor::decompress(BitReader &in, Line &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kLzDecompress);
    size_t pos = 0;
    while (pos < kLineBytes) {
        // One peek covers the longest header: 1 + dist(6) + len(5).
        unsigned h = unsigned(in.peek(12));
        if (h >> 11) {
            unsigned dist = (h >> 5) & 63;
            unsigned len = (h & 31) + kMinMatch;
            in.skip(12);
            if (dist == 0 || dist > pos || pos + len > kLineBytes)
                return false;
            for (unsigned i = 0; i < len; ++i, ++pos)
                out[pos] = out[pos - dist];
        } else {
            // 0 + len(3), then the literal bytes.
            unsigned n = ((h >> 8) & 7) + 1;
            in.skip(4);
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

size_t
LzCompressor::matchSearchOps(const Line &line) const
{
    const Matcher matcher(line);
    size_t ops = 0;
    for (size_t pos = 0; pos < kLineBytes;) {
        unsigned dist = 0;
        unsigned len = matcher.longest(pos, dist, &ops);
        pos += len >= kMinMatch ? len : 1;
    }
    return ops;
}

} // namespace compresso
