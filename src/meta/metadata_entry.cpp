#include "meta/metadata_entry.h"

#include <cassert>

#include "common/bitstream.h"

namespace compresso {

namespace {

/** Bits in the first metadata half (the half-entry boundary). */
constexpr size_t kFirstHalfBits = 32 * 8;

/** Header bits (flags, chunks, free_space, inflate_count, MPFNs) and
 *  the pad to the boundary; a constant pad width bounds its put(). */
constexpr size_t kHeaderBits = 1 + 1 + 1 + 4 + 12 + 6 + kChunksPerPage * 28;
constexpr unsigned kPadBits = unsigned(kFirstHalfBits - kHeaderBits);
static_assert(kHeaderBits <= kFirstHalfBits && kPadBits <= 64);

} // namespace

std::array<uint8_t, kMetadataEntryBytes>
MetadataEntry::pack() const
{
    BitWriter w;
    w.put(valid, 1);
    w.put(zero, 1);
    w.put(compressed, 1);
    w.put(chunks, 4);
    w.put(free_space, 12);
    w.put(inflate_count, 6);
    for (uint32_t m : mpfn)
        w.put(m, 28);
    // Pad the first half to exactly 32 B so the half-entry boundary is
    // architectural.
    assert(w.bitSize() == kHeaderBits);
    w.put(0, kPadBits);

    for (uint8_t c : line_code)
        w.put(c, 2);
    for (uint8_t l : inflate_line)
        w.put(l, 6);

    std::array<uint8_t, kMetadataEntryBytes> out{};
    const auto &bytes = w.bytes();
    for (size_t i = 0; i < bytes.size() && i < out.size(); ++i)
        out[i] = bytes[i];
    return out;
}

bool
MetadataEntry::unpack(const std::array<uint8_t, kMetadataEntryBytes> &raw,
                      MetadataEntry &out)
{
    BitReader r(raw.data(), raw.size() * 8);
    out.valid = r.get(1);
    out.zero = r.get(1);
    out.compressed = r.get(1);
    out.chunks = uint8_t(r.get(4));
    out.free_space = uint16_t(r.get(12));
    out.inflate_count = uint8_t(r.get(6));
    for (auto &m : out.mpfn)
        m = uint32_t(r.get(28));
    r.get(kPadBits);

    for (auto &c : out.line_code)
        c = uint8_t(r.get(2));
    for (auto &l : out.inflate_line)
        l = uint8_t(r.get(6));

    if (out.chunks > kChunksPerPage || out.inflate_count > kMaxInflatedLines)
        return false;
    return !r.overrun();
}

} // namespace compresso
