/**
 * @file
 * Abstract cache-line compressor interface.
 *
 * All algorithms operate at the 64 B cache-line granularity chosen by
 * Compresso (Sec. II-A). Compressors are functional: they produce a
 * decodable bitstream, and every algorithm is round-trip tested. The
 * timing model mostly needs compressedBits(), which encodes and counts
 * by default and which the codecs on the hot path size directly.
 */

#ifndef COMPRESSO_COMPRESS_COMPRESSOR_H
#define COMPRESSO_COMPRESS_COMPRESSOR_H

#include <cstring>
#include <memory>
#include <string>

#include "common/bitstream.h"
#include "common/types.h"

namespace compresso {

/** True iff every byte of @p line is zero. Zero lines are handled by
 *  metadata alone and need no storage (Sec. VII-A). */
inline bool
isZeroLine(const Line &line)
{
    for (uint8_t b : line)
        if (b != 0)
            return false;
    return true;
}

/** Load the @p i-th little-endian 32-bit word of a line. */
inline uint32_t
lineWord32(const Line &line, size_t i)
{
    uint32_t w;
    std::memcpy(&w, line.data() + i * 4, 4);
    return w;
}

/** Store the @p i-th little-endian 32-bit word of a line. */
inline void
setLineWord32(Line &line, size_t i, uint32_t w)
{
    std::memcpy(line.data() + i * 4, &w, 4);
}

/** Load the @p i-th little-endian 64-bit word of a line. */
inline uint64_t
lineWord64(const Line &line, size_t i)
{
    uint64_t w;
    std::memcpy(&w, line.data() + i * 8, 8);
    return w;
}

inline void
setLineWord64(Line &line, size_t i, uint64_t w)
{
    std::memcpy(line.data() + i * 8, &w, 8);
}

/**
 * Interface for 64 B line compressors.
 */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Short algorithm identifier, e.g. "bpc". */
    virtual std::string name() const = 0;

    /**
     * Compress @p line, appending the encoding to @p out.
     * @return the number of bits appended.
     */
    virtual size_t compress(const Line &line, BitWriter &out) const = 0;

    /**
     * Decode one line from @p in into @p out.
     * @return false if the stream is malformed (overrun or bad code).
     */
    virtual bool decompress(BitReader &in, Line &out) const = 0;

    /**
     * Compressed size in bits without keeping the bitstream; always
     * equal to what compress() appends. The default encodes into a
     * scratch writer; BPC and BDI override it with a size-only path.
     */
    virtual size_t
    compressedBits(const Line &line) const
    {
        BitWriter w;
        return compress(line, w);
    }

    /** Compressed size in whole bytes. */
    size_t
    compressedBytes(const Line &line) const
    {
        return (compressedBits(line) + 7) / 8;
    }
};

} // namespace compresso

#endif // COMPRESSO_COMPRESS_COMPRESSOR_H
