/**
 * @file
 * Bit-granular output/input streams used by the compression codecs.
 *
 * Compressed cache lines are genuine bitstreams (BPC emits 3-16 bit
 * symbols), so the codecs serialize through these helpers. Writing is
 * MSB-first within each byte, which makes the streams easy to inspect in
 * hex dumps and matches the convention used in the BPC paper's figures.
 */

#ifndef COMPRESSO_COMMON_BITSTREAM_H
#define COMPRESSO_COMMON_BITSTREAM_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace compresso {

/** Append-only bit stream writer. Each put() appends whole bytes to a
 *  buffer that reserves a line's worth up front. */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the low @p nbits bits of @p value, MSB first. */
    void
    put(uint64_t value, unsigned nbits)
    {
        assert(nbits <= 64);
        if (nbits == 0)
            return;
        if (nbits < 64)
            value &= (uint64_t(1) << nbits) - 1;

        unsigned used = unsigned(bits_ % 8);
        bits_ += nbits;
        if (used != 0) {
            // Top up the partial last byte first.
            unsigned room = 8 - used;
            if (nbits <= room) {
                buf_.back() |= uint8_t(value << (room - nbits));
                return;
            }
            nbits -= room;
            buf_.back() |= uint8_t(value >> nbits);
        }

        // The remaining 1..64 bits start on a byte boundary: left-align
        // them and append their bytes MSB first.
        uint64_t left = value << (64 - nbits);
        uint8_t be[8];
        for (unsigned i = 0; i < 8; ++i)
            be[i] = uint8_t(left >> (56 - 8 * i));
        if (buf_.capacity() == 0)
            buf_.reserve(kReserveBytes);
        buf_.insert(buf_.end(), be, be + (nbits + 7) / 8);
    }

    /** Number of bits written so far. */
    size_t bitSize() const { return bits_; }

    /** Number of bytes needed to hold the stream (rounded up). */
    size_t byteSize() const { return (bits_ + 7) / 8; }

    /** Finished stream; trailing pad bits are zero. */
    const std::vector<uint8_t> &bytes() const & { return buf_; }

    /** The finished stream, handed over by a writer that is done. */
    std::vector<uint8_t> bytes() && { return std::move(buf_); }

    void clear() { buf_.clear(); bits_ = 0; }

  private:
    /** Bytes reserved by the first put(): one line plus slack, the size
     *  of almost every stream the codecs write. */
    static constexpr size_t kReserveBytes = 80;

    std::vector<uint8_t> buf_;
    size_t bits_ = 0;
};

/**
 * Sequential bit stream reader over an external buffer. A read of up
 * to 57 bits is one big-endian 8-byte load, at the read position or,
 * near the end, of the buffer's last 8 bytes (a buffer under 8 bytes is
 * copied into a zeroed word instead); a longer one may take a ninth
 * byte. No read touches a byte at or past ceil(size_bits / 8).
 */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size_bits)
        : data_(data), size_(size_bits), size_bytes_((size_bits + 7) / 8),
          fast_size_(size_bytes_ >= 8 ? size_bits : 0)
    {}

    explicit BitReader(const std::vector<uint8_t> &bytes)
        : BitReader(bytes.data(), bytes.size() * 8)
    {}

    /** The next @p nbits bits (MSB first) without consuming them: the
     *  bits get(nbits) would return. */
    uint64_t
    peek(unsigned nbits) const
    {
        assert(nbits <= 64);
        if (nbits == 0)
            return 0;
        if (pos_ + nbits > fast_size_)
            return peekEnd(nbits);
        return window(nbits) >> (64 - nbits);
    }

    /** Consume @p nbits bits, leaving pos() and overrun() as get(nbits)
     *  would. */
    void
    skip(unsigned nbits)
    {
        overrun_ |= pos_ + nbits > size_;
        pos_ += nbits;
    }

    /** Read @p nbits bits (MSB first); reading past the end returns
     *  zero bits and sets overrun(). */
    uint64_t
    get(unsigned nbits)
    {
        uint64_t v = peek(nbits);
        skip(nbits);
        return v;
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return pos_ < size_ ? size_ - pos_ : 0; }
    bool overrun() const { return overrun_; }

  private:
    static uint64_t
    loadBE64(const uint8_t *p)
    {
        uint64_t v;
        std::memcpy(&v, p, 8);
        if constexpr (std::endian::native == std::endian::little)
            v = __builtin_bswap64(v);
        return v;
    }

    /**
     * The bits from pos_ on, left-aligned, for a buffer of at least 8
     * bytes and pos_ < size_: the 8 bytes at pos_, or the buffer's last
     * 8 when fewer are left, shifted left past the bits already
     * consumed. Bits past the buffer read as zero. Only a read of over
     * 57 bits can need more than the load holds after a shift of at
     * most 7; it takes the ninth byte if the buffer has one.
     */
    uint64_t
    window(unsigned nbits) const
    {
        size_t first = std::min(pos_ / 8, size_bytes_ - 8);
        unsigned shift = unsigned(pos_ - 8 * first);
        uint64_t v = loadBE64(data_ + first) << shift;
        if (nbits > 57 && shift + nbits > 64 && first + 8 < size_bytes_)
            v |= uint64_t(data_[first + 8]) >> (8 - shift);
        return v;
    }

    /** peek() of a read that runs past size_bits, or of any read from
     *  a buffer shorter than 8 bytes (loaded with one small copy). */
    uint64_t
    peekEnd(unsigned nbits) const
    {
        if (pos_ >= size_)
            return 0;
        uint64_t v;
        if (size_bytes_ >= 8) {
            v = window(nbits);
        } else {
            uint8_t b[8] = {};
            std::memcpy(b, data_, size_bytes_);
            v = loadBE64(b) << pos_;
        }
        // Clear the bits at and past size_bits: 0 < size_ - pos_ < 64.
        v &= ~(~uint64_t(0) >> (size_ - pos_));
        return v >> (64 - nbits);
    }

    const uint8_t *data_;
    size_t size_;
    size_t size_bytes_;
    /** size_bits if the buffer holds at least 8 bytes, else 0: a read
     *  ending at or before it takes window() alone. */
    size_t fast_size_;
    size_t pos_ = 0;
    bool overrun_ = false;
};

} // namespace compresso

#endif // COMPRESSO_COMMON_BITSTREAM_H
