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

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
    const std::vector<uint8_t> &bytes() const { return buf_; }

    void clear() { buf_.clear(); bits_ = 0; }

  private:
    /** Bytes reserved by the first put(): one line plus slack, the size
     *  of almost every stream the codecs write. */
    static constexpr size_t kReserveBytes = 80;

    std::vector<uint8_t> buf_;
    size_t bits_ = 0;
};

/**
 * Sequential bit stream reader over an external buffer. Reads go
 * through a 64-bit big-endian window and never touch a byte at or past
 * ceil(size_bits / 8).
 */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size_bits)
        : data_(data), size_(size_bits), size_bytes_((size_bits + 7) / 8)
    {}

    explicit BitReader(const std::vector<uint8_t> &bytes)
        : BitReader(bytes.data(), bytes.size() * 8)
    {}

    /** Read @p nbits bits (MSB first); reading past the end returns
     *  zero bits and sets overrun(). */
    uint64_t
    get(unsigned nbits)
    {
        assert(nbits <= 64);
        size_t byte = pos_ / 8;
        if (nbits == 0 || pos_ + nbits > size_ || byte + 8 > size_bytes_)
            return getTail(nbits);
        // A whole 8-byte window lies inside the buffer; a read that
        // spills past it (offset + nbits > 64) takes one more byte,
        // which the end check above proves is in range too.
        unsigned off = unsigned(pos_ % 8);
        uint64_t v = loadBE64(data_ + byte) << off;
        if (off + nbits > 64)
            v |= uint64_t(data_[byte + 8]) >> (8 - off);
        pos_ += nbits;
        return v >> (64 - nbits);
    }

    /** Peek without consuming. */
    uint64_t
    peek(unsigned nbits)
    {
        size_t saved = pos_;
        bool saved_overrun = overrun_;
        uint64_t v = get(nbits);
        pos_ = saved;
        overrun_ = saved_overrun;
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

    /** get() within the last 8 bytes of the buffer or past its end. */
    uint64_t getTail(unsigned nbits);

    const uint8_t *data_;
    size_t size_;
    size_t size_bytes_;
    size_t pos_ = 0;
    bool overrun_ = false;
};

} // namespace compresso

#endif // COMPRESSO_COMMON_BITSTREAM_H
