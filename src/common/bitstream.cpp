#include "common/bitstream.h"

namespace compresso {

uint64_t
BitReader::getTail(unsigned nbits)
{
    assert(nbits <= 64);
    if (nbits == 0)
        return 0;
    size_t avail = remaining();
    unsigned take = avail < nbits ? unsigned(avail) : nbits;
    uint64_t v = 0;
    if (take != 0) {
        // Gather the (at most 9) bytes holding bits [pos_, pos_ + take),
        // all of them below size_bytes_.
        size_t first = pos_ / 8;
        size_t last = (pos_ + take - 1) / 8;
        unsigned off = unsigned(pos_ % 8);
        uint64_t w = 0;
        for (size_t i = first; i <= last && i < first + 8; ++i)
            w |= uint64_t(data_[i]) << (56 - 8 * (i - first));
        w <<= off;
        if (last == first + 8)
            w |= uint64_t(data_[last]) >> (8 - off);
        v = w >> (64 - take);
    }
    if (take < nbits) {
        overrun_ = true;
        v = take == 0 ? 0 : v << (nbits - take);
    }
    pos_ += nbits;
    return v;
}

} // namespace compresso
