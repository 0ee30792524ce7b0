/**
 * @file
 * Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012) for
 * 64 B lines.
 *
 * A line is encoded as one base of B bytes plus 64/B deltas of D bytes
 * each, for the (B, D) pairs of the original paper, preceded by a 4-bit
 * encoding selector:
 *
 *   0000 zero line                 (4 bits payload: none)
 *   0001 repeated 8-byte value     (8 B payload)
 *   0010 B8D1   0011 B8D2   0100 B8D4
 *   0101 B4D1   0110 B4D2
 *   0111 B2D1
 *   1111 uncompressed              (64 B payload)
 *
 * The first value serves as the base (classic BDI with the implicit
 * zero base folded in: a delta may also be taken against zero, chosen
 * per element with a one-bit mask, matching the published design).
 */

#ifndef COMPRESSO_COMPRESS_BDI_H
#define COMPRESSO_COMPRESS_BDI_H

#include "compress/compressor.h"

namespace compresso {

class BdiCompressor : public Compressor
{
  public:
    std::string name() const override { return "bdi"; }

    size_t compress(const Line &line, BitWriter &out) const override;
    bool decompress(BitReader &in, Line &out) const override;

    /** Sizes the chosen encoding arithmetically; writes no stream. */
    size_t compressedBits(const Line &line) const override;
};

} // namespace compresso

#endif // COMPRESSO_COMPRESS_BDI_H
