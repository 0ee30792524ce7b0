/**
 * @file
 * Bit-Plane Compression (Kim et al., ISCA 2016), adapted for CPU
 * memory-capacity compression per Compresso (Sec. II-A):
 *
 *  - granularity reduced from 128 B to 64 B (16 x 32-bit words);
 *  - the Compresso extension that compresses each line both with and
 *    without the Delta-BitPlane-XOR (DBX) transform, in parallel, and
 *    keeps the smaller encoding (the paper reports this saves an
 *    average of 13% more memory than always applying the transform).
 *
 * Transform pipeline (transformed mode):
 *   words[16] -> base = words[0], deltas d_i = words[i+1] - words[i]
 *   (15 deltas, 33-bit two's complement)
 *   DBP_k = bit-plane k of the deltas (15 bits wide, k in [0, 33))
 *   DBX_k = DBP_k xor DBP_{k+1}   (with DBP_33 == 0)
 *
 * Each DBX plane is then entropy-coded with the symbol table below; the
 * direct mode applies the same plane coder to the bit-planes of the raw
 * words (16 bits wide, 32 planes, no base).
 *
 * Plane symbol table (15- or 16-bit planes):
 *   01  + 5      run of 2..33 all-zero DBX planes
 *   001              single all-zero DBX plane
 *   00000            all-ones DBX plane
 *   00001            DBP_k == 0 (DBX_k implied by plane above)
 *   00010 + 4        two consecutive ones starting at position p
 *   00011 + 4        single one at position p
 *   1 + W            verbatim plane (W = plane width)
 */

#ifndef COMPRESSO_COMPRESS_BPC_H
#define COMPRESSO_COMPRESS_BPC_H

#include "compress/compressor.h"

namespace compresso {

class BpcCompressor : public Compressor
{
  public:
    /**
     * @param adaptive if true (Compresso's configuration), pick the
     * better of transformed/direct encodings per line; if false, always
     * use the DBX transform (baseline BPC as published).
     */
    explicit BpcCompressor(bool adaptive = true) : adaptive_(adaptive) {}

    std::string name() const override { return adaptive_ ? "bpc" : "bpc-xform"; }

    size_t compress(const Line &line, BitWriter &out) const override;
    bool decompress(BitReader &in, Line &out) const override;

    /** Sizes both modes from one transpose of the line; writes no
     *  stream. */
    size_t compressedBits(const Line &line) const override;

    /** Size in bits of the transformed-only encoding, mode bit included
     *  (for the ablation of the adaptive-mode benefit). */
    size_t transformedBits(const Line &line) const;
    /** Size in bits of the direct (untransformed) encoding, mode bit
     *  included. */
    size_t directBits(const Line &line) const;

  private:
    bool adaptive_;
};

} // namespace compresso

#endif // COMPRESSO_COMPRESS_BPC_H
