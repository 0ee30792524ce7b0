/**
 * @file
 * Byte-oriented LZ77-style compressor for 64 B lines.
 *
 * Sec. II-A of the paper weighs LZ against BPC: "Although LZ results
 * in the highest compression, its dictionary-based approach results in
 * high energy overhead." We implement a small LZ so the trade-off is
 * measurable in this repository (see bench/micro_compressors and the
 * algorithm comparison in examples/compression_explorer):
 *
 *  - window: the line itself (back-references up to 63 bytes);
 *  - tokens: literal runs and (distance, length) matches;
 *  - greedy longest-match parse, min match length 3; among equally
 *    long matches the farthest one wins.
 *
 * The match search keeps one 64-bit position mask per byte value,
 * built once per line (bit i of mask[b] set iff line[i] == b). ANDing
 * the masks of the three bytes at a position, shifted by 0, 1 and 2,
 * leaves exactly the earlier starts whose first three bytes match;
 * only those are compared further, 8 bytes per step, farthest first.
 * Once a match of length L is found, a nearer start stays a candidate
 * only if it also matches byte L, so the search stops early.
 *
 * Token encoding:
 *   0 + len(3) + bytes        literal run of 1..8 bytes
 *   1 + dist(6) + len(5)      match of 3..34 bytes at distance 1..63
 *
 * The per-line energy proxy reported by matchSearchOps() counts the
 * byte comparisons a byte-serial hardware matcher would burn — the
 * quantity that makes LZ unattractive at memory-controller line rates.
 * The same mask matcher derives it, visiting every start: per start,
 * the common prefix up to the length cap plus one failing comparison.
 */

#ifndef COMPRESSO_COMPRESS_LZ_H
#define COMPRESSO_COMPRESS_LZ_H

#include "compress/compressor.h"

namespace compresso {

class LzCompressor : public Compressor
{
  public:
    std::string name() const override { return "lz"; }

    size_t compress(const Line &line, BitWriter &out) const override;
    bool decompress(BitReader &in, Line &out) const override;

    /** Byte comparisons a byte-serial matcher makes in the greedy
     *  parse of @p line — the energy-relevant work metric (Sec. II-A). */
    size_t matchSearchOps(const Line &line) const;
};

} // namespace compresso

#endif // COMPRESSO_COMPRESS_LZ_H
