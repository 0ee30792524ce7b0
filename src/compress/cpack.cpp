#include "compress/cpack.h"

#include "prof/profiler.h"

namespace compresso {

namespace {

/** FIFO dictionary shared by the encoder and decoder. */
struct Dict
{
    uint32_t entry[16] = {};
    unsigned count = 0; // valid entries
    unsigned head = 0;  // next slot to replace

    void
    push(uint32_t w)
    {
        entry[head] = w;
        head = (head + 1) % 16;
        if (count < 16)
            ++count;
    }
};

} // namespace

size_t
CpackCompressor::compress(const Line &line, BitWriter &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kCpackCompress);
    size_t start = out.bitSize();
    Dict dict;
    for (size_t i = 0; i < 16; ++i) {
        uint32_t w = lineWord32(line, i);
        if (w == 0) {
            out.put(0b00, 2);
            continue;
        }

        // Find the best dictionary match: full > 3-byte > halfword.
        int full = -1, b3 = -1, b2 = -1;
        for (unsigned j = 0; j < dict.count; ++j) {
            uint32_t e = dict.entry[j];
            if (e == w) {
                full = int(j);
                break;
            }
            if (b3 < 0 && (e & 0xffffff00u) == (w & 0xffffff00u))
                b3 = int(j);
            if (b2 < 0 && (e & 0xffff0000u) == (w & 0xffff0000u))
                b2 = int(j);
        }

        if (full >= 0) {
            out.put(0b01, 2);
            out.put(unsigned(full), 4);
            continue;
        }
        if ((w & 0xffffff00u) == 0) {
            out.put(0b1100, 4);
            out.put(w & 0xff, 8);
            dict.push(w);
            continue;
        }
        if (b3 >= 0) {
            out.put(0b1110, 4);
            out.put(unsigned(b3), 4);
            out.put(w & 0xff, 8);
            dict.push(w);
            continue;
        }
        if (b2 >= 0) {
            out.put(0b1101, 4);
            out.put(unsigned(b2), 4);
            out.put(w & 0xffff, 16);
            dict.push(w);
            continue;
        }
        out.put(0b10, 2);
        out.put(w, 32);
        dict.push(w);
    }
    return out.bitSize() - start;
}

bool
CpackCompressor::decompress(BitReader &in, Line &out) const
{
    CPR_PROF_SCOPE(ProfPhase::kCpackDecompress);
    Dict dict;
    for (size_t i = 0; i < 16; ++i) {
        // One peek covers the 2-bit code and the longest rest (32 bits):
        // the code is t's bits 33..32.
        uint64_t t = in.peek(34);
        in.skip(2);
        if (in.overrun())
            return false;
        uint32_t w = 0;
        switch (unsigned(t >> 32)) {
          case 0b00:
            break;
          case 0b01: {
            unsigned idx = unsigned(t >> 28) & 15;
            in.skip(4);
            if (idx >= dict.count)
                return false;
            w = dict.entry[idx];
            break;
          }
          case 0b10:
            w = uint32_t(t);
            in.skip(32);
            dict.push(w);
            break;
          default: { // 11xx; a dictionary index follows xx
            unsigned sub = unsigned(t >> 30) & 3;
            unsigned idx = unsigned(t >> 26) & 15;
            if (sub == 0b00) { // zzzx
                w = uint32_t(t >> 22) & 0xff;
                in.skip(10);
            } else if (sub == 0b10) { // mmmx
                in.skip(6);
                if (idx >= dict.count)
                    return false;
                w = (dict.entry[idx] & 0xffffff00u) |
                    (uint32_t(t >> 18) & 0xff);
                in.skip(8);
            } else if (sub == 0b01) { // mmxx
                in.skip(6);
                if (idx >= dict.count)
                    return false;
                w = (dict.entry[idx] & 0xffff0000u) |
                    (uint32_t(t >> 10) & 0xffff);
                in.skip(16);
            } else {
                in.skip(2);
                return false; // 1111 unused
            }
            dict.push(w);
            break;
          }
        }
        setLineWord32(out, i, w);
    }
    return !in.overrun();
}

} // namespace compresso
