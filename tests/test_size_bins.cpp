/**
 * @file
 * Tests for the size-bin quantizers (Sec. II-C / IV-B1 bin sets).
 */

#include <gtest/gtest.h>

#include "compress/size_bins.h"

using namespace compresso;

TEST(SizeBins, CompressoBinValues)
{
    const SizeBins &b = compressoBins();
    ASSERT_EQ(b.count(), 4u);
    EXPECT_EQ(b.binSize(0), 0);
    EXPECT_EQ(b.binSize(1), 8);
    EXPECT_EQ(b.binSize(2), 32);
    EXPECT_EQ(b.binSize(3), 64);
    EXPECT_EQ(b.codeBits(), 2u);
}

TEST(SizeBins, LegacyBinValues)
{
    const SizeBins &b = legacyBins();
    ASSERT_EQ(b.count(), 4u);
    EXPECT_EQ(b.binSize(1), 22);
    EXPECT_EQ(b.binSize(2), 44);
}

TEST(SizeBins, EightBinsUseThreeCodeBits)
{
    const SizeBins &b = eightBins();
    EXPECT_EQ(b.count(), 8u);
    EXPECT_EQ(b.codeBits(), 3u);
    EXPECT_EQ(b.binSize(7), 64);
}

TEST(SizeBins, ZeroLineAlwaysBinZero)
{
    EXPECT_EQ(compressoBins().binFor(0, true), 0u);
    EXPECT_EQ(compressoBins().binFor(64, true), 0u);
}

TEST(SizeBins, NonZeroNeverMapsToBinZero)
{
    // Even a 0-byte non-zero payload (impossible, but defensively)
    // must land in a real bin.
    EXPECT_GE(compressoBins().binFor(0, false), 1u);
    EXPECT_GE(compressoBins().binFor(1, false), 1u);
}

TEST(SizeBins, QuantizeRoundsUp)
{
    const SizeBins &b = compressoBins();
    EXPECT_EQ(b.quantize(1, false), 8);
    EXPECT_EQ(b.quantize(8, false), 8);
    EXPECT_EQ(b.quantize(9, false), 32);
    EXPECT_EQ(b.quantize(32, false), 32);
    EXPECT_EQ(b.quantize(33, false), 64);
    EXPECT_EQ(b.quantize(64, false), 64);
}

TEST(SizeBins, OversizeClampsToTop)
{
    // Compressed encodings can exceed 64 B on adversarial data; they
    // are stored raw in the top bin.
    EXPECT_EQ(compressoBins().binFor(72, false), 3u);
    EXPECT_EQ(compressoBins().quantize(100, false), 64);
}

TEST(SizeBins, MonotoneQuantization)
{
    const SizeBins &b = eightBins();
    uint16_t prev = 0;
    for (size_t s = 1; s <= 80; ++s) {
        uint16_t q = b.quantize(s, false);
        EXPECT_GE(q, prev);
        if (s <= 64) {
            EXPECT_GE(size_t(q), s);
        }
        prev = q;
    }
}
