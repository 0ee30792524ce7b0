/**
 * @file
 * Tests for the 64 B metadata entry codec (Sec. III, Fig. 3).
 */

#include <gtest/gtest.h>

#include "codec_inputs.h"
#include "common/rng.h"
#include "meta/metadata_entry.h"

using namespace compresso;

TEST(MetadataEntry, DefaultIsInvalid)
{
    MetadataEntry m;
    EXPECT_FALSE(m.valid);
    EXPECT_EQ(m.chunks, 0);
    for (auto f : m.mpfn)
        EXPECT_EQ(f, kNoChunk);
}

TEST(MetadataEntry, PackIsExactly64Bytes)
{
    MetadataEntry m;
    auto raw = m.pack();
    EXPECT_EQ(raw.size(), kMetadataEntryBytes);
}

TEST(MetadataEntry, RoundTripDefault)
{
    MetadataEntry m, out;
    ASSERT_TRUE(MetadataEntry::unpack(m.pack(), out));
    EXPECT_EQ(out.valid, m.valid);
    EXPECT_EQ(out.chunks, m.chunks);
    EXPECT_EQ(out.mpfn, m.mpfn);
}

TEST(MetadataEntry, RoundTripRandom)
{
    Rng rng(77);
    for (int iter = 0; iter < 300; ++iter) {
        MetadataEntry m = randomMetadataEntry(rng);
        MetadataEntry out;
        ASSERT_TRUE(MetadataEntry::unpack(m.pack(), out));
        EXPECT_EQ(out.valid, m.valid);
        EXPECT_EQ(out.zero, m.zero);
        EXPECT_EQ(out.compressed, m.compressed);
        EXPECT_EQ(out.chunks, m.chunks);
        EXPECT_EQ(out.free_space, m.free_space);
        EXPECT_EQ(out.inflate_count, m.inflate_count);
        EXPECT_EQ(out.mpfn, m.mpfn);
        EXPECT_EQ(out.line_code, m.line_code);
        EXPECT_EQ(out.inflate_line, m.inflate_line);
    }
}

TEST(MetadataEntry, FirstHalfSufficesForControlAndPointers)
{
    // The half-entry optimization caches only the first 32 B; control
    // state and MPFNs must decode from it alone.
    Rng rng(78);
    MetadataEntry m = randomMetadataEntry(rng);
    auto raw = m.pack();
    // Zero the second half and re-decode.
    for (size_t i = 32; i < 64; ++i)
        raw[i] = 0;
    MetadataEntry out;
    ASSERT_TRUE(MetadataEntry::unpack(raw, out));
    EXPECT_EQ(out.valid, m.valid);
    EXPECT_EQ(out.chunks, m.chunks);
    EXPECT_EQ(out.free_space, m.free_space);
    EXPECT_EQ(out.mpfn, m.mpfn);
}

TEST(MetadataEntry, UnpackRejectsBadCounts)
{
    MetadataEntry m;
    m.chunks = 8;
    m.inflate_count = 17;
    auto raw = m.pack();
    MetadataEntry out;
    EXPECT_TRUE(MetadataEntry::unpack(raw, out));

    // Forge chunks = 9 (bits 3..6 of byte 0; layout: v z c cccc ...).
    MetadataEntry bad;
    bad.chunks = 9;
    EXPECT_FALSE(MetadataEntry::unpack(bad.pack(), out));
}

TEST(MetadataEntry, HalfCacheable)
{
    MetadataEntry m;
    EXPECT_TRUE(m.halfCacheable()); // invalid
    m.valid = true;
    m.zero = true;
    EXPECT_TRUE(m.halfCacheable()); // zero page
    m.zero = false;
    m.compressed = false;
    EXPECT_TRUE(m.halfCacheable()); // uncompressed page
    m.compressed = true;
    EXPECT_FALSE(m.halfCacheable()); // needs line codes
}

TEST(MetadataEntry, StorageOverheadIsOnePointSixPercent)
{
    // Sec. III: 64 B per 4 KB page = 1.5625%.
    double overhead = double(kMetadataEntryBytes) / double(kPageBytes);
    EXPECT_NEAR(overhead, 0.016, 0.001);
}
