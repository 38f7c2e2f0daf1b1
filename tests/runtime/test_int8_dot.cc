/**
 * @file
 * The int8 dot-product tile (runtime/int8_dot.hh): both bodies
 * against an int64 scalar dot product, over every length up to 600,
 * the R*S*C sizes of ResNet18, every edge tile, and full-range
 * operands including the all -128 extreme. The AVX2 case skips on
 * CPUs without AVX2, so the portable body is tested on every host.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/seeded_test.hh"
#include "runtime/int8_dot.hh"

using namespace maicc;

namespace
{

int64_t
scalarDot(const int8_t *a, const int8_t *b, size_t len)
{
    int64_t sum = 0;
    for (size_t k = 0; k < len; ++k)
        sum += int64_t(a[k]) * b[k];
    return sum;
}

std::vector<int8_t>
fullRange(Rng &rng, size_t n)
{
    std::vector<int8_t> v(n);
    for (auto &x : v)
        x = rng.int8();
    return v;
}

class DotTile : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() && !cpuHasAvx2())
            GTEST_SKIP() << "this CPU has no AVX2";
        body = GetParam() ? dotTileAvx2 : dotTilePortable;
    }

    /**
     * Run one tile on operands of exactly the size it may read, so
     * a sanitizer build also catches reads past an edge tile.
     */
    void
    check(const std::vector<int8_t> &px, int n_px,
          const std::vector<int8_t> &flt, int n_flt, size_t len)
    {
        ASSERT_EQ(px.size(), size_t(n_px) * len);
        ASSERT_EQ(flt.size(), size_t(n_flt) * len);
        int32_t sums[kTilePixels * kTileFilters];
        body(px.data(), n_px, flt.data(), n_flt, len, sums);
        for (int p = 0; p < n_px; ++p) {
            for (int f = 0; f < n_flt; ++f) {
                EXPECT_EQ(sums[p * kTileFilters + f],
                          scalarDot(&px[p * len], &flt[f * len], len))
                    << "len " << len << ", tile " << n_px << "x"
                    << n_flt << ", pixel " << p << ", filter " << f;
            }
        }
    }

    DotTileFn body = nullptr;
};

TEST_P(DotTile, EveryLengthUpTo600)
{
    uint64_t seed = testseed::seedOrDefault(13);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    for (size_t len = 1; len <= 600; ++len) {
        check(fullRange(rng, kTilePixels * len), kTilePixels,
              fullRange(rng, kTileFilters * len), kTileFilters, len);
    }
}

TEST_P(DotTile, ResNet18FilterSizes)
{
    uint64_t seed = testseed::seedOrDefault(17);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    // R*S*C of every ResNet18 conv (7x7x3 stem, 3x3 and 1x1 at
    // 64..512 channels) and of the FC head.
    for (size_t len : {147, 576, 64, 1152, 128, 2304, 256, 4608, 512}) {
        check(fullRange(rng, kTilePixels * len), kTilePixels,
              fullRange(rng, kTileFilters * len), kTileFilters, len);
    }
}

TEST_P(DotTile, EdgeTiles)
{
    uint64_t seed = testseed::seedOrDefault(19);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    for (size_t len : {1, 15, 16, 17, 147, 576}) {
        for (int n_px = 1; n_px <= kTilePixels; ++n_px) {
            for (int n_flt = 1; n_flt <= kTileFilters; ++n_flt) {
                check(fullRange(rng, n_px * len), n_px,
                      fullRange(rng, n_flt * len), n_flt, len);
            }
        }
    }
}

TEST_P(DotTile, ExtremeOperands)
{
    // -128 * -128 is the one product whose int16 pair sum reaches
    // 2^15; the longest ResNet18 filter keeps the int32 sum at its
    // largest magnitude, positive (-128 x -128) and negative
    // (-128 x 127).
    const size_t len = 4608;
    std::vector<int8_t> lows(kTilePixels * len, -128);
    std::vector<int8_t> highs(kTileFilters * len, 127);
    check(lows, kTilePixels,
          std::vector<int8_t>(kTileFilters * len, -128), kTileFilters,
          len);
    check(lows, kTilePixels, highs, kTileFilters, len);
    check(std::vector<int8_t>(kTilePixels * len, 127), kTilePixels,
          highs, kTileFilters, len);
    // One edge tile and a non-multiple-of-16 length on the extremes.
    check(std::vector<int8_t>(3 * 147, -128), 3,
          std::vector<int8_t>(147, -128), 1, 147);
}

INSTANTIATE_TEST_SUITE_P(
    Bodies, DotTile, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "avx2" : "portable");
    });

TEST(DotTileDispatch, PicksAvx2ExactlyWhenTheCpuHasIt)
{
    EXPECT_EQ(dotTile(), cpuHasAvx2() ? dotTileAvx2 : dotTilePortable);
    EXPECT_NE(dotTile(), nullptr);
}

} // namespace
