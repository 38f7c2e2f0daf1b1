#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sram/transpose.hh"

using namespace maicc;

TEST(Transpose, RoundTripUnsigned8)
{
    SramArray arr(64);
    std::vector<int32_t> vals = {0, 1, 2, 127, 128, 255};
    writeTransposed(arr, 0, 8, vals);
    auto back = readTransposed(arr, 0, 8, vals.size(), false);
    EXPECT_EQ(back, vals);
}

TEST(Transpose, RoundTripSigned8)
{
    SramArray arr(64);
    std::vector<int32_t> vals = {-128, -1, 0, 1, 127, -37};
    writeTransposed(arr, 4, 8, vals);
    auto back = readTransposed(arr, 4, 8, vals.size(), true);
    EXPECT_EQ(back, vals);
}

TEST(Transpose, BitLayoutMatchesSpec)
{
    SramArray arr(64);
    // Element k=3 with value 0b101 at 4-bit precision: bit 0 ->
    // row base+0 col 3, bit 2 -> row base+2 col 3.
    std::vector<int32_t> vals = {0, 0, 0, 0b101};
    writeTransposed(arr, 8, 4, vals);
    EXPECT_TRUE(arr.readRow(8).get(3));
    EXPECT_FALSE(arr.readRow(9).get(3));
    EXPECT_TRUE(arr.readRow(10).get(3));
    EXPECT_FALSE(arr.readRow(11).get(3));
}

TEST(Transpose, BaseColumnOffset)
{
    SramArray arr(64);
    std::vector<int32_t> vals = {5, 9};
    writeTransposed(arr, 0, 8, vals, 100);
    auto back = readTransposed(arr, 0, 8, 2, false, 100);
    EXPECT_EQ(back[0], 5);
    EXPECT_EQ(back[1], 9);
    // Columns outside the window stay clear.
    auto other = readTransposed(arr, 0, 8, 2, false, 0);
    EXPECT_EQ(other[0], 0);
    EXPECT_EQ(other[1], 0);
}

TEST(Transpose, RandomRoundTripAllWidths)
{
    Rng rng(99);
    for (unsigned n = 1; n <= 32; ++n) {
        SramArray arr(64);
        std::vector<int32_t> vals(256);
        int64_t lo = -(int64_t(1) << (n - 1));
        int64_t hi = (int64_t(1) << (n - 1)) - 1;
        for (auto &v : vals)
            v = static_cast<int32_t>(rng.range(lo, hi));
        writeTransposed(arr, 0, n, vals);
        auto back = readTransposed(arr, 0, n, 256, true);
        EXPECT_EQ(back, vals) << "width " << n;
    }
}

namespace
{

/** setBitPlanes one bit-line at a time: the specification. */
template <typename T>
void
referencePlanes(Row256 *rows, unsigned n, unsigned base_col,
                std::span<const T> values)
{
    using U = std::make_unsigned_t<T>;
    for (unsigned p = 0; p < n; ++p) {
        for (size_t k = 0; k < values.size(); ++k) {
            bool bit = p < 8 * sizeof(T)
                && ((uint64_t(U(values[k])) >> p) & 1);
            rows[p].set(base_col + unsigned(k), bit);
        }
    }
}

/**
 * Every width 1..32, every size that fits at each base column, on
 * rows of random bits: setBitPlanes must equal the reference on all
 * 256 bit-lines of planes 0..n-1, so the lines outside the window
 * keep their value, and must leave planes n..31 alone. Full-range
 * values set bits above n (and, for int8_t, leave the planes above
 * 8 to read as zero).
 */
template <typename T>
void
checkSetBitPlanes(uint64_t seed)
{
    Rng rng(seed);
    std::vector<T> values(256);
    for (unsigned base_col : {0u, 1u, 7u, 60u, 63u, 100u, 255u}) {
        for (unsigned size = 1; base_col + size <= 256; ++size) {
            for (auto &v : values)
                v = static_cast<T>(rng.next());
            std::span<const T> span(values.data(), size);
            Row256 before[32], want[32];
            for (auto &row : before) {
                for (auto &word : row.w)
                    word = rng.next();
            }
            std::copy(before, before + 32, want);
            // Plane p does not depend on n, so one 32-plane
            // reference serves every width.
            referencePlanes(want, 32, base_col, span);
            for (unsigned n = 1; n <= 32; ++n) {
                Row256 got[32];
                std::copy(before, before + 32, got);
                setBitPlanes(got, n, base_col, span);
                for (unsigned p = 0; p < 32; ++p) {
                    ASSERT_EQ(got[p], p < n ? want[p] : before[p])
                        << "n=" << n << " base_col=" << base_col
                        << " size=" << size << " plane=" << p;
                }
            }
        }
    }
}

} // namespace

TEST(Transpose, SetBitPlanesInt8MatchesBitByBit)
{
    checkSetBitPlanes<int8_t>(7);
}

TEST(Transpose, SetBitPlanesInt32MatchesBitByBit)
{
    checkSetBitPlanes<int32_t>(8);
}
