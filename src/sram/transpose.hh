/**
 * @file
 * Helpers for the transposed (bit-serial) data layout: bit i of all
 * elements of a vector lives in row base+i, one element per
 * bit-line. These helpers are shared by the CMem and the Neural
 * Cache baseline.
 */

#ifndef MAICC_SRAM_TRANSPOSE_HH
#define MAICC_SRAM_TRANSPOSE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sram/sram_array.hh"

namespace maicc
{

/**
 * Pack bit @p bit of every element of @p values into @p row, one
 * element per bit-line from @p base_col on, a 64-bit word at a
 * time; the other bit-lines keep their value.
 */
template <typename T>
void
setBitPlane(Row256 &row, unsigned base_col, std::span<const T> values,
            unsigned bit)
{
    using U = std::make_unsigned_t<T>;
    maicc_assert(base_col + values.size() <= Row256::numBits);
    for (size_t k = 0; k < values.size();) {
        unsigned col = base_col + unsigned(k);
        unsigned shift = col & 63;
        size_t take = std::min<size_t>(64 - shift, values.size() - k);
        uint64_t bits = 0;
        for (size_t j = 0; j < take; ++j)
            bits |= uint64_t((U(values[k + j]) >> bit) & 1) << j;
        uint64_t mask = take == 64 ? ~uint64_t(0)
                                   : (uint64_t(1) << take) - 1;
        uint64_t &word = row.w[col >> 6];
        word = (word & ~(mask << shift)) | (bits << shift);
        k += take;
    }
}

/**
 * Write @p values (up to 256 of them) as an n-bit transposed vector
 * starting at word-line @p base_row, one element per bit-line
 * starting at bit-line @p base_col. Values are truncated to their
 * low @p n bits (two's complement for signed data).
 */
void writeTransposed(SramArray &array, unsigned base_row, unsigned n,
                     std::span<const int32_t> values,
                     unsigned base_col = 0);

/**
 * Read @p count elements of an n-bit transposed vector back out.
 * When @p is_signed, the top bit is interpreted as a sign bit.
 */
std::vector<int32_t> readTransposed(const SramArray &array,
                                    unsigned base_row, unsigned n,
                                    unsigned count, bool is_signed,
                                    unsigned base_col = 0);

} // namespace maicc

#endif // MAICC_SRAM_TRANSPOSE_HH
