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
 * Gather bit 0 of each byte of @p x into one byte: bit e of the
 * result is bit 8e of @p x. The multiply lands bit 8e on bit 56 + e;
 * every other partial product lands above bit 63 or below bit 56,
 * and those below sum to less than 2^56, so no carry reaches the
 * top byte.
 */
inline uint8_t
gatherByteLsbs(uint64_t x)
{
    return uint8_t(((x & 0x0101010101010101ULL) * 0x0102040810204080ULL)
                   >> 56);
}

/**
 * Pack bit p of every element of @p values into @p rows[p] for every
 * p < @p n (n <= 32), one element per bit-line from @p base_col on;
 * the other bit-lines keep their value. Bits at or above n are
 * dropped, and planes above the width of a narrow T are zero.
 *
 * One pass over the values: for each group of 8 elements, byte k of
 * each element is packed into one uint64_t once, and each of the 8
 * planes it holds (bits 8k..8k+7) is gathered from it with
 * gatherByteLsbs(); planes n..8k+7 are gathered but not stored. The
 * planes of a stretch of bit-lines inside one 64-bit row word are
 * assembled in a local buffer and stored once.
 */
template <typename T>
void
setBitPlanes(Row256 *rows, unsigned n, unsigned base_col,
             std::span<const T> values)
{
    using U = std::make_unsigned_t<T>;
    maicc_assert(n >= 1 && n <= 32);
    maicc_assert(base_col + values.size() <= Row256::numBits);
    const unsigned n_bytes = (n + 7) / 8;
    for (size_t k = 0; k < values.size();) {
        unsigned col = base_col + unsigned(k);
        unsigned shift = col & 63;
        size_t take = std::min<size_t>(64 - shift, values.size() - k);
        // Bit j of planes[p] is bit p of values[k + j].
        uint64_t planes[32] = {};
        for (size_t g = 0; g < take; g += 8) {
            size_t m = std::min<size_t>(8, take - g);
            for (unsigned kb = 0; kb < n_bytes; ++kb) {
                // Byte e of x is byte kb of values[k + g + e].
                uint64_t x = 0;
                for (size_t e = 0; e < m; ++e) {
                    uint64_t v = U(values[k + g + e]);
                    x |= ((v >> (8 * kb)) & 0xFF) << (8 * e);
                }
                for (unsigned b = 0; b < 8; ++b)
                    planes[8 * kb + b] |=
                        uint64_t(gatherByteLsbs(x >> b)) << g;
            }
        }
        uint64_t mask = take == 64 ? ~uint64_t(0)
                                   : (uint64_t(1) << take) - 1;
        for (unsigned p = 0; p < n; ++p) {
            uint64_t &word = rows[p].w[col >> 6];
            word = (word & ~(mask << shift)) | (planes[p] << shift);
        }
        k += take;
    }
}

/**
 * Write @p values (up to 256 of them) as an n-bit transposed vector
 * starting at word-line @p base_row, one element per bit-line
 * starting at bit-line @p base_col, all n planes in one
 * setBitPlanes() pass. Values are truncated to their low @p n bits
 * (1 <= n <= 32; two's complement for signed data).
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
