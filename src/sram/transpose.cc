#include "sram/transpose.hh"

#include "common/bitfield.hh"

namespace maicc
{

void
writeTransposed(SramArray &array, unsigned base_row, unsigned n,
                std::span<const int32_t> values, unsigned base_col)
{
    maicc_assert(base_col + values.size() <= Row256::numBits);
    maicc_assert(base_row + n <= array.rows());
    maicc_assert(n >= 1 && n <= 32);
    Row256 planes[32];
    for (unsigned bit = 0; bit < n; ++bit)
        planes[bit] = array.readRow(base_row + bit);
    setBitPlanes(planes, n, base_col, values);
    for (unsigned bit = 0; bit < n; ++bit)
        array.writeRow(base_row + bit, planes[bit]);
}

std::vector<int32_t>
readTransposed(const SramArray &array, unsigned base_row, unsigned n,
               unsigned count, bool is_signed, unsigned base_col)
{
    maicc_assert(base_col + count <= Row256::numBits);
    maicc_assert(base_row + n <= array.rows());
    std::vector<int32_t> out(count, 0);
    for (unsigned bit = 0; bit < n; ++bit) {
        const Row256 &row = array.readRow(base_row + bit);
        for (unsigned k = 0; k < count; ++k) {
            if (row.get(base_col + k))
                out[k] |= 1u << bit;
        }
    }
    if (is_signed) {
        for (auto &v : out)
            v = sext32(static_cast<uint32_t>(v), n);
    }
    return out;
}

} // namespace maicc
