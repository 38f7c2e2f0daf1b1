/**
 * @file
 * Behavioural model of an SRAM array with bit-line computing
 * (Jeloka et al. [28], as used by Compute Cache / Neural Cache /
 * BLADE and by the CMem of this paper).
 *
 * Activating two word-lines simultaneously yields, on each bit-line
 * pair, the AND (from BL) and NOR (from BLB) of the two stored bits.
 * A subsequent write saves results back, achieving in-place logic.
 * The model also counts word-line activations and row writes so the
 * energy model can charge per-event energies.
 */

#ifndef MAICC_SRAM_SRAM_ARRAY_HH
#define MAICC_SRAM_SRAM_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "sram/bitvec.hh"

namespace maicc
{

/** Result of a dual word-line activation. */
struct BitlineReadout
{
    Row256 andBits; ///< BL senses the AND of the two rows.
    Row256 norBits; ///< BLB senses the NOR of the two rows.
};

/**
 * An SRAM array of @p rows word-lines by 256 bit-lines supporting
 * single-row read/write and dual-row bit-line computing.
 */
class SramArray
{
  public:
    explicit SramArray(unsigned rows) : _rows(rows), data(rows) {}

    unsigned rows() const { return _rows; }

    /** Conventional single word-line read. */
    const Row256 &
    readRow(unsigned row) const
    {
        maicc_assert(row < _rows);
        ++reads;
        return data[row];
    }

    /** Conventional single word-line write. */
    void
    writeRow(unsigned row, const Row256 &value)
    {
        maicc_assert(row < _rows);
        ++writes;
        data[row] = value;
    }

    /**
     * Activate word-lines @p rowA and @p rowB together and sense the
     * bit-lines. The rows must differ: activating a row against
     * itself is not a defined bit-line computing operation.
     */
    BitlineReadout
    computeRows(unsigned rowA, unsigned rowB) const
    {
        maicc_assert(rowA < _rows && rowB < _rows);
        maicc_assert(rowA != rowB);
        ++computes;
        BitlineReadout out;
        out.andBits = data[rowA] & data[rowB];
        out.norBits = ~(data[rowA] | data[rowB]);
        return out;
    }

    /**
     * The operands of a bit-serial MAC: word-line rowA + i is
     * activated against rowB + j for every i, j < @p n, and all n^2
     * activations are counted. The two ranges must lie in the array
     * and be disjoint. Returns row 0 of the array; the caller reads
     * the AND of each pair from rows[rowA + i] and rows[rowB + j].
     */
    const Row256 *
    computeRowPairs(unsigned rowA, unsigned rowB, unsigned n) const
    {
        maicc_assert(rowA + n <= _rows && rowB + n <= _rows);
        maicc_assert(rowA + n <= rowB || rowB + n <= rowA);
        computes += uint64_t(n) * n;
        return data.data();
    }

    /** Direct (non-architectural) access for testing/debug. */
    Row256 &
    peekRow(unsigned row)
    {
        maicc_assert(row < _rows);
        return data[row];
    }

    uint64_t readCount() const { return reads; }
    uint64_t writeCount() const { return writes; }
    uint64_t computeCount() const { return computes; }

    void
    resetCounters()
    {
        reads = writes = computes = 0;
    }

  private:
    unsigned _rows;
    std::vector<Row256> data;
    mutable uint64_t reads = 0;
    uint64_t writes = 0;
    mutable uint64_t computes = 0;
};

} // namespace maicc

#endif // MAICC_SRAM_SRAM_ARRAY_HH
