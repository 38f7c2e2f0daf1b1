/**
 * @file
 * The computing memory (CMem) of a MAICC node (paper §3.2).
 *
 * A 16 KB CMem is partitioned into eight slender 2 KB slices of
 * 64 word-lines x 256 bit-lines. Slice 0 is built from 8T cells and
 * supports both conventional byte addressing (vertical, used to
 * transpose data at runtime — Fig. 5) and row indexing; slices 1-7
 * are compute slices that only support row indexing and the
 * bit-serial primitives.
 *
 * The headline primitive is the hardware vector MAC (Fig. 4(b)):
 * for every bit-row pair (i, j) of two transposed n-bit vectors the
 * array senses the per-bit-line ANDs, an adder tree sums the 256
 * bit-lines, and the partial sum is shifted by (i + j) and
 * accumulated into the Res register. The full MAC takes n^2 cycles
 * and produces a scalar that is written back to a core register,
 * eliminating Neural Cache's reduction step.
 */

#ifndef MAICC_CMEM_CMEM_HH
#define MAICC_CMEM_CMEM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_component.hh"
#include "common/types.hh"
#include "sram/sram_array.hh"

namespace maicc
{

/** Geometry and timing parameters of one CMem (paper defaults). */
struct CMemConfig
{
    unsigned numSlices = 8;     ///< slice 0 + 7 compute slices
    unsigned rowsPerSlice = 64; ///< word-lines per slice
    // 256 bit-lines fixed by Row256.

    /** Bytes of storage: slices * rows * 256 / 8. */
    unsigned
    totalBytes() const
    {
        return numSlices * rowsPerSlice * Row256::numBits / 8;
    }
};

/** Dynamic-event counts a CMem accumulates; consumed by src/energy. */
struct CMemEvents
{
    uint64_t verticalWrites = 0;  ///< byte-equivalent writes, slice 0
    uint64_t verticalReads = 0;   ///< byte-equivalent reads, slice 0
    uint64_t macOps = 0;          ///< MAC.C instructions
    uint64_t macActivations = 0;  ///< dual word-line activations
    uint64_t moveRows = 0;        ///< rows moved by Move.C
    uint64_t setRows = 0;         ///< SetRow.C operations
    uint64_t shiftRows = 0;       ///< ShiftRow.C operations
    uint64_t rowLoads = 0;        ///< LoadRow.RC rows received
    uint64_t rowStores = 0;       ///< StoreRow.RC rows sent

    CMemEvents &operator+=(const CMemEvents &o);
};

/**
 * A host body of the MAC's n x n loop: the Res value of an n-bit
 * MAC of operand rows a[0, n) and b[0, n), counting only the
 * bit-lines set in @p enabled, exact modulo 2^64. Every body returns
 * the same integer; they differ only in how the host counts bits.
 */
using MacBodyFn = uint64_t (*)(const Row256 *a, const Row256 *b,
                               unsigned n, bool is_signed,
                               const Row256 &enabled);

/** The portable body; runs on every CPU. */
uint64_t macBodyPortable(const Row256 *a, const Row256 *b, unsigned n,
                         bool is_signed, const Row256 &enabled);

/**
 * The body that counts bits with the x86 POPCNT instruction, or
 * nullptr where it is not compiled (non-x86). Call it only when
 * cpuHasPopcnt() holds.
 */
extern const MacBodyFn macBodyPopcnt;

/** True when this CPU can run macBodyPopcnt. */
bool cpuHasPopcnt();

/** The body for this CPU: POPCNT if it can run, else portable. */
MacBodyFn macBody();

/**
 * One CMem slice: a 64x256 SRAM array plus the peripheral logic of
 * Fig. 8 (sense amplifiers, masked adder tree, shifter, Res
 * register) and the per-slice 8-bit mask CSR, each bit of which
 * gates a group of 32 bit-lines.
 */
class CMemSlice
{
  public:
    explicit CMemSlice(const CMemConfig &cfg = CMemConfig{});

    /** The mask CSR: bit g enables bit-lines 32g..32g+31. */
    void setMask(uint8_t mask) { maskCsr = mask; }
    uint8_t mask() const { return maskCsr; }

    /**
     * Bit-serial hardware MAC of two transposed n-bit vectors held
     * in this slice at word-lines [base_a, base_a+n) and
     * [base_b, base_b+n). Masked bit-lines do not contribute.
     *
     * @param is_signed two's-complement semantics (the sign-bit rows
     *        carry negative place weight).
     * @param body the host loop that computes it (tests pick one).
     * @return the accumulated Res register value, exact modulo 2^64:
     *         it equals the dot product whenever that fits in
     *         int64_t (n <= 27 always does).
     */
    int64_t mac(unsigned base_a, unsigned base_b, unsigned n,
                bool is_signed, CMemEvents &ev,
                MacBodyFn body = macBody()) const;

    /** SetRow.C: force every bit of a row to @p value. */
    void setRow(unsigned row, bool value, CMemEvents &ev);

    /** ShiftRow.C: shift a row by @p chunks 32-bit groups. */
    void shiftRow(unsigned row, int chunks, CMemEvents &ev);

    /** Raw row access (used by Move.C / LoadRow.RC / StoreRow.RC). */
    const Row256 &readRow(unsigned row) const;
    void writeRow(unsigned row, const Row256 &value);

    SramArray &array() { return sram; }
    const SramArray &array() const { return sram; }

  private:
    Row256 maskRow() const;

    SramArray sram;
    uint8_t maskCsr = 0xFF;
};

/**
 * A full CMem: slice 0 (transpose/cache) + compute slices, with the
 * instruction-level operations of Table 2 and their cycle costs.
 */
class CMem : public SimComponent
{
  public:
    explicit CMem(const CMemConfig &cfg = CMemConfig{});

    const CMemConfig &config() const { return cfg; }

    // ------------------------------------------------------------
    // Slice 0 vertical (byte) addressing — Fig. 5. A byte at address
    // b occupies bit-lines column (b % 256), word-lines
    // (b / 256) * 8 .. +7 (LSB in the lowest row). Conventional
    // load/store instructions see this window at 0x1000..0x17FF.
    // ------------------------------------------------------------

    /** Byte capacity of the vertical window (2048). */
    unsigned verticalBytes() const;

    void storeByte(unsigned addr, uint8_t value);
    uint8_t loadByte(unsigned addr) const;
    void storeWord(unsigned addr, uint32_t value);
    uint32_t loadWord(unsigned addr) const;

    // ------------------------------------------------------------
    // Extended-ISA operations (Table 2).
    // ------------------------------------------------------------

    /** MAC.C within one slice; returns the Res register value. */
    int64_t macc(unsigned slice, unsigned base_a, unsigned base_b,
                 unsigned n, bool is_signed = true);

    /** Move.C: copy an n-bit vector (n rows) between slices. */
    void move(unsigned src_slice, unsigned src_row, unsigned dst_slice,
              unsigned dst_row, unsigned n);

    /** SetRow.C. */
    void setRow(unsigned slice, unsigned row, bool value);

    /** ShiftRow.C. */
    void shiftRow(unsigned slice, unsigned row, int chunks);

    /** Architectural row read, e.g. the payload of StoreRow.RC. */
    Row256 readRowRemote(unsigned slice, unsigned row);

    /** Architectural row write, e.g. on LoadRow.RC arrival. */
    void writeRowRemote(unsigned slice, unsigned row,
                        const Row256 &value);

    /** Per-slice mask CSR accessors. */
    void setMask(unsigned slice, uint8_t mask);
    uint8_t mask(unsigned slice) const;

    // ------------------------------------------------------------
    // Cycle costs (Table 2). Static so schedulers can query them.
    // ------------------------------------------------------------

    static Cycles maccCycles(unsigned n) { return Cycles(n) * n; }
    static Cycles moveCycles(unsigned n) { return n; }
    static Cycles setRowCycles() { return 1; }
    static Cycles shiftRowCycles() { return 2; }
    static Cycles rowXferCycles() { return 1; }

    CMemSlice &slice(unsigned idx);
    const CMemSlice &slice(unsigned idx) const;

    const CMemEvents &events() const { return ev; }
    void resetEvents() { ev = CMemEvents{}; }

    /** Zero every slice's storage, masks, and the event counts. */
    void reset() override;

    /** Publish the CMemEvents counts into stats(). */
    void recordStats() override;

    // ------------------------------------------------------------
    // Test/convenience helpers (not architectural).
    // ------------------------------------------------------------

    /** Place an n-bit transposed vector in a slice directly. */
    void pokeVector(unsigned slice, unsigned base_row, unsigned n,
                    std::span<const int32_t> values);

    /** Read an n-bit transposed vector back. */
    std::vector<int32_t> peekVector(unsigned slice, unsigned base_row,
                                    unsigned n, unsigned count,
                                    bool is_signed) const;

  private:
    CMemConfig cfg;
    std::vector<CMemSlice> slices;
    mutable CMemEvents ev;
};

} // namespace maicc

#endif // MAICC_CMEM_CMEM_HH
