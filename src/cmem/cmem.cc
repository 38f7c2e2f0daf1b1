#include "cmem/cmem.hh"

#include <bit>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "sram/transpose.hh"

#if defined(__x86_64__) || defined(__i386__)
#define MAICC_HAVE_POPCNT_BODY 1
#endif

namespace maicc
{

namespace
{

/**
 * The n x n loop of a MAC, written once. It is always inlined, so
 * each body compiles it for its own target: the popcount of a row
 * becomes four POPCNT instructions in the target("popcnt") body and
 * four libgcc calls in the portable one (baseline x86-64).
 *
 * Res is accumulated in uint64_t, which wraps: two's-complement
 * addition is the same modulo 2^64 in any order, so the result is
 * the dot product modulo 2^64 with no overflow for n up to 32.
 */
[[gnu::always_inline]] inline uint64_t
macLoop(const Row256 *a, const Row256 *b, unsigned n, bool is_signed,
        const Row256 &enabled)
{
    uint64_t res = 0;
    for (unsigned i = 0; i < n; ++i) {
        const Row256 ai = a[i] & enabled;
        for (unsigned j = 0; j < n; ++j) {
            // The adder tree: enabled bit-lines where both rows hold 1.
            const Row256 &bj = b[j];
            unsigned psum = std::popcount(ai.w[0] & bj.w[0])
                + std::popcount(ai.w[1] & bj.w[1])
                + std::popcount(ai.w[2] & bj.w[2])
                + std::popcount(ai.w[3] & bj.w[3]);
            uint64_t term = uint64_t(psum) << (i + j);
            // Two's complement: the top bit-row of each operand
            // carries weight -2^(n-1); the product term's sign is
            // the product of the operand-row signs.
            bool negative = is_signed && ((i == n - 1) != (j == n - 1));
            res += negative ? 0 - term : term;
        }
    }
    return res;
}

#ifdef MAICC_HAVE_POPCNT_BODY
__attribute__((target("popcnt"))) uint64_t
macBodyPopcntImpl(const Row256 *a, const Row256 *b, unsigned n,
                  bool is_signed, const Row256 &enabled)
{
    return macLoop(a, b, n, is_signed, enabled);
}
#endif

} // namespace

uint64_t
macBodyPortable(const Row256 *a, const Row256 *b, unsigned n,
                bool is_signed, const Row256 &enabled)
{
    return macLoop(a, b, n, is_signed, enabled);
}

#ifdef MAICC_HAVE_POPCNT_BODY
const MacBodyFn macBodyPopcnt = macBodyPopcntImpl;

bool
cpuHasPopcnt()
{
    return __builtin_cpu_supports("popcnt");
}
#else
const MacBodyFn macBodyPopcnt = nullptr;

bool
cpuHasPopcnt()
{
    return false;
}
#endif

MacBodyFn
macBody()
{
    static const MacBodyFn chosen =
        cpuHasPopcnt() ? macBodyPopcnt : macBodyPortable;
    return chosen;
}

CMemEvents &
CMemEvents::operator+=(const CMemEvents &o)
{
    verticalWrites += o.verticalWrites;
    verticalReads += o.verticalReads;
    macOps += o.macOps;
    macActivations += o.macActivations;
    moveRows += o.moveRows;
    setRows += o.setRows;
    shiftRows += o.shiftRows;
    rowLoads += o.rowLoads;
    rowStores += o.rowStores;
    return *this;
}

CMemSlice::CMemSlice(const CMemConfig &cfg) : sram(cfg.rowsPerSlice)
{
}

Row256
CMemSlice::maskRow() const
{
    Row256 m;
    for (unsigned g = 0; g < 8; ++g) {
        if ((maskCsr >> g) & 1)
            m.setGroup32(g, 0xFFFFFFFFu);
    }
    return m;
}

int64_t
CMemSlice::mac(unsigned base_a, unsigned base_b, unsigned n,
               bool is_signed, CMemEvents &ev, MacBodyFn body) const
{
    maicc_assert(n >= 1 && n <= 32);
    // The two operand vectors must occupy disjoint word-lines:
    // bit-line computing activates one row of each per cycle.
    const Row256 *rows = sram.computeRowPairs(base_a, base_b, n);
    uint64_t res =
        body(rows + base_a, rows + base_b, n, is_signed, maskRow());
    ev.macOps += 1;
    ev.macActivations += static_cast<uint64_t>(n) * n;
    return static_cast<int64_t>(res);
}

void
CMemSlice::setRow(unsigned row, bool value, CMemEvents &ev)
{
    Row256 r;
    r.fill(value);
    sram.writeRow(row, r);
    ev.setRows += 1;
}

void
CMemSlice::shiftRow(unsigned row, int chunks, CMemEvents &ev)
{
    Row256 r = sram.readRow(row);
    sram.writeRow(row, r.shifted32(chunks));
    ev.shiftRows += 1;
}

const Row256 &
CMemSlice::readRow(unsigned row) const
{
    return sram.readRow(row);
}

void
CMemSlice::writeRow(unsigned row, const Row256 &value)
{
    sram.writeRow(row, value);
}

CMem::CMem(const CMemConfig &config) : SimComponent("cmem"), cfg(config)
{
    maicc_assert(cfg.numSlices >= 1);
    slices.reserve(cfg.numSlices);
    for (unsigned i = 0; i < cfg.numSlices; ++i)
        slices.emplace_back(cfg);
}

void
CMem::reset()
{
    slices.clear();
    for (unsigned i = 0; i < cfg.numSlices; ++i)
        slices.emplace_back(cfg);
    ev = CMemEvents{};
    SimComponent::reset();
}

void
CMem::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("verticalWrites", ev.verticalWrites);
    publish("verticalReads", ev.verticalReads);
    publish("macOps", ev.macOps);
    publish("macActivations", ev.macActivations);
    publish("moveRows", ev.moveRows);
    publish("setRows", ev.setRows);
    publish("shiftRows", ev.shiftRows);
    publish("rowLoads", ev.rowLoads);
    publish("rowStores", ev.rowStores);
}

unsigned
CMem::verticalBytes() const
{
    return cfg.rowsPerSlice * Row256::numBits / 8;
}

void
CMem::storeByte(unsigned addr, uint8_t value)
{
    maicc_assert(addr < verticalBytes());
    unsigned col = addr % Row256::numBits;
    unsigned base_row = (addr / Row256::numBits) * 8;
    SramArray &arr = slices[0].array();
    for (unsigned bit = 0; bit < 8; ++bit) {
        Row256 row = arr.readRow(base_row + bit);
        row.set(col, (value >> bit) & 1);
        arr.writeRow(base_row + bit, row);
    }
    ev.verticalWrites += 1;
}

uint8_t
CMem::loadByte(unsigned addr) const
{
    maicc_assert(addr < verticalBytes());
    unsigned col = addr % Row256::numBits;
    unsigned base_row = (addr / Row256::numBits) * 8;
    const SramArray &arr = slices[0].array();
    uint8_t value = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
        if (arr.readRow(base_row + bit).get(col))
            value |= 1u << bit;
    }
    ev.verticalReads += 1;
    return value;
}

void
CMem::storeWord(unsigned addr, uint32_t value)
{
    for (unsigned b = 0; b < 4; ++b)
        storeByte(addr + b, static_cast<uint8_t>(value >> (8 * b)));
}

uint32_t
CMem::loadWord(unsigned addr) const
{
    uint32_t value = 0;
    for (unsigned b = 0; b < 4; ++b)
        value |= static_cast<uint32_t>(loadByte(addr + b)) << (8 * b);
    return value;
}

int64_t
CMem::macc(unsigned slice_idx, unsigned base_a, unsigned base_b,
           unsigned n, bool is_signed)
{
    return slice(slice_idx).mac(base_a, base_b, n, is_signed, ev);
}

void
CMem::move(unsigned src_slice, unsigned src_row, unsigned dst_slice,
           unsigned dst_row, unsigned n)
{
    CMemSlice &src = slice(src_slice);
    CMemSlice &dst = slice(dst_slice);
    maicc_assert(src_row + n <= cfg.rowsPerSlice);
    maicc_assert(dst_row + n <= cfg.rowsPerSlice);
    for (unsigned i = 0; i < n; ++i)
        dst.writeRow(dst_row + i, src.readRow(src_row + i));
    ev.moveRows += n;
}

void
CMem::setRow(unsigned slice_idx, unsigned row, bool value)
{
    slice(slice_idx).setRow(row, value, ev);
}

void
CMem::shiftRow(unsigned slice_idx, unsigned row, int chunks)
{
    slice(slice_idx).shiftRow(row, chunks, ev);
}

Row256
CMem::readRowRemote(unsigned slice_idx, unsigned row)
{
    ev.rowStores += 1;
    return slice(slice_idx).readRow(row);
}

void
CMem::writeRowRemote(unsigned slice_idx, unsigned row,
                     const Row256 &value)
{
    ev.rowLoads += 1;
    slice(slice_idx).writeRow(row, value);
}

void
CMem::setMask(unsigned slice_idx, uint8_t mask)
{
    slice(slice_idx).setMask(mask);
}

uint8_t
CMem::mask(unsigned slice_idx) const
{
    return slice(slice_idx).mask();
}

CMemSlice &
CMem::slice(unsigned idx)
{
    maicc_assert(idx < slices.size());
    return slices[idx];
}

const CMemSlice &
CMem::slice(unsigned idx) const
{
    maicc_assert(idx < slices.size());
    return slices[idx];
}

void
CMem::pokeVector(unsigned slice_idx, unsigned base_row, unsigned n,
                 std::span<const int32_t> values)
{
    writeTransposed(slice(slice_idx).array(), base_row, n, values);
}

std::vector<int32_t>
CMem::peekVector(unsigned slice_idx, unsigned base_row, unsigned n,
                 unsigned count, bool is_signed) const
{
    return readTransposed(slice(slice_idx).array(), base_row, n,
                          count, is_signed);
}

} // namespace maicc
