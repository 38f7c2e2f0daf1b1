/**
 * @file
 * The block kernel (runtime/int8_dot.hh): every body against an int64
 * scalar dot product followed by the scalar `requantize`, over every
 * length up to 600, the layer shapes of ResNet18, every block width
 * (1..64 pixels), filter counts up to the 1000 of the FC head, the
 * residual add on and off, ReLU on and off, shifts 0..31, the -128/127
 * extremes, and 64 random shapes called back to back. The AMX and
 * AVX2 cases skip, saying so, on a host that cannot run them, so the
 * portable body is tested on every host; DotTileDispatch prints which
 * bodies this host runs.
 *
 * A shift that saturates most outputs would hide a wrong sum, so each
 * check either draws operands from [-3, 3] and shifts little, which
 * keeps the sums in int8 range and checks them exactly, or draws them
 * from the full int8 range and shifts by about the spread of the sums.
 *
 * Operands and outputs end exactly at a guard page: a body that reads
 * or writes past its last pixel, filter, residual or output faults.
 * ASan alone would miss that for the AMX body, whose tile loads are
 * inline asm.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/seeded_test.hh"
#include "nn/tensor.hh"
#include "runtime/int8_dot.hh"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

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

/** @p n values, from the full int8 range or (narrow) from [-3, 3]. */
std::vector<int8_t>
operands(Rng &rng, size_t n, bool narrow)
{
    std::vector<int8_t> v(n);
    for (auto &x : v)
        x = narrow ? int8_t(rng.range(-3, 3)) : rng.int8();
    return v;
}

/**
 * A shift that leaves a typical dot product of @p len operands drawn
 * as operands() draws them within about +-64: its spread is about
 * sqrt(len) times the spread of one product.
 */
unsigned
spreadShift(size_t len, bool narrow)
{
    const double product = narrow ? 4.0 : 128.0 * 128.0 / 3.0;
    const double spread = std::sqrt(double(len)) * product;
    return unsigned(std::max(0.0, std::ceil(std::log2(spread)) - 6));
}

/** A copy of some bytes that ends exactly at an inaccessible page. */
class GuardedBytes
{
  public:
    explicit GuardedBytes(const std::vector<int8_t> &bytes)
    {
        const size_t page = size_t(sysconf(_SC_PAGESIZE));
        const size_t pages = (bytes.size() + page - 1) / page;
        mapped = (pages + 1) * page;
        void *base = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::runtime_error("mmap failed");
        region = static_cast<int8_t *>(base);
        if (mprotect(region + pages * page, page, PROT_NONE) != 0) {
            munmap(region, mapped);
            throw std::runtime_error("mprotect failed");
        }
        start = region + pages * page - bytes.size();
        if (!bytes.empty())
            std::memcpy(start, bytes.data(), bytes.size());
    }
    ~GuardedBytes() { munmap(region, mapped); }

    GuardedBytes(const GuardedBytes &) = delete;
    GuardedBytes &operator=(const GuardedBytes &) = delete;

    int8_t *data() const { return start; }

  private:
    int8_t *region = nullptr;
    size_t mapped = 0;
    int8_t *start = nullptr;
};

/** One block call: its operands and aux-function settings. */
struct Block
{
    int nPx = 0, nFlt = 0;
    size_t len = 0;
    std::vector<int8_t> px, flt, res; ///< res empty: no residual add
    unsigned shift = 0;
    bool relu = false;

    /** Random operands; a residual when @p with_res. */
    static Block
    random(Rng &rng, int n_px, int n_flt, size_t len, bool narrow,
           bool with_res, bool relu)
    {
        Block b;
        b.nPx = n_px;
        b.nFlt = n_flt;
        b.len = len;
        b.px = operands(rng, size_t(n_px) * len, narrow);
        b.flt = operands(rng, size_t(n_flt) * len, narrow);
        if (with_res)
            b.res = operands(rng, size_t(n_px) * n_flt, false);
        b.shift = spreadShift(len, narrow);
        b.relu = relu;
        return b;
    }

    /** The scalar reference output of (pixel p, filter f). */
    int8_t
    want(int p, int f) const
    {
        int64_t sum = scalarDot(&px[size_t(p) * len],
                                &flt[size_t(f) * len], len);
        if (!res.empty())
            sum += int64_t(res[size_t(p) * nFlt + f]) << shift;
        EXPECT_EQ(sum, int64_t(int32_t(sum)));
        return requantize(int32_t(sum), shift, relu);
    }

    std::string
    describe() const
    {
        return "len " + std::to_string(len) + ", block "
            + std::to_string(nPx) + "x" + std::to_string(nFlt)
            + ", shift " + std::to_string(shift)
            + (relu ? ", relu" : "")
            + (res.empty() ? "" : ", residual");
    }
};

/** The checks every body runs; SetUp() picks the body. */
class BodyTest : public ::testing::Test
{
  protected:
    /** Use @p fn, or skip (saying so) when this host cannot run it. */
    void
    useBody(const char *name, DotBlockFn fn, bool runs)
    {
        if (!runs) {
            GTEST_SKIP() << "this CPU or OS cannot run the " << name
                         << " body";
        }
        body = fn;
        std::printf("[   BODY   ] %s\n", name);
    }

    /** Run @p b's call with guarded operands and outputs. */
    std::vector<int8_t>
    run(const Block &b)
    {
        GuardedBytes g_px(b.px), g_flt(b.flt);
        GuardedBytes g_res(b.res);
        GuardedBytes g_out(std::vector<int8_t>(
            size_t(b.nPx) * b.nFlt, int8_t(0x5a)));
        body(g_px.data(), b.nPx, g_flt.data(), b.nFlt, b.len,
             b.res.empty() ? nullptr : g_res.data(), b.shift, b.relu,
             g_out.data());
        return std::vector<int8_t>(
            g_out.data(), g_out.data() + size_t(b.nPx) * b.nFlt);
    }

    /** Compare @p out, the outputs of @p b, with the reference. */
    void
    expectOutputs(const Block &b, const std::vector<int8_t> &out)
    {
        for (int p = 0; p < b.nPx; ++p) {
            for (int f = 0; f < b.nFlt; ++f) {
                ASSERT_EQ(int(out[size_t(p) * b.nFlt + f]),
                          int(b.want(p, f)))
                    << b.describe() << ", pixel " << p << ", filter "
                    << f;
            }
        }
    }

    void check(const Block &b) { expectOutputs(b, run(b)); }

    void
    everyLengthUpTo600()
    {
        uint64_t seed = testseed::seedOrDefault(13);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        // Blocks of one to four pixel tiles with a filter tail; the
        // operand range and the aux settings cycle with the length.
        for (size_t len = 1; len <= 600; ++len) {
            check(Block::random(rng, 16 + 16 * int(len % 4),
                                16 + int(len % 3), len, len % 2,
                                len % 5 < 2, len % 3 == 0));
        }
    }

    void
    resNet18FilterSizes()
    {
        uint64_t seed = testseed::seedOrDefault(17);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        // R*S*C and filter count of every ResNet18 conv (7x7x3 stem,
        // 3x3 and 1x1 at 64..512 channels) and of the FC head, with
        // the pixel count cut where the shape is large.
        struct Shape
        {
            size_t len;
            int nFlt, nPx;
        };
        for (Shape s : {Shape{147, 64, 64}, Shape{576, 64, 64},
                        Shape{64, 128, 64}, Shape{1152, 128, 49},
                        Shape{128, 256, 33}, Shape{2304, 256, 17},
                        Shape{256, 512, 16}, Shape{4608, 512, 5},
                        Shape{512, 1000, 1}}) {
            for (bool narrow : {false, true})
                check(Block::random(rng, s.nPx, s.nFlt, s.len, narrow,
                                    !narrow, narrow));
        }
    }

    void
    edgeTiles()
    {
        uint64_t seed = testseed::seedOrDefault(19);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        // Lengths around the 4-byte VNNI group, the 16-byte AVX2
        // chunk and the 64-byte AMX chunk, and the 7x7x3 stem; every
        // block width, and filter counts around one and two tiles.
        int n = 0;
        for (size_t len : {1, 3, 4, 15, 16, 17, 63, 64, 65, 147}) {
            for (int n_px = 1; n_px <= kBlockPixels; ++n_px) {
                for (int n_flt : {1, 2, 3, 15, 16, 17, 31, 33}) {
                    ++n;
                    check(Block::random(rng, n_px, n_flt, len,
                                        n % 2, n % 3 == 0, n % 4 < 2));
                }
            }
        }
    }

    void
    filterCountsUpTo1000()
    {
        uint64_t seed = testseed::seedOrDefault(29);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        // Every count up to three filter tiles, odd tails of wider
        // layers, and the FC head's 1000 (a tail of 8).
        std::vector<int> counts;
        for (int n = 1; n <= 48; ++n)
            counts.push_back(n);
        for (int n : {97, 255, 511, 999, 1000})
            counts.push_back(n);
        for (int n_flt : counts) {
            check(Block::random(rng, 1 + n_flt % 5, n_flt,
                                65 + size_t(n_flt % 7), n_flt % 2,
                                n_flt % 3 != 0, n_flt % 4 < 2));
        }
        check(Block::random(rng, 1, 1000, 512, false, false, false));
    }

    void
    residualReluAndShifts()
    {
        uint64_t seed = testseed::seedOrDefault(31);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        for (bool narrow : {false, true}) {
            for (bool with_res : {false, true}) {
                for (bool relu : {false, true}) {
                    Block b = Block::random(rng, 37, 21, 200, narrow,
                                            with_res, relu);
                    // A residual shifted past 20 bits could overflow
                    // the int32 sum, which no layer does.
                    for (unsigned shift : {0u, 1u, 3u, 7u, 8u, 12u,
                                           16u, 20u, 31u}) {
                        if (with_res && shift > 20)
                            continue;
                        b.shift = shift;
                        check(b);
                    }
                }
            }
        }
    }

    void
    extremeOperands()
    {
        // -128 * -128 is the one product whose int16 pair sum
        // reaches 2^15; the longest ResNet18 filter keeps the int32
        // sum at its largest magnitude, positive (-128 x -128) and
        // negative (-128 x 127). Shift 20 keeps those sums in range,
        // so a wrong chunk shows; shift 0 saturates every output,
        // and the extreme residuals push the sum further out.
        const size_t len = 4608;
        for (int8_t a : {int8_t(-128), int8_t(127)}) {
            for (int8_t w : {int8_t(-128), int8_t(127)}) {
                for (unsigned shift : {0u, 20u}) {
                    for (int8_t r : {int8_t(-128), int8_t(127)}) {
                        Block b;
                        b.nPx = kBlockPixels;
                        b.nFlt = 16;
                        b.len = len;
                        b.px.assign(size_t(b.nPx) * len, a);
                        b.flt.assign(size_t(b.nFlt) * len, w);
                        b.res.assign(size_t(b.nPx) * b.nFlt, r);
                        b.shift = shift;
                        b.relu = r > 0;
                        check(b);
                    }
                }
            }
        }
        // Edge blocks and lengths that are no multiple of 4 on the
        // extremes: the 7x7x3 stem, and a 1000-filter block like the
        // FC head's.
        for (auto [n_px, n_flt, len] :
             {std::tuple{3, 1, size_t(147)}, std::tuple{7, 1000, size_t(513)},
              std::tuple{50, 24, size_t(147)}}) {
            Block b;
            b.nPx = n_px;
            b.nFlt = n_flt;
            b.len = len;
            b.px.assign(size_t(n_px) * len, -128);
            b.flt.assign(size_t(n_flt) * len, -128);
            b.shift = 16;
            check(b);
        }
    }

    void
    randomShapesInSequence()
    {
        uint64_t seed = testseed::seedOrDefault(23);
        MAICC_SEED_TRACE(seed);
        // Blocks of different shapes run back to back on one thread,
        // and every result must equal the reference: no tile
        // configuration outlives the call that loaded it.
        constexpr size_t kJobs = 64;
        Rng rng(seed);
        std::vector<Block> jobs;
        for (size_t j = 0; j < kJobs; ++j) {
            int n_px = 1 + int(rng.below(kBlockPixels));
            int n_flt = 1 + int(rng.below(40));
            size_t len = 1 + rng.below(1200);
            bool narrow = rng.below(2);
            jobs.push_back(Block::random(rng, n_px, n_flt, len, narrow,
                                         rng.below(2), rng.below(2)));
        }
        std::vector<std::vector<int8_t>> outs(kJobs);
        for (size_t j = 0; j < kJobs; ++j) {
            const Block &b = jobs[j];
            outs[j].resize(size_t(b.nPx) * b.nFlt);
            for (int rep = 0; rep < 8; ++rep) {
                body(b.px.data(), b.nPx, b.flt.data(), b.nFlt, b.len,
                     b.res.empty() ? nullptr : b.res.data(), b.shift,
                     b.relu, outs[j].data());
            }
        }
        for (size_t j = 0; j < kJobs; ++j)
            expectOutputs(jobs[j], outs[j]);
    }

    DotBlockFn body = nullptr;
};

/** The portable (false) and AVX2 (true) bodies. */
class DotTile : public BodyTest, public ::testing::WithParamInterface<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam())
            useBody("avx2", dotBlockAvx2, cpuHasAvx2());
        else
            useBody("portable", dotBlockPortable, true);
    }
};

/** The AMX body. */
class DotTileAmx : public BodyTest
{
  protected:
    void
    SetUp() override
    {
        useBody("amx", dotBlockAmx, cpuHasAmx());
    }
};

TEST_P(DotTile, EveryLengthUpTo600) { everyLengthUpTo600(); }
TEST_P(DotTile, ResNet18FilterSizes) { resNet18FilterSizes(); }
TEST_P(DotTile, EdgeTiles) { edgeTiles(); }
TEST_P(DotTile, FilterCountsUpTo1000) { filterCountsUpTo1000(); }
TEST_P(DotTile, ResidualReluAndShifts) { residualReluAndShifts(); }
TEST_P(DotTile, ExtremeOperands) { extremeOperands(); }
TEST_P(DotTile, RandomShapesInSequence) { randomShapesInSequence(); }

TEST_F(DotTileAmx, EveryLengthUpTo600) { everyLengthUpTo600(); }
TEST_F(DotTileAmx, ResNet18FilterSizes) { resNet18FilterSizes(); }
TEST_F(DotTileAmx, EdgeTiles) { edgeTiles(); }
TEST_F(DotTileAmx, FilterCountsUpTo1000) { filterCountsUpTo1000(); }
TEST_F(DotTileAmx, ResidualReluAndShifts) { residualReluAndShifts(); }
TEST_F(DotTileAmx, ExtremeOperands) { extremeOperands(); }
TEST_F(DotTileAmx, RandomShapesInSequence) { randomShapesInSequence(); }

#if defined(__x86_64__)
/** True when XGETBV with ECX = 1 (the XINUSE bitmap) is supported. */
bool
cpuHasXgetbv1()
{
    unsigned eax, ebx, ecx, edx;
    return __get_cpuid_count(0xd, 1, &eax, &ebx, &ecx, &edx)
        && (eax & (1u << 2));
}

/** XCR0 & XINUSE: the state components not in their initial state. */
uint64_t
xinuse()
{
    uint32_t lo, hi;
    asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
    return (uint64_t(hi) << 32) | lo;
}
#endif

TEST_F(DotTileAmx, ReleasesTileStateBeforeReturning)
{
#if defined(__x86_64__)
    if (!cpuHasXgetbv1())
        GTEST_SKIP() << "this CPU has no XGETBV with ECX = 1";
    // After the call the tile data (XTILEDATA, state component 18)
    // is back in its initial state: _tile_release() ran, so no later
    // code pays to save or restore 8 KB of tiles.
    Rng rng(testseed::seedOrDefault(37));
    check(Block::random(rng, kBlockPixels, 40, 300, false, true,
                        true));
    EXPECT_EQ(xinuse() & (uint64_t(1) << 18), 0u);
#else
    GTEST_SKIP() << "XGETBV is x86-64 only";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Bodies, DotTile, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "avx2" : "portable");
    });

TEST(DotTileDispatch, PicksAmxThenAvx2ThenPortable)
{
    const DotBlockFn want = cpuHasAmx() ? dotBlockAmx
        : cpuHasAvx2()                  ? dotBlockAvx2
                                        : dotBlockPortable;
    EXPECT_EQ(dotBlock(), want);
    EXPECT_NE(dotBlock(), nullptr);
    std::printf("[  BODIES  ] amx: %s, avx2: %s, portable: runs; "
                "dotBlock() = %s\n",
                cpuHasAmx() ? "runs" : "skipped",
                cpuHasAvx2() ? "runs" : "skipped",
                dotBlock() == dotBlockAmx    ? "amx"
                    : dotBlock() == dotBlockAvx2 ? "avx2"
                                                 : "portable");
}

} // namespace
