/**
 * @file
 * The int8 dot-product tile (runtime/int8_dot.hh): every body against
 * an int64 scalar dot product, over every length up to 600, the R*S*C
 * sizes of ResNet18, every tile shape (1..16 pixels x 1..16 filters),
 * full-range operands including the all -128 extreme, and 64 random
 * tile shapes called back to back. The AMX and AVX2 cases skip, saying so, on a
 * host that cannot run them, so the portable body is tested on every
 * host; DotTileDispatch prints which bodies this host runs.
 *
 * Operands end exactly at a guard page: a body that reads past its
 * last pixel or filter faults. ASan alone would miss that for the AMX
 * body, whose tile loads are inline asm.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
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
        std::memcpy(start, bytes.data(), bytes.size());
    }
    ~GuardedBytes() { munmap(region, mapped); }

    GuardedBytes(const GuardedBytes &) = delete;
    GuardedBytes &operator=(const GuardedBytes &) = delete;

    const int8_t *data() const { return start; }

  private:
    int8_t *region = nullptr;
    size_t mapped = 0;
    int8_t *start = nullptr;
};

/** Marks the sums a body must leave unwritten. */
constexpr int32_t kUntouched = 0x5a5a5a5a;

/** The checks every body runs; SetUp() picks the body. */
class BodyTest : public ::testing::Test
{
  protected:
    /** Use @p fn, or skip (saying so) when this host cannot run it. */
    void
    useBody(const char *name, DotTileFn fn, bool runs)
    {
        if (!runs) {
            GTEST_SKIP() << "this CPU or OS cannot run the " << name
                         << " body";
        }
        body = fn;
        std::printf("[   BODY   ] %s\n", name);
    }

    /**
     * Run one tile on guarded operands of exactly the size it may
     * read, and check every in-range sum against the scalar dot
     * product and every other entry for being left unwritten.
     */
    void
    check(const std::vector<int8_t> &px, int n_px,
          const std::vector<int8_t> &flt, int n_flt, size_t len)
    {
        ASSERT_EQ(px.size(), size_t(n_px) * len);
        ASSERT_EQ(flt.size(), size_t(n_flt) * len);
        GuardedBytes g_px(px), g_flt(flt);
        std::vector<int32_t> sums(kTilePixels * kTileFilters,
                                  kUntouched);
        body(g_px.data(), n_px, g_flt.data(), n_flt, len, sums.data());
        for (int p = 0; p < kTilePixels; ++p) {
            for (int f = 0; f < kTileFilters; ++f) {
                int32_t got = sums[p * kTileFilters + f];
                int64_t want = p < n_px && f < n_flt
                    ? scalarDot(&px[p * len], &flt[f * len], len)
                    : kUntouched;
                ASSERT_EQ(got, want)
                    << "len " << len << ", tile " << n_px << "x"
                    << n_flt << ", pixel " << p << ", filter " << f;
            }
        }
    }

    void
    checkFull(Rng &rng, int n_px, int n_flt, size_t len)
    {
        check(fullRange(rng, n_px * len), n_px,
              fullRange(rng, n_flt * len), n_flt, len);
    }

    void
    everyLengthUpTo600()
    {
        uint64_t seed = testseed::seedOrDefault(13);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        for (size_t len = 1; len <= 600; ++len)
            checkFull(rng, kTilePixels, kTileFilters, len);
    }

    void
    resNet18FilterSizes()
    {
        uint64_t seed = testseed::seedOrDefault(17);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        // R*S*C of every ResNet18 conv (7x7x3 stem, 3x3 and 1x1 at
        // 64..512 channels) and of the FC head.
        for (size_t len :
             {147, 576, 64, 1152, 128, 2304, 256, 4608, 512}) {
            checkFull(rng, kTilePixels, kTileFilters, len);
        }
    }

    void
    edgeTiles()
    {
        uint64_t seed = testseed::seedOrDefault(19);
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        // Lengths around the 4-byte VNNI group, the 16-byte AVX2
        // chunk and the 64-byte AMX chunk, and the 7x7x3 stem.
        for (size_t len : {1, 3, 4, 15, 16, 17, 63, 64, 65, 147}) {
            for (int n_px = 1; n_px <= kTilePixels; ++n_px) {
                for (int n_flt = 1; n_flt <= kTileFilters; ++n_flt)
                    checkFull(rng, n_px, n_flt, len);
            }
        }
    }

    void
    extremeOperands()
    {
        // -128 * -128 is the one product whose int16 pair sum
        // reaches 2^15; the longest ResNet18 filter keeps the int32
        // sum at its largest magnitude, positive (-128 x -128) and
        // negative (-128 x 127).
        const size_t len = 4608;
        const size_t px_bytes = size_t(kTilePixels) * len;
        const size_t flt_bytes = size_t(kTileFilters) * len;
        std::vector<int8_t> lows(px_bytes, -128);
        std::vector<int8_t> highs(flt_bytes, 127);
        check(lows, kTilePixels, std::vector<int8_t>(flt_bytes, -128),
              kTileFilters, len);
        check(lows, kTilePixels, highs, kTileFilters, len);
        check(std::vector<int8_t>(px_bytes, 127), kTilePixels, highs,
              kTileFilters, len);
        // Edge tiles and lengths that are no multiple of 4 on the
        // extremes: the 7x7x3 stem, and an 8-filter tile like the
        // last of the FC head's 1000 filters.
        check(std::vector<int8_t>(3 * 147, -128), 3,
              std::vector<int8_t>(147, -128), 1, 147);
        check(std::vector<int8_t>(7 * 513, -128), 7,
              std::vector<int8_t>(8 * 513, -128), 8, 513);
    }

    void
    randomShapesInSequence()
    {
        uint64_t seed = testseed::seedOrDefault(23);
        MAICC_SEED_TRACE(seed);
        // Tiles of different shapes run back to back on one thread,
        // and every result must equal the scalar dot product: no
        // tile configuration outlives the call that loaded it.
        constexpr size_t kJobs = 64;
        struct Job
        {
            int n_px, n_flt;
            size_t len;
            std::vector<int8_t> px, flt;
            std::vector<int32_t> sums;
        };
        Rng rng(seed);
        std::vector<Job> jobs(kJobs);
        for (size_t j = 0; j < kJobs; ++j) {
            Job &job = jobs[j];
            job.n_px = 1 + int(rng.below(kTilePixels));
            job.n_flt = 1 + int(rng.below(kTileFilters));
            job.len = 1 + rng.below(1200);
            job.px = fullRange(rng, job.n_px * job.len);
            job.flt = fullRange(rng, job.n_flt * job.len);
            job.sums.assign(kTilePixels * kTileFilters, kUntouched);
        }
        for (Job &job : jobs) {
            for (int rep = 0; rep < 8; ++rep) {
                body(job.px.data(), job.n_px, job.flt.data(),
                     job.n_flt, job.len, job.sums.data());
            }
        }
        for (const Job &job : jobs) {
            for (int p = 0; p < job.n_px; ++p) {
                for (int f = 0; f < job.n_flt; ++f) {
                    ASSERT_EQ(job.sums[p * kTileFilters + f],
                              scalarDot(&job.px[p * job.len],
                                        &job.flt[f * job.len],
                                        job.len))
                        << "len " << job.len << ", tile " << job.n_px
                        << "x" << job.n_flt;
                }
            }
        }
    }

    DotTileFn body = nullptr;
};

/** The portable (false) and AVX2 (true) bodies. */
class DotTile : public BodyTest, public ::testing::WithParamInterface<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam())
            useBody("avx2", dotTileAvx2, cpuHasAvx2());
        else
            useBody("portable", dotTilePortable, true);
    }
};

/** The AMX body. */
class DotTileAmx : public BodyTest
{
  protected:
    void
    SetUp() override
    {
        useBody("amx", dotTileAmx, cpuHasAmx());
    }
};

TEST_P(DotTile, EveryLengthUpTo600) { everyLengthUpTo600(); }
TEST_P(DotTile, ResNet18FilterSizes) { resNet18FilterSizes(); }
TEST_P(DotTile, EdgeTiles) { edgeTiles(); }
TEST_P(DotTile, ExtremeOperands) { extremeOperands(); }
TEST_P(DotTile, RandomShapesInSequence) { randomShapesInSequence(); }

TEST_F(DotTileAmx, EveryLengthUpTo600) { everyLengthUpTo600(); }
TEST_F(DotTileAmx, ResNet18FilterSizes) { resNet18FilterSizes(); }
TEST_F(DotTileAmx, EdgeTiles) { edgeTiles(); }
TEST_F(DotTileAmx, ExtremeOperands) { extremeOperands(); }
TEST_F(DotTileAmx, RandomShapesInSequence) { randomShapesInSequence(); }

INSTANTIATE_TEST_SUITE_P(
    Bodies, DotTile, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "avx2" : "portable");
    });

TEST(DotTileDispatch, PicksAmxThenAvx2ThenPortable)
{
    const DotTileFn want = cpuHasAmx() ? dotTileAmx
        : cpuHasAvx2()                 ? dotTileAvx2
                                       : dotTilePortable;
    EXPECT_EQ(dotTile(), want);
    EXPECT_NE(dotTile(), nullptr);
    std::printf("[  BODIES  ] amx: %s, avx2: %s, portable: runs; "
                "dotTile() = %s\n",
                cpuHasAmx() ? "runs" : "skipped",
                cpuHasAvx2() ? "runs" : "skipped",
                dotTile() == dotTileAmx    ? "amx"
                    : dotTile() == dotTileAvx2 ? "avx2"
                                               : "portable");
}

} // namespace
