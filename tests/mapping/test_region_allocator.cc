/**
 * @file
 * Differential suite for the word-level RegionAllocator
 * (mapping/placement.hh): seeded random sequences of
 * allocateContiguous, release and markDead run against a naive
 * one-bool-per-slot first-fit model defined here, on region sizes
 * below, at and across the 64-slot word boundary. After every step
 * the grant, the free and dead counts, the longest free run and the
 * longest possible run (which pins the cache markDead refreshes)
 * must all agree.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/seeded_test.hh"
#include "mapping/placement.hh"

using namespace maicc;

namespace
{

/** The obvious slot-by-slot allocator the word-level one must
 * match. */
class NaiveRegion
{
  public:
    explicit NaiveRegion(unsigned n) : used(n, false), dead(n, false)
    {}

    RegionGrant
    allocateContiguous(unsigned count)
    {
        if (count == 0 || count > freeNodes())
            return {};
        unsigned run = 0;
        for (unsigned i = 0; i < used.size(); ++i) {
            run = used[i] ? 0 : run + 1;
            if (run == count) {
                unsigned first = i + 1 - count;
                std::fill(used.begin() + first, used.begin() + i + 1,
                          true);
                return {first, count};
            }
        }
        return {};
    }

    void
    release(const RegionGrant &g)
    {
        std::fill(used.begin() + g.first,
                  used.begin() + g.first + g.count, false);
    }

    void
    markDead(unsigned slot)
    {
        used[slot] = true;
        dead[slot] = true;
    }

    unsigned
    freeNodes() const
    {
        return unsigned(std::count(used.begin(), used.end(), false));
    }

    unsigned
    deadNodes() const
    {
        return unsigned(std::count(dead.begin(), dead.end(), true));
    }

    static unsigned
    longestRun(const std::vector<bool> &taken)
    {
        unsigned best = 0, run = 0;
        for (bool t : taken) {
            run = t ? 0 : run + 1;
            best = std::max(best, run);
        }
        return best;
    }

    std::vector<bool> used;
    std::vector<bool> dead;
};

ArrayGeometry
lineOf(unsigned n)
{
    ArrayGeometry geo;
    geo.computeW = int(n);
    geo.computeH = 1;
    return geo;
}

void
expectSameState(const RegionAllocator &got, const NaiveRegion &want)
{
    ASSERT_EQ(got.totalNodes(), want.used.size());
    EXPECT_EQ(got.freeNodes(), want.freeNodes());
    EXPECT_EQ(got.deadNodes(), want.deadNodes());
    EXPECT_EQ(got.longestFreeRun(), NaiveRegion::longestRun(want.used));
    EXPECT_EQ(got.longestPossibleRun(),
              NaiveRegion::longestRun(want.dead));
    for (unsigned s = 0; s < got.totalNodes(); ++s) {
        ASSERT_EQ(got.used(s), want.used[s]) << "slot " << s;
        ASSERT_EQ(got.dead(s), want.dead[s]) << "slot " << s;
    }
}

} // namespace

TEST(RegionAllocatorDifferential, MatchesNaiveFirstFitOnEveryGeometry)
{
    for (unsigned n : {1u, 63u, 64u, 65u, 210u, 256u}) {
        for (uint64_t seed : testseed::seeds({11, 12, 13})) {
            MAICC_SEED_TRACE(seed);
            SCOPED_TRACE(::testing::Message() << n << " slots");
            Rng rng(seed * 1000 + n);
            RegionAllocator got(lineOf(n));
            NaiveRegion want(n);
            std::vector<RegionGrant> live;
            expectSameState(got, want);

            for (int step = 0; step < 2000; ++step) {
                uint64_t op = rng.below(16);
                if (op < 9) {
                    // Mostly small requests, sometimes up to the
                    // whole region or past it.
                    unsigned count = rng.below(4) == 0
                        ? unsigned(rng.below(n + 2))
                        : unsigned(rng.below(std::min(n, 24u) + 1));
                    RegionGrant g = got.allocateContiguous(count);
                    RegionGrant w = want.allocateContiguous(count);
                    ASSERT_EQ(g.first, w.first) << "count " << count;
                    ASSERT_EQ(g.count, w.count) << "count " << count;
                    if (!g.empty())
                        live.push_back(g);
                } else if (op < 15) {
                    if (live.empty())
                        continue;
                    size_t k = rng.below(live.size());
                    got.release(live[k]);
                    want.release(live[k]);
                    live.erase(live.begin() + long(k));
                } else {
                    // Core loss: a batch holding the victim is
                    // released first, as the serving layer does;
                    // an already-dead victim is a no-op.
                    unsigned slot = unsigned(rng.below(n));
                    auto hit = std::find_if(
                        live.begin(), live.end(),
                        [&](const RegionGrant &g) {
                            return g.contains(slot);
                        });
                    if (hit != live.end()) {
                        got.release(*hit);
                        want.release(*hit);
                        live.erase(hit);
                    }
                    got.markDead(slot);
                    want.markDead(slot);
                }
                expectSameState(got, want);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(RegionAllocatorDifferential, DeadSlotsSplitThePossibleRun)
{
    // 130 slots span three words; killing slots at word seams must
    // update the longest possible run at once.
    RegionAllocator region(lineOf(130));
    EXPECT_EQ(region.longestPossibleRun(), 130u);
    region.markDead(64);
    EXPECT_EQ(region.longestPossibleRun(), 65u);
    region.markDead(63);
    EXPECT_EQ(region.longestPossibleRun(), 65u);
    region.markDead(128);
    EXPECT_EQ(region.longestPossibleRun(), 63u);
    region.markDead(128); // idempotent
    EXPECT_EQ(region.deadNodes(), 3u);
    EXPECT_EQ(region.freeNodes(), 127u);
    // A run that crosses a word seam is found whole.
    RegionGrant g = region.allocateContiguous(63);
    EXPECT_EQ(g.first, 0u);
    g = region.allocateContiguous(63);
    EXPECT_EQ(g.first, 65u);
    EXPECT_EQ(region.longestFreeRun(), 1u); // slot 129
    EXPECT_TRUE(region.allocateContiguous(2).empty());
}
