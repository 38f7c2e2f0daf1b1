/**
 * Property tests: the bit-serial hardware MAC primitive must equal a
 * direct integer dot product for every precision, signedness, mask
 * setting, and random operand draw, in every host body of the MAC
 * loop. This is the equivalence that lets the many-core runtime
 * (src/runtime) use a fast direct dot product while remaining
 * faithful to the modelled hardware.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cmem/cmem.hh"
#include "common/random.hh"
#include "common/seeded_test.hh"

using namespace maicc;

namespace
{

/**
 * The dot product modulo 2^64 of the n-bit fields the MAC reads:
 * sign-extended when @p is_signed, else zero-extended. It is the
 * exact dot product whenever that fits in int64_t.
 */
uint64_t
modDot(const std::vector<int32_t> &a, const std::vector<int32_t> &b,
       unsigned n, bool is_signed)
{
    auto field = [n, is_signed](int32_t v) {
        uint64_t low = uint64_t(uint32_t(v)) & ((uint64_t(1) << n) - 1);
        uint64_t sign = uint64_t(1) << (n - 1);
        return is_signed ? (low ^ sign) - sign : low;
    };
    uint64_t s = 0;
    for (size_t k = 0; k < a.size(); ++k)
        s += field(a[k]) * field(b[k]);
    return s;
}

struct Body
{
    const char *name;
    MacBodyFn fn;
};

/**
 * The MAC bodies this CPU can run; says so when it skips the POPCNT
 * body.
 */
std::vector<Body>
runnableBodies()
{
    std::vector<Body> out{{"portable", macBodyPortable}};
    if (cpuHasPopcnt())
        out.push_back({"popcnt", macBodyPopcnt});
    else
        std::printf("[  SKIPPED ] popcnt body: this CPU cannot run it\n");
    return out;
}

/** MAC.C on slice @p s of @p cm, computed by @p body. */
int64_t
macWith(const Body &body, CMem &cm, unsigned s, unsigned base_a,
        unsigned base_b, unsigned n, bool is_signed)
{
    CMemEvents ev;
    return cm.slice(s).mac(base_a, base_b, n, is_signed, ev, body.fn);
}

} // namespace

class MacProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(MacProperty, BitSerialEqualsDirectDot)
{
    auto [n, is_signed] = GetParam();
    uint64_t seed =
        testseed::seedOrDefault(1000 + n * 2 + is_signed);
    MAICC_SEED_TRACE(seed);
    int64_t lo = is_signed ? -(int64_t(1) << (n - 1)) : 0;
    int64_t hi = is_signed ? (int64_t(1) << (n - 1)) - 1
                           : (int64_t(1) << n) - 1;
    for (const Body &body : runnableBodies()) {
        SCOPED_TRACE(body.name);
        Rng rng(seed);
        for (int trial = 0; trial < 24; ++trial) {
            CMem cm;
            std::vector<int32_t> a(256), b(256);
            for (auto &v : a)
                v = static_cast<int32_t>(rng.range(lo, hi));
            for (auto &v : b)
                v = static_cast<int32_t>(rng.range(lo, hi));
            unsigned slice = 1 + (trial % 7);
            cm.pokeVector(slice, 0, n, a);
            cm.pokeVector(slice, n, n, b);
            EXPECT_EQ(macWith(body, cm, slice, 0, n, n, is_signed),
                      int64_t(modDot(a, b, n, is_signed)))
                << "n=" << n << " signed=" << is_signed
                << " trial=" << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrecisions, MacProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 16u,
                                         31u, 32u),
                       ::testing::Bool()),
    [](const auto &info) {
        return "n" + std::to_string(std::get<0>(info.param))
            + (std::get<1>(info.param) ? "_signed" : "_unsigned");
    });

class MacMaskProperty : public ::testing::TestWithParam<uint8_t>
{
};

TEST_P(MacMaskProperty, MaskedMacEqualsMaskedDot)
{
    uint8_t mask = GetParam();
    uint64_t seed = testseed::seedOrDefault(777u + mask);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    CMem cm;
    std::vector<int32_t> a(256), b(256);
    for (auto &v : a)
        v = static_cast<int32_t>(rng.range(-128, 127));
    for (auto &v : b)
        v = static_cast<int32_t>(rng.range(-128, 127));
    cm.pokeVector(1, 0, 8, a);
    cm.pokeVector(1, 8, 8, b);
    cm.setMask(1, mask);
    int64_t want = 0;
    for (unsigned k = 0; k < 256; ++k) {
        if ((mask >> (k / 32)) & 1)
            want += int64_t(a[k]) * b[k];
    }
    for (const Body &body : runnableBodies())
        EXPECT_EQ(macWith(body, cm, 1, 0, 8, 8, true), want)
            << body.name;
}

INSTANTIATE_TEST_SUITE_P(MaskPatterns, MacMaskProperty,
                         ::testing::Values(0x00, 0x01, 0x80, 0x0F,
                                           0xF0, 0xA5, 0xFF));

/** MAC.C of a vector of @p a against one of @p b, all 256 lanes. */
void
expectExtreme(int32_t a, int32_t b, unsigned n, bool is_signed)
{
    std::vector<int32_t> va(256, a), vb(256, b);
    for (const Body &body : runnableBodies()) {
        CMem cm;
        cm.pokeVector(1, 0, n, va);
        cm.pokeVector(1, n, n, vb);
        EXPECT_EQ(uint64_t(macWith(body, cm, 1, 0, n, n, is_signed)),
                  modDot(va, vb, n, is_signed))
            << body.name << " n=" << n << " signed=" << is_signed;
    }
}

TEST(MacExtremes, AllMinTimesAllMin)
{
    // 256 * (-128 * -128) = 4194304; exercises sign-bit rows on
    // both operands simultaneously.
    ASSERT_EQ(modDot(std::vector<int32_t>(256, -128),
                     std::vector<int32_t>(256, -128), 8, true),
              256ULL * 128 * 128);
    expectExtreme(-128, -128, 8, true);
}

TEST(MacExtremes, MinTimesMax)
{
    ASSERT_EQ(int64_t(modDot(std::vector<int32_t>(256, -128),
                             std::vector<int32_t>(256, 127), 8,
                             true)),
              -256LL * 128 * 127);
    expectExtreme(-128, 127, 8, true);
}

TEST(MacExtremes, ZeroVectorGivesZero)
{
    expectExtreme(0, 77, 8, true);
}

TEST(MacExtremes, WideOperandsWrapModulo2To64)
{
    // The true sums need up to 72 bits; Res keeps them modulo 2^64
    // without signed overflow (UBSan aborts on the latter). min x max
    // and all-ones do not wrap to zero, so these check a value and
    // not just the absence of a trap.
    ASSERT_EQ(modDot(std::vector<int32_t>(256, INT32_MIN),
                     std::vector<int32_t>(256, INT32_MAX), 32, true),
              uint64_t(1) << 39);
    ASSERT_EQ(modDot(std::vector<int32_t>(256, -1),
                     std::vector<int32_t>(256, -1), 32, false),
              (uint64_t(1) << 8) - (uint64_t(1) << 41));
    for (unsigned n : {31u, 32u}) {
        int32_t min = int32_t(-(int64_t(1) << (n - 1)));
        int32_t max = int32_t((int64_t(1) << (n - 1)) - 1);
        int32_t ones = int32_t(uint32_t((uint64_t(1) << n) - 1));
        expectExtreme(min, min, n, true);
        expectExtreme(min, max, n, true);
        expectExtreme(ones, ones, n, false);
    }
}

TEST(MacBodies, MacAdvancesComputeCountByNSquared)
{
    for (unsigned n : {1u, 3u, 8u, 32u}) {
        CMem cm;
        const SramArray &arr = cm.slice(2).array();
        uint64_t before = arr.computeCount();
        cm.macc(2, 0, n, n, true);
        EXPECT_EQ(arr.computeCount() - before, uint64_t(n) * n)
            << "n=" << n;
        EXPECT_EQ(cm.events().macActivations, uint64_t(n) * n);
    }
}

TEST(MacBodies, DispatchPicksPopcntThenPortable)
{
    const MacBodyFn want =
        cpuHasPopcnt() ? macBodyPopcnt : macBodyPortable;
    EXPECT_EQ(macBody(), want);
    EXPECT_NE(macBody(), nullptr);
    std::printf("[  BODIES  ] popcnt: %s, portable: runs; "
                "macBody() = %s\n",
                cpuHasPopcnt() ? "runs" : "skipped",
                macBody() == macBodyPopcnt ? "popcnt" : "portable");
}

TEST(MacPlacement, OperandsAnywhereDisjoint)
{
    // Filters live at varying row offsets (Fig. 6); the primitive
    // must work for any disjoint placement.
    uint64_t seed = testseed::seedOrDefault(4242);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    CMem cm;
    std::vector<int32_t> a(256), b(256);
    for (auto &v : a)
        v = static_cast<int32_t>(rng.range(-8, 7));
    for (auto &v : b)
        v = static_cast<int32_t>(rng.range(-8, 7));
    for (unsigned base_b : {8u, 16u, 24u, 32u, 40u, 48u, 56u}) {
        cm.pokeVector(3, 0, 8, a);
        cm.pokeVector(3, base_b, 8, b);
        EXPECT_EQ(cm.macc(3, 0, base_b, 8, true),
                  int64_t(modDot(a, b, 8, true)))
            << "base_b=" << base_b;
    }
}
