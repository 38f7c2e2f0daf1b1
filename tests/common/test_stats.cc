#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/seeded_test.hh"
#include "common/stats.hh"

using namespace maicc;

TEST(Stats, CounterIncrements)
{
    StatGroup g("node0");
    g.counter("macOps").inc();
    g.counter("macOps").inc(9);
    EXPECT_EQ(g.get("macOps"), 10u);
    EXPECT_EQ(g.get("missing"), 0u);
}

TEST(Stats, CounterNameIsQualified)
{
    StatGroup g("node0.cmem");
    EXPECT_EQ(g.counter("macOps").name(), "node0.cmem.macOps");
    StatGroup root;
    EXPECT_EQ(root.counter("cycles").name(), "cycles");
}

TEST(Stats, SummaryTracksMinMaxMean)
{
    StatGroup g;
    auto &s = g.summary("lat");
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(Stats, EmptySummaryIsZero)
{
    StatGroup g;
    auto &s = g.summary("lat");
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(Stats, ResetAllZeroesEverything)
{
    StatGroup g;
    g.counter("a").inc(5);
    g.summary("b").sample(1.0);
    g.resetAll();
    EXPECT_EQ(g.get("a"), 0u);
    EXPECT_EQ(g.summary("b").count(), 0u);
}

TEST(Stats, DumpContainsNamesAndValues)
{
    StatGroup g("x");
    g.counter("hits").inc(3);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("x.hits"), std::string::npos);
    EXPECT_NE(os.str().find("3"), std::string::npos);
}

TEST(Stats, MergeFromAddsCountersAndSummaries)
{
    // The replay pattern of the sim cache: a stored group's
    // deltas merged into a live one.
    StatGroup owner("node");
    owner.counter("macOps").inc(10);
    owner.summary("iter").sample(2.0);

    StatGroup shard;
    shard.counter("macOps").inc(32);
    shard.counter("rowMoves").inc(7);
    shard.summary("iter").sample(8.0);
    shard.summary("iter").sample(4.0);

    owner.mergeFrom(shard);
    EXPECT_EQ(owner.get("macOps"), 42u);
    EXPECT_EQ(owner.get("rowMoves"), 7u);
    const auto &s = owner.summary("iter");
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 14.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(Stats, MergeOrderInvariantTotals)
{
    // Counter totals and summary count/sum/min/max are the same
    // whichever order shards merge (the engine fixes shard order
    // anyway; this shows the stats side is not the fragile part).
    StatGroup a, b, ab, ba;
    a.counter("c").inc(3);
    a.summary("s").sample(1.5);
    b.counter("c").inc(4);
    b.summary("s").sample(-2.5);
    ab.mergeFrom(a);
    ab.mergeFrom(b);
    ba.mergeFrom(b);
    ba.mergeFrom(a);
    EXPECT_EQ(ab.get("c"), ba.get("c"));
    EXPECT_DOUBLE_EQ(ab.summary("s").sum(), ba.summary("s").sum());
    EXPECT_DOUBLE_EQ(ab.summary("s").min(), ba.summary("s").min());
    EXPECT_DOUBLE_EQ(ab.summary("s").max(), ba.summary("s").max());
}

TEST(Stats, MergeEmptySummaryKeepsState)
{
    StatGroup a, empty;
    a.summary("s").sample(5.0);
    a.mergeFrom(empty);
    EXPECT_EQ(a.summary("s").count(), 1u);
    EXPECT_DOUBLE_EQ(a.summary("s").min(), 5.0);
}

TEST(Stats, HistogramNearestRankPercentiles)
{
    StatGroup g;
    auto &h = g.histogram("lat");
    // 1..100 in scrambled order: percentile p must be exactly p.
    for (int v = 100; v >= 1; --v)
        h.sample(double(v));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(95), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Stats, HistogramPercentileMonotoneInP)
{
    // The serving acceptance criterion p99 >= p95 >= p50 must hold
    // for any sample set, including tiny and duplicated ones.
    StatHistogram h("h");
    for (double v : {7.0, 7.0, 3.0, 42.0, 1.0})
        h.sample(v);
    double p50 = h.percentile(50);
    double p95 = h.percentile(95);
    double p99 = h.percentile(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p99, h.max());
}

TEST(Stats, HistogramSingleSampleAndEmpty)
{
    StatHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
    h.sample(13.0);
    EXPECT_DOUBLE_EQ(h.percentile(1), 13.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 13.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 13.0);
}

TEST(Stats, HistogramMergeAndResetAll)
{
    StatGroup owner, shard;
    owner.histogram("lat").sample(1.0);
    shard.histogram("lat").sample(3.0);
    shard.histogram("lat").sample(2.0);
    owner.mergeFrom(shard);
    EXPECT_EQ(owner.histogram("lat").count(), 3u);
    EXPECT_DOUBLE_EQ(owner.histogram("lat").percentile(100), 3.0);
    owner.resetAll();
    EXPECT_EQ(owner.histogram("lat").count(), 0u);
}

TEST(Stats, HistogramDumpShowsPercentiles)
{
    StatGroup g("srv");
    for (int i = 1; i <= 10; ++i)
        g.histogram("latency").sample(double(i));
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("srv.latency"), std::string::npos);
    EXPECT_NE(os.str().find("p99"), std::string::npos);
}

TEST(Stats, SelectedPercentilesMatchTheHistogram)
{
    // The serving summary's selection path must return exactly the
    // values StatHistogram::percentile does, on tied and on random
    // samples, at the sizes where the nearest rank changes.
    const std::vector<double> ps = {0, 1, 50, 94.9, 95, 99, 99.5,
                                    100};
    uint64_t seed = testseed::seedOrDefault(20);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    for (size_t n : {0u, 1u, 2u, 19u, 20u, 21u, 1000u}) {
        for (bool tied : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << n << " samples, tied " << tied);
            StatHistogram h;
            std::vector<double> v;
            for (size_t i = 0; i < n; ++i) {
                double x = tied ? double(rng.below(3))
                                : double(rng.below(1u << 20));
                h.sample(x);
                v.push_back(x);
            }
            std::vector<double> got = selectPercentiles(v, ps);
            ASSERT_EQ(got.size(), ps.size());
            for (size_t k = 0; k < ps.size(); ++k)
                EXPECT_EQ(got[k], h.percentile(ps[k])) << ps[k];
            // A single selection agrees as well.
            std::vector<double> w = h.samples();
            EXPECT_EQ(selectPercentiles(w, {99})[0],
                      h.percentile(99));
        }
    }
}
