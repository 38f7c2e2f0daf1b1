/**
 * @file
 * Acceptance suite for the timing-result cache
 * (src/runtime/sim_cache.hh, DESIGN.md §13):
 *
 *  - the determinism contract: a fixed-seed serving run is bitwise
 *    identical with the cache off, cold, and warm, and so is its
 *    --stats-json registry dump;
 *  - key derivation: the host-side simCacheEntries is excluded,
 *    every simulated knob (SystemConfig subtree,
 *    network, plan, batch) fragments the key;
 *  - LRU mechanics: eviction at capacity, recency order, counter
 *    accounting, reset();
 *  - cross-instance reuse: a second simulator hits on the first's
 *    insertions.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/serving_fixtures.hh"
#include "common/sim_component.hh"
#include "nn/network.hh"
#include "runtime/serving.hh"
#include "runtime/sim_cache.hh"

using namespace maicc;

// Model bundles, the camera/radar workload (same shapes as
// test_serving), and the bitwise result comparison come from the
// shared fixtures (tests/common/serving_fixtures.hh).
using testserv::Workload;
using testserv::expectIdenticalResults;

namespace
{

ServingConfig
baseConfig(unsigned cache_entries)
{
    ServingConfig cfg;
    cfg.seed = 7;
    cfg.offeredRequests = 16;
    cfg.meanInterarrival = 150'000;
    cfg.system.simCacheEntries = cache_entries;
    return cfg;
}

/** One serving run; returns (result, stats-JSON registry dump). */
std::pair<ServingResult, std::string>
runOnce(const Workload &w, ServingConfig cfg,
        TimingResultCache *cache)
{
    SimContext ctx;
    auto sim = w.simulator(std::move(cfg));
    sim->setTimingCache(cache);
    sim->attachTo(ctx);
    ServingResult r = sim->run();
    return {std::move(r), ctx.statsToJson().dump()};
}

/** A key for the workload's camera model under @p sys. */
TimingKey
cameraKey(const Workload &w, const SystemConfig &sys,
          unsigned cores = 30, unsigned batch = 1)
{
    MappingPlan plan =
        planMapping(w.camera.net, Strategy::Heuristic, cores);
    return makeTimingKey(w.camera.net, plan, batch, sys);
}

CachedRun
dummyRun(Cycles cycles)
{
    CachedRun c;
    c.totalCycles = cycles;
    return c;
}

TEST(SimCache, ColdAndWarmRunsMatchUncachedBitwise)
{
    Workload w;
    auto [off, off_json] = runOnce(w, baseConfig(0), nullptr);

    TimingResultCache cache;
    auto [cold, cold_json] =
        runOnce(w, baseConfig(8), &cache);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_GT(cache.insertions(), 0u);

    auto [warm, warm_json] = runOnce(w, baseConfig(8), &cache);
    EXPECT_GT(cache.hits(), 0u);

    expectIdenticalResults(off, cold, "cache off vs cold");
    expectIdenticalResults(off, warm, "cache off vs warm");
    EXPECT_EQ(off_json, cold_json);
    EXPECT_EQ(off_json, warm_json);
}

TEST(SimCache, StatsJsonByteIdenticalAcrossReruns)
{
    Workload w;
    std::string golden;
    for (unsigned entries : {0u, 8u}) {
        ServingConfig cfg = baseConfig(entries);
        TimingResultCache cache;
        // Cold then warm under the same private cache; with the
        // cache off, two plain reruns.
        auto [cold, cold_json] =
            runOnce(w, cfg, entries ? &cache : nullptr);
        auto [warm, warm_json] =
            runOnce(w, cfg, entries ? &cache : nullptr);
        if (golden.empty())
            golden = cold_json;
        EXPECT_EQ(cold_json, golden) << entries << " entries (cold)";
        EXPECT_EQ(warm_json, golden) << entries << " entries (warm)";
    }
    EXPECT_FALSE(golden.empty());
}

TEST(SimCache, SecondSimulatorInstanceReusesEntries)
{
    Workload w;
    TimingResultCache cache;
    auto [first, first_json] = runOnce(w, baseConfig(8), &cache);
    uint64_t misses_after_first = cache.misses();
    EXPECT_EQ(cache.hits(), 0u);

    // A fresh simulator (as a sweep builds per load point) probes
    // the same profiles: every lookup hits, none miss.
    auto [second, second_json] = runOnce(w, baseConfig(8), &cache);
    EXPECT_EQ(cache.misses(), misses_after_first);
    EXPECT_GT(cache.hits(), 0u);
    expectIdenticalResults(first, second, "first vs second instance");
    EXPECT_EQ(first_json, second_json);
}

TEST(SimCache, HostSideKnobsExcludedFromKey)
{
    Workload w;
    SystemConfig a, b;
    a.simCacheEntries = 4;
    b.simCacheEntries = 64;
    EXPECT_EQ(cameraKey(w, a).material, cameraKey(w, b).material);
    EXPECT_EQ(cameraKey(w, a).hash, cameraKey(w, b).hash);
}

TEST(SimCache, SimulatedKnobsFragmentKey)
{
    Workload w;
    SystemConfig base;
    TimingKey k0 = cameraKey(w, base);

    SystemConfig llc = base;
    llc.llc.sizeBytes *= 2;
    EXPECT_NE(cameraKey(w, llc).material, k0.material);

    SystemConfig noc = base;
    noc.noc.routerLatency += 1;
    EXPECT_NE(cameraKey(w, noc).material, k0.material);

    // Different region size → different plan → different key.
    EXPECT_NE(cameraKey(w, base, 40).material, k0.material);

    // Different batch size → different key.
    EXPECT_NE(cameraKey(w, base, 30, 4).material, k0.material);

    // Different network (the radar model) → different key.
    MappingPlan radar_plan =
        planMapping(w.radar.net, Strategy::Heuristic, 30);
    TimingKey radar_key =
        makeTimingKey(w.radar.net, radar_plan, 1, base);
    EXPECT_NE(radar_key.material, k0.material);
}

TEST(SimCache, ConfigChangeMissesInsteadOfAliasing)
{
    Workload w;
    TimingResultCache cache;
    cache.setCapacity(8);
    SystemConfig base;
    cache.insert(cameraKey(w, base), dummyRun(100));

    SystemConfig other = base;
    other.noc.routerLatency += 1;
    EXPECT_EQ(cache.lookup(cameraKey(w, other)), nullptr);
    const CachedRun *hit = cache.lookup(cameraKey(w, base));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->totalCycles, 100u);
}

TEST(SimCache, EvictsLeastRecentAtCapacity)
{
    Workload w;
    TimingResultCache cache;
    cache.setCapacity(2);
    SystemConfig base;
    TimingKey a = cameraKey(w, base, 30);
    TimingKey b = cameraKey(w, base, 40);
    TimingKey c = cameraKey(w, base, 50);

    cache.insert(a, dummyRun(1));
    cache.insert(b, dummyRun(2));
    ASSERT_NE(cache.lookup(a), nullptr); // a is now most recent
    cache.insert(c, dummyRun(3));        // evicts b, not a

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_EQ(cache.lookup(b), nullptr);
    EXPECT_NE(cache.lookup(c), nullptr);
}

TEST(SimCache, ShrinkingCapacityEvictsImmediately)
{
    Workload w;
    TimingResultCache cache;
    cache.setCapacity(3);
    SystemConfig base;
    cache.insert(cameraKey(w, base, 30), dummyRun(1));
    cache.insert(cameraKey(w, base, 40), dummyRun(2));
    cache.insert(cameraKey(w, base, 50), dummyRun(3));
    EXPECT_EQ(cache.size(), 3u);

    cache.setCapacity(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    // The survivor is the most recently inserted entry.
    EXPECT_NE(cache.lookup(cameraKey(w, base, 50)), nullptr);
}

TEST(SimCache, ZeroCapacityDropsInserts)
{
    Workload w;
    TimingResultCache cache;
    SystemConfig base;
    cache.insert(cameraKey(w, base), dummyRun(1));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_EQ(cache.lookup(cameraKey(w, base)), nullptr);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SimCache, ResetClearsEntriesAndCounters)
{
    Workload w;
    TimingResultCache cache;
    cache.setCapacity(4);
    SystemConfig base;
    cache.insert(cameraKey(w, base), dummyRun(1));
    ASSERT_NE(cache.lookup(cameraKey(w, base)), nullptr);

    cache.reset();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(SimCache, RecordStatsPublishesCounters)
{
    Workload w;
    SimContext ctx;
    TimingResultCache cache;
    cache.attachTo(ctx);
    cache.setCapacity(1);
    SystemConfig base;
    cache.insert(cameraKey(w, base, 30), dummyRun(1));
    cache.insert(cameraKey(w, base, 40), dummyRun(2));
    cache.lookup(cameraKey(w, base, 40));
    cache.lookup(cameraKey(w, base, 30));

    cache.recordStats();
    EXPECT_EQ(cache.stats().get("hits"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
    EXPECT_EQ(cache.stats().get("insertions"), 2u);
    EXPECT_EQ(cache.stats().get("evictions"), 1u);
    EXPECT_EQ(cache.stats().get("entries"), 1u);
}

} // namespace
