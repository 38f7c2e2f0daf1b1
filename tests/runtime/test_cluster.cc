/**
 * @file
 * Acceptance suite for the multi-chip sharded serving tier
 * (src/runtime/cluster.hh, DESIGN.md §14):
 *
 *  - `chips=1` is the single-chip path: the ClusterSimulator's
 *    aggregate is bitwise identical to a plain ServingSimulator run
 *    and its --stats-json registry dump is *byte*-identical (the
 *    legacy component layout);
 *  - multi-chip runs are bitwise deterministic across reruns and
 *    with the timing-result cache off/cold/warm, for
 *    every dispatch policy;
 *  - dispatch mechanics: round-robin spreads a simultaneous burst
 *    cyclically, shard masks pin models to their registered chips,
 *    least-loaded prefers the idle shard where round-robin's
 *    pointer walks on, model-affinity returns to the warm shard
 *    where least-loaded would re-balance;
 *  - cluster-level admission control: when every eligible shard's
 *    waiting room is full the arrival is rejected, while large
 *    waiting rooms drain the same burst completely;
 *  - randomized cross-shard conservation with the in-loop ledger /
 *    region self-checks on (seed-overridable via MAICC_TEST_SEED);
 *  - the stats hierarchy: aggregate on `cluster`, slices on
 *    `cluster.chipK`, the shared profiler on `cluster.profiler`.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/seeded_test.hh"
#include "common/serving_fixtures.hh"
#include "common/sim_component.hh"
#include "runtime/cluster.hh"
#include "runtime/sim_cache.hh"

using namespace maicc;
using testserv::ModelFixture;
using testserv::Workload;
using testserv::expectIdenticalResults;
using testserv::tinyConvNet;

namespace
{

ServingConfig
baseConfig()
{
    ServingConfig cfg;
    cfg.seed = 11;
    cfg.offeredRequests = 18;
    cfg.meanInterarrival = 80'000;
    return cfg;
}

/** One cluster run; returns (result, stats-JSON registry dump). */
std::pair<ClusterResult, std::string>
runCluster(const Workload &w, ServingConfig cfg,
           TimingResultCache *cache = nullptr)
{
    SimContext ctx;
    auto c = w.cluster(std::move(cfg));
    c->setTimingCache(cache);
    c->attach(ctx);
    ClusterResult r = c->run();
    return {std::move(r), ctx.statsToJson().dump()};
}

void
expectIdenticalClusterResults(const ClusterResult &a,
                              const ClusterResult &b,
                              const char *what)
{
    SCOPED_TRACE(what);
    expectIdenticalResults(a.aggregate, b.aggregate, "aggregate");
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (size_t i = 0; i < a.shards.size(); ++i) {
        std::string label = "shard " + std::to_string(i);
        expectIdenticalResults(a.shards[i], b.shards[i],
                               label.c_str());
    }
}

TEST(Cluster, SingleChipMatchesServingSimulatorByteForByte)
{
    Workload w;
    ServingConfig cfg = baseConfig();

    SimContext plain_ctx;
    auto plain = w.simulator(cfg);
    plain->attachTo(plain_ctx);
    ServingResult r = plain->run();
    std::string plain_json = plain_ctx.statsToJson().dump();

    auto [c, cluster_json] = runCluster(w, cfg);
    EXPECT_EQ(c.aggregate.rejected, r.rejected);
    expectIdenticalResults(r, c.aggregate, "plain vs chips=1");
    ASSERT_EQ(c.shards.size(), 1u);
    expectIdenticalResults(r, c.shards[0], "plain vs shard slice");
    // The whole registry dump, byte for byte: with one chip the
    // cluster attaches only the inner simulator under the legacy
    // "serving" name.
    EXPECT_EQ(plain_json, cluster_json);
}

TEST(Cluster, SingleChipAttachUsesLegacyComponentLayout)
{
    Workload w;
    SimContext ctx;
    auto c = w.cluster(baseConfig());
    c->attach(ctx);
    EXPECT_NE(ctx.find("serving"), nullptr);
    EXPECT_EQ(ctx.find("cluster"), nullptr);
}

TEST(Cluster, MultiChipBitwiseDeterministicAcrossRerunsAndCache)
{
    Workload w;
    const ShardPolicy policies[] = {ShardPolicy::RoundRobin,
                                    ShardPolicy::LeastLoaded,
                                    ShardPolicy::ModelAffinity};
    for (ShardPolicy policy : policies) {
        SCOPED_TRACE(shardPolicyName(policy));
        ServingConfig cfg = baseConfig();
        cfg.chips = 3;
        cfg.shardPolicy = policy;
        cfg.queueCapacity = 3; // force some dispatcher rejections
        cfg.sloCycles = 400'000;

        auto [base, base_json] = runCluster(w, cfg);
        ASSERT_GT(base.aggregate.completed, 0u);

        auto [rerun, rerun_json] = runCluster(w, cfg);
        expectIdenticalClusterResults(base, rerun, "rerun");
        EXPECT_EQ(base_json, rerun_json);

        ServingConfig cached = cfg;
        cached.system.simCacheEntries = 32;
        TimingResultCache cache;
        auto [cold, cold_json] = runCluster(w, cached, &cache);
        EXPECT_GT(cache.insertions(), 0u);
        auto [warm, warm_json] = runCluster(w, cached, &cache);
        EXPECT_GT(cache.hits(), 0u);
        expectIdenticalClusterResults(base, cold, "cache cold");
        expectIdenticalClusterResults(base, warm, "cache warm");
        EXPECT_EQ(base_json, cold_json);
        EXPECT_EQ(base_json, warm_json);
    }
}

TEST(Cluster, RoundRobinSpreadsSimultaneousBurstCyclically)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.chips = 4;
    cfg.arrivals = ArrivalProcess::Trace;
    auto c = w.cluster(cfg);
    std::istringstream trace("0 camera\n0 camera\n0 camera\n"
                             "0 camera\n0 camera\n0 camera\n"
                             "0 camera\n0 camera\n");
    ASSERT_TRUE(c->loadTrace(trace));
    ClusterResult r = c->run();
    EXPECT_EQ(r.aggregate.rejected, 0u);
    EXPECT_EQ(r.aggregate.completed, 8u);
    ASSERT_EQ(r.aggregate.requests.size(), 8u);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(r.aggregate.requests[i].shard, i % 4)
            << "request " << i;
    }
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(r.shards[s].offered, 2u) << "shard " << s;
}

TEST(Cluster, ShardMaskPinsModelsToRegisteredChips)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.chips = 2;
    auto c = std::make_unique<ClusterSimulator>(cfg);
    // Camera only on chip 0, radar only on chip 1.
    c->addModel(w.camera.served("camera", 3.0), 0b01);
    c->addModel(w.radar.served("radar", 1.0), 0b10);
    ClusterResult r = c->run();
    ASSERT_GT(r.aggregate.offered, 0u);
    bool saw_camera = false, saw_radar = false;
    for (const RequestRecord &req : r.aggregate.requests) {
        if (req.rejected)
            continue;
        EXPECT_EQ(req.shard, req.model == 0 ? 0u : 1u)
            << "request " << req.id;
        (req.model == 0 ? saw_camera : saw_radar) = true;
    }
    EXPECT_TRUE(saw_camera);
    EXPECT_TRUE(saw_radar);
}

TEST(Cluster, RejectsWhenEveryEligibleShardIsFull)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.chips = 2;
    cfg.arrivals = ArrivalProcess::Trace;
    cfg.queueCapacity = 1;
    cfg.system.coreBudget = 20; // one camera region per chip
    const char *burst =
        "0 camera\n0 camera\n0 camera\n0 camera\n0 camera\n"
        "0 camera\n0 camera\n0 camera\n0 camera\n0 camera\n"
        "0 camera\n0 camera\n";

    // Tight waiting rooms: one running + one queued per chip when
    // the whole burst lands at once; the other eight arrivals find
    // every shard full and bounce at the dispatcher.
    auto tight = w.cluster(cfg);
    std::istringstream in1(burst);
    ASSERT_TRUE(tight->loadTrace(in1));
    ClusterResult r = tight->run();
    EXPECT_EQ(r.aggregate.offered, 12u);
    EXPECT_EQ(r.aggregate.completed, 4u);
    EXPECT_EQ(r.aggregate.rejected, 8u);
    EXPECT_EQ(r.aggregate.pending, 0u);
    EXPECT_EQ(r.shards[0].offered, 2u);
    EXPECT_EQ(r.shards[1].offered, 2u);

    // The same burst with room to queue blocks instead of
    // rejecting, and drains completely (later, since the tail now
    // waits its turn instead of disappearing).
    ServingConfig roomy = cfg;
    roomy.queueCapacity = 64;
    auto blocking = w.cluster(roomy);
    std::istringstream in2(burst);
    ASSERT_TRUE(blocking->loadTrace(in2));
    ClusterResult b = blocking->run();
    EXPECT_EQ(b.aggregate.rejected, 0u);
    EXPECT_EQ(b.aggregate.completed, 12u);
    EXPECT_GT(b.aggregate.endCycle, r.aggregate.endCycle);
}

TEST(Cluster, LeastLoadedPrefersIdleShardOverRoundRobinWalk)
{
    // A long-running model pinned to chip 1, then a small request
    // while it is still running: round-robin's pointer walks on to
    // chip 2, least-loaded goes back to the fully idle chip 0.
    ModelFixture wide(tinyConvNet("wide", 128), 45);
    ModelFixture tiny(tinyConvNet("tiny", 8), 41);
    auto run_with = [&](ShardPolicy policy) {
        ServingConfig cfg = baseConfig();
        cfg.chips = 3;
        cfg.shardPolicy = policy;
        cfg.arrivals = ArrivalProcess::Trace;
        auto c = std::make_unique<ClusterSimulator>(cfg);
        c->addModel(wide.served("wide"), 0b010);
        c->addModel(tiny.served("tiny"));
        std::istringstream trace("0 wide\n1000 tiny\n");
        EXPECT_TRUE(c->loadTrace(trace));
        return c->run();
    };

    ClusterResult rr = run_with(ShardPolicy::RoundRobin);
    ASSERT_EQ(rr.aggregate.requests.size(), 2u);
    // Precondition: the wide model is still running at cycle 1000,
    // or the load-based distinction below is vacuous.
    ASSERT_GT(rr.aggregate.requests[0].finish, 1000u);
    EXPECT_EQ(rr.aggregate.requests[0].shard, 1u);
    EXPECT_EQ(rr.aggregate.requests[1].shard, 2u);

    ClusterResult ll = run_with(ShardPolicy::LeastLoaded);
    EXPECT_EQ(ll.aggregate.requests[0].shard, 1u);
    EXPECT_EQ(ll.aggregate.requests[1].shard, 0u);
}

TEST(Cluster, ModelAffinityReturnsToWarmShard)
{
    // First round warms camera onto chip 0 and radar onto chip 1;
    // after both drain, the second round repeats the models.
    // Affinity follows the warmth; least-loaded re-balances by its
    // idle-tie and free-core rules and lands the opposite way.
    Workload w;
    auto run_with = [&](ShardPolicy policy) {
        ServingConfig cfg = baseConfig();
        cfg.chips = 2;
        cfg.shardPolicy = policy;
        cfg.arrivals = ArrivalProcess::Trace;
        auto c = w.cluster(cfg);
        std::istringstream trace("0 camera\n"
                                 "0 radar\n"
                                 "5000000 radar\n"
                                 "5000001 camera\n");
        EXPECT_TRUE(c->loadTrace(trace));
        return c->run();
    };

    ClusterResult affinity = run_with(ShardPolicy::ModelAffinity);
    ASSERT_EQ(affinity.aggregate.requests.size(), 4u);
    // Precondition: round one has drained before round two starts.
    ASSERT_LT(affinity.aggregate.requests[1].finish, 5'000'000u);
    EXPECT_EQ(affinity.aggregate.requests[0].shard, 0u);
    EXPECT_EQ(affinity.aggregate.requests[1].shard, 1u);
    EXPECT_EQ(affinity.aggregate.requests[2].shard, 1u); // warm
    EXPECT_EQ(affinity.aggregate.requests[3].shard, 0u); // warm

    ClusterResult ll = run_with(ShardPolicy::LeastLoaded);
    EXPECT_EQ(ll.aggregate.requests[2].shard, 0u); // idle tie
    EXPECT_EQ(ll.aggregate.requests[3].shard, 1u); // most free
}

TEST(Cluster, RandomizedCrossShardConservation)
{
    Workload w;
    const ShardPolicy policies[] = {ShardPolicy::RoundRobin,
                                    ShardPolicy::LeastLoaded,
                                    ShardPolicy::ModelAffinity};
    for (uint64_t seed : testseed::seeds({101, 202})) {
        MAICC_SEED_TRACE(seed);
        for (unsigned chips : {2u, 3u}) {
            for (ShardPolicy policy : policies) {
                SCOPED_TRACE(::testing::Message()
                             << chips << " chips, "
                             << shardPolicyName(policy));
                ServingConfig cfg = baseConfig();
                cfg.seed = seed;
                cfg.offeredRequests = 20;
                cfg.meanInterarrival = 70'000;
                cfg.queueCapacity = 4;
                cfg.chips = chips;
                cfg.shardPolicy = policy;
                cfg.selfCheck = true; // in-loop ledger/region check

                ClusterResult r = w.cluster(cfg)->run();
                const ServingResult &agg = r.aggregate;
                EXPECT_EQ(agg.completed + agg.pending
                              + agg.rejected,
                          agg.offered);

                // Every dispatched request lives on exactly one
                // shard, and the slices partition the aggregate.
                uint64_t sliced_offered = 0, sliced_completed = 0;
                ASSERT_EQ(r.shards.size(), chips);
                for (unsigned s = 0; s < chips; ++s) {
                    const ServingResult &sl = r.shards[s];
                    sliced_offered += sl.offered;
                    sliced_completed += sl.completed;
                    EXPECT_EQ(sl.completed + sl.pending,
                              sl.offered);
                    EXPECT_EQ(sl.rejected, 0u);
                    EXPECT_EQ(sl.endCycle, agg.endCycle);
                    for (const RequestRecord &req : sl.requests)
                        EXPECT_EQ(req.shard, s);
                }
                EXPECT_EQ(sliced_offered + agg.rejected,
                          agg.offered);
                EXPECT_EQ(sliced_completed, agg.completed);
                for (const RequestRecord &req : agg.requests) {
                    if (!req.rejected) {
                        EXPECT_LT(req.shard, chips);
                    }
                }

                // The merged timeline is monotone and bounded by
                // the cluster-wide core pool.
                ASSERT_FALSE(agg.coreTimeline.empty());
                for (size_t i = 0; i < agg.coreTimeline.size();
                     ++i) {
                    if (i) {
                        EXPECT_LE(agg.coreTimeline[i - 1].cycle,
                                  agg.coreTimeline[i].cycle);
                    }
                    EXPECT_LE(
                        agg.coreTimeline[i].usedCores,
                        chips * cfg.system.coreBudget);
                }

                ClusterResult rerun = w.cluster(cfg)->run();
                expectIdenticalClusterResults(r, rerun, "rerun");
            }
        }
    }
}

TEST(Cluster, StatsHierarchyPublishesAggregateAndPerChipSlices)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.chips = 2;
    SimContext ctx;
    auto c = w.cluster(cfg);
    c->attach(ctx);
    ClusterResult r = c->run();

    SimComponent *cluster = ctx.find("cluster");
    ASSERT_NE(cluster, nullptr);
    EXPECT_EQ(ctx.find("serving"), nullptr);
    EXPECT_NE(ctx.find("cluster.profiler"), nullptr);
    EXPECT_EQ(cluster->stats().get("chips"), 2u);
    EXPECT_EQ(cluster->stats().get("offered"),
              r.aggregate.offered);
    EXPECT_EQ(cluster->stats().get("completed"),
              r.aggregate.completed);
    for (unsigned s = 0; s < 2; ++s) {
        SimComponent *chip =
            ctx.find("cluster.chip" + std::to_string(s));
        ASSERT_NE(chip, nullptr) << "chip " << s;
        EXPECT_EQ(chip->stats().get("offered"),
                  r.shards[s].offered);
        EXPECT_EQ(chip->stats().get("completed"),
                  r.shards[s].completed);
    }
}

} // namespace
