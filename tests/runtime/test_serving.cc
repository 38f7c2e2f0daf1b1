/**
 * @file
 * Acceptance suite for the request-driven serving layer
 * (src/runtime/serving.hh):
 *
 *  - a fixed-seed serving run is bitwise identical on a second,
 *    freshly built simulator;
 *  - reported p99 >= p95 >= p50 >= the minimum single-request
 *    service latency;
 *  - completed + pending + rejected == offered, under draining,
 *    cutoff, and admission-control configurations, and a request
 *    no shard can ever hold is rejected, never stranded;
 *  - mean latency is non-decreasing across an offered-load sweep
 *    (the scaled-arrival coupling in generateArrivals);
 *  - trace-file arrivals and same-model batching behave as
 *    documented.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "common/rand_network.hh"
#include "common/serving_fixtures.hh"
#include "nn/network.hh"
#include "runtime/serving.hh"

using namespace maicc;

// Model bundles, the camera/radar workload, and the bitwise result
// comparison are the shared fixtures (tests/common/
// serving_fixtures.hh), deduplicated across the serving suites.
using testserv::ModelFixture;
using testserv::Workload;
using testserv::expectIdenticalResults;

namespace
{

ServingConfig
baseConfig()
{
    ServingConfig cfg;
    cfg.seed = 7;
    cfg.offeredRequests = 24;
    cfg.meanInterarrival = 200'000;
    return cfg;
}

} // namespace

TEST(Serving, FreshSimulatorsAreBitwiseIdentical)
{
    Workload w;
    ServingResult first = w.simulator(baseConfig())->run();
    ASSERT_GT(first.completed, 0u);
    expectIdenticalResults(first, w.simulator(baseConfig())->run(),
                           "second simulator");
}

TEST(Serving, PercentileOrderingAndServiceFloor)
{
    Workload w;
    ServingResult r = w.simulator(baseConfig())->run();
    ASSERT_GT(r.completed, 0u);
    EXPECT_GT(r.minServiceLatency, 0u);
    EXPECT_GE(r.p95, r.p50);
    EXPECT_GE(r.p99, r.p95);
    // Every latency includes a full service time, so even the
    // median cannot undercut the fastest isolated inference.
    EXPECT_GE(r.p50, double(r.minServiceLatency));
    for (const auto &req : r.requests) {
        if (req.completed) {
            EXPECT_GE(req.latency(), r.minServiceLatency);
        }
    }
}

TEST(Serving, RequestAccountingBalances)
{
    Workload w;

    // Draining run: everything offered completes.
    ServingResult drained = w.simulator(baseConfig())->run();
    EXPECT_EQ(drained.completed + drained.pending
                  + drained.rejected,
              drained.offered);
    EXPECT_EQ(drained.pending, 0u);
    EXPECT_EQ(drained.rejected, 0u);

    // Tight admission control forces rejections.
    ServingConfig tight = baseConfig();
    tight.queueCapacity = 1;
    tight.meanInterarrival = 20'000;
    ServingResult rejected = w.simulator(tight)->run();
    EXPECT_EQ(rejected.completed + rejected.pending
                  + rejected.rejected,
              rejected.offered);
    EXPECT_GT(rejected.rejected, 0u);

    // A cutoff strands late work as pending.
    ServingConfig cut = baseConfig();
    cut.cutoff = 400'000;
    ServingResult pending = w.simulator(cut)->run();
    EXPECT_EQ(pending.completed + pending.pending
                  + pending.rejected,
              pending.offered);
    EXPECT_GT(pending.pending, 0u);
    EXPECT_EQ(pending.endCycle, 400'000u);
}

TEST(Serving, ModelThatCanNeverFitIsRejectedNotStranded)
{
    // A budget below every model's minimum node group: no shard
    // can ever hold a request, so the dispatcher rejects each one
    // at its arrival instead of queueing it forever. The run then
    // drains at the last arrival, with or without a cutoff past
    // it, on one chip and behind a cluster dispatcher.
    Workload w;
    ServingConfig cfg = baseConfig();
    auto probe = w.simulator(cfg);
    const std::vector<unsigned> &min_cores = probe->minCoresTable();
    cfg.system.coreBudget =
        *std::min_element(min_cores.begin(), min_cores.end()) - 1;
    ASSERT_GE(cfg.system.coreBudget, 1u);
    std::vector<ServingArrival> arrivals = probe->arrivals();
    ASSERT_FALSE(arrivals.empty());
    Cycles last_arrival = arrivals.back().cycle;

    auto expect_all_rejected = [&](const ServingResult &r) {
        EXPECT_EQ(r.offered, arrivals.size());
        EXPECT_EQ(r.rejected, r.offered);
        EXPECT_EQ(r.completed, 0u);
        EXPECT_EQ(r.pending, 0u);
        EXPECT_EQ(r.endCycle, last_arrival);
        check::CheckResult counters = check::checkServingCounters(
            {r.offered, r.completed, r.rejected, r.shed, r.timedOut,
             r.pending});
        EXPECT_TRUE(counters.ok()) << counters.summary();
        trace::TraceSink sink;
        appendServingTrace(r, sink);
        check::CheckResult causality =
            check::checkServingTrace(sink.serving, r.offered);
        EXPECT_TRUE(causality.ok()) << causality.summary();
    };

    for (Cycles cutoff : {Cycles(0), last_arrival + 1'000'000}) {
        cfg.cutoff = cutoff;
        SCOPED_TRACE("cutoff " + std::to_string(cutoff));
        cfg.chips = 1;
        expect_all_rejected(w.simulator(cfg)->run());

        cfg.chips = 2;
        ClusterResult c = w.cluster(cfg)->run();
        expect_all_rejected(c.aggregate);
        // Rejections stay with the dispatcher, not a shard.
        ASSERT_EQ(c.shards.size(), 2u);
        for (const ServingResult &slice : c.shards)
            EXPECT_EQ(slice.offered, 0u);
    }
}

TEST(Serving, MeanLatencyNonDecreasingAcrossLoadSweep)
{
    Workload w;
    // Sweep from light to heavy offered load. The arrival process
    // scales one fixed uniform stream by the mean gap, so heavier
    // load moves every arrival earlier and FIFO service order is
    // preserved — queueing (and hence mean latency) can only grow.
    const Cycles gaps[] = {2'000'000, 500'000, 120'000, 30'000,
                           8'000};
    double prev_mean = 0.0;
    uint64_t offered = 0;
    for (Cycles gap : gaps) {
        SCOPED_TRACE(gap);
        ServingConfig cfg = baseConfig();
        cfg.meanInterarrival = gap;
        cfg.queueCapacity = 1'000'000; // no rejections in the sweep
        ServingResult r = w.simulator(cfg)->run();
        EXPECT_EQ(r.completed, r.offered);
        if (offered == 0)
            offered = r.offered;
        EXPECT_EQ(r.offered, offered); // same requests, shifted
        EXPECT_GE(r.meanLatency, prev_mean);
        prev_mean = r.meanLatency;
    }
    // The sweep must actually create contention, or the
    // monotonicity above is vacuous.
    EXPECT_GT(prev_mean, 0.0);
}

TEST(Serving, UtilizationWithinBoundsAndTimelineMonotone)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.meanInterarrival = 50'000;
    ServingResult r = w.simulator(cfg)->run();
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    ASSERT_FALSE(r.coreTimeline.empty());
    for (size_t i = 1; i < r.coreTimeline.size(); ++i) {
        EXPECT_LE(r.coreTimeline[i - 1].cycle,
                  r.coreTimeline[i].cycle);
        EXPECT_LE(r.coreTimeline[i].usedCores,
                  cfg.system.coreBudget);
    }
}

TEST(Serving, TraceArrivalsAreServedAsGiven)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.arrivals = ArrivalProcess::Trace;
    auto sim = w.simulator(cfg);
    std::istringstream trace(
        "# cycle model\n"
        "1000 camera\n"
        "2000 radar\n"
        "2000 radar\n"
        "900000 camera\n");
    ASSERT_TRUE(sim->loadTrace(trace));
    ServingResult r = sim->run();
    EXPECT_EQ(r.offered, 4u);
    EXPECT_EQ(r.completed, 4u);
    EXPECT_EQ(r.requests[0].model, 0u);
    EXPECT_EQ(r.requests[0].arrival, 1000u);
    EXPECT_EQ(r.requests[1].model, 1u);
    EXPECT_EQ(r.requests[3].arrival, 900000u);
}

TEST(Serving, TraceRejectsMalformedInput)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.arrivals = ArrivalProcess::Trace;
    auto sim = w.simulator(cfg);
    std::istringstream unknown("1000 lidar\n");
    EXPECT_FALSE(sim->loadTrace(unknown));
    std::istringstream unsorted("2000 camera\n1000 radar\n");
    EXPECT_FALSE(sim->loadTrace(unsorted));
}

TEST(Serving, BatchingGroupsSameModelQueuedRequests)
{
    Workload w;
    // A burst of simultaneous same-model arrivals while the array
    // is narrow enough that they must queue: with batching on,
    // queued companions ride along in one region.
    ServingConfig cfg = baseConfig();
    cfg.arrivals = ArrivalProcess::Trace;
    cfg.maxBatch = 4;
    cfg.system.coreBudget = 20; // one camera region at a time
    auto sim = w.simulator(cfg);
    std::istringstream trace("0 camera\n"
                             "1 camera\n"
                             "2 camera\n"
                             "3 camera\n"
                             "4 camera\n");
    ASSERT_TRUE(sim->loadTrace(trace));
    ServingResult r = sim->run();
    EXPECT_EQ(r.completed, 5u);
    // Request 0 is admitted alone (nothing else queued yet); the
    // burst behind it coalesces into one batch of up to 4.
    EXPECT_EQ(r.requests[0].batchSize, 1u);
    EXPECT_EQ(r.requests[1].batchSize, 4u);
    EXPECT_EQ(r.requests[1].start, r.requests[4].start);
    // Batch members finish one pipelined interval apart, in order.
    EXPECT_LT(r.requests[1].finish, r.requests[2].finish);
    EXPECT_LT(r.requests[2].finish, r.requests[3].finish);

    // The same trace without batching serializes into five
    // single-request regions and can only finish later.
    ServingConfig serial_cfg = cfg;
    serial_cfg.maxBatch = 1;
    auto serial = w.simulator(serial_cfg);
    std::istringstream trace2("0 camera\n"
                              "1 camera\n"
                              "2 camera\n"
                              "3 camera\n"
                              "4 camera\n");
    ASSERT_TRUE(serial->loadTrace(trace2));
    ServingResult rs = serial->run();
    EXPECT_EQ(rs.completed, 5u);
    EXPECT_GE(rs.endCycle, r.endCycle);
}

TEST(Serving, GeneratedNetworkMixIsServable)
{
    // The shared generator (tests/common/rand_network.hh, the same
    // one the mapping property suite sweeps) plugs straight into
    // the serving layer: generated models fit the array and a short
    // request stream over them drains completely.
    Rng rng(31);
    testgen::RandNetworkOptions opt;
    opt.maxLayers = 3; // keep the one-off profile simulation cheap
    ModelFixture a(testgen::randomNetwork(rng, opt), 33);
    ModelFixture b(testgen::randomNetwork(rng, opt), 35);

    ServingConfig cfg = baseConfig();
    cfg.offeredRequests = 8;
    ServingSimulator sim(cfg);
    sim.addModel(a.served("gen-a"));
    sim.addModel(b.served("gen-b"));
    ServingResult r = sim.run();
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_GT(r.minServiceLatency, 0u);
}

TEST(Serving, DumpStatsRecordsCountsAndPercentiles)
{
    Workload w;
    ServingResult r = w.simulator(baseConfig())->run();
    StatGroup stats;
    r.dumpStats(stats);
    EXPECT_EQ(stats.get("offered"), r.offered);
    EXPECT_EQ(stats.get("completed"), r.completed);
    EXPECT_EQ(stats.histogram("latencyCycles").count(),
              r.completed);
    EXPECT_EQ(
        stats.histogram("latencyCycles").percentile(99),
        r.p99);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("latencyCycles"),
              std::string::npos);
}
