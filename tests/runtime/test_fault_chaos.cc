/**
 * @file
 * Randomized chaos suite for the fault/recovery machinery
 * (DESIGN.md §16): random fault schedules — all four kinds, random
 * cycles, counts, and windows — over random serving shapes, with
 * the in-loop ledger/region self-checks on. Properties pinned per
 * draw:
 *
 *  - no request is ever lost: the disposition counters and the
 *    per-request trace records both satisfy request-conservation
 *    (check/invariants.hh), whatever the schedule kills;
 *  - causality holds for every disposition (a dropped request
 *    carries no admission stamps, a completed one obeys
 *    arrival <= start <= finish);
 *  - a fixed (serving seed, fault seed) pair gives bitwise identical
 *    results and stats dumps on two fresh simulators — the fault
 *    schedule is a pure function of the config, and no hidden
 *    global state carries over from one run to the next;
 *  - the per-model queued counts that gate admission stay exact
 *    (recounted under selfCheck at every event) while timeouts,
 *    core loss and fail-stop pull requests out of the queue.
 *
 * Seeds are overridable via MAICC_TEST_SEED (common/seeded_test.hh)
 * so a failing draw replays exactly.
 */

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/seeded_test.hh"
#include "common/serving_fixtures.hh"
#include "common/sim_component.hh"
#include "common/trace.hh"
#include "runtime/cluster.hh"
#include "runtime/serving.hh"

using namespace maicc;
using testserv::Workload;
using testserv::expectIdenticalResults;

namespace
{

/** A random fault schedule over @p chips chips. */
FaultConfig
randomFaults(Rng &rng, unsigned chips, unsigned dram_channels,
             Cycles span)
{
    FaultConfig fc;
    fc.seed = rng.below(1u << 20) + 1;
    // Half the draws also carry a random Poisson schedule.
    if (rng.below(2))
        fc.rate = 0.5 + rng.real() * 3.0;
    unsigned n = rng.below(4);
    for (unsigned i = 0; i < n; ++i) {
        FaultEvent e;
        switch (rng.below(4)) {
          case 0:
            e.kind = FaultKind::ChipFailStop;
            break;
          case 1:
            e.kind = FaultKind::CoreLoss;
            e.count = 1 + rng.below(12);
            break;
          case 2:
            e.kind = FaultKind::DramOutage;
            e.count = 1 + rng.below(dram_channels - 1);
            break;
          default:
            e.kind = FaultKind::NocDegrade;
            e.factor = 1.0 + rng.real() * 3.0;
            break;
        }
        e.cycle = rng.below(span);
        e.chip = unsigned(rng.below(chips));
        if (e.kind == FaultKind::DramOutage
            || e.kind == FaultKind::NocDegrade) {
            if (rng.below(2))
                e.until = e.cycle + 1 + rng.below(span);
        }
        fc.events.push_back(e);
    }
    return fc;
}

/** One cluster run; its stats-JSON dump goes to @p dump if set. */
ClusterResult
runOnce(const Workload &w, const ServingConfig &cfg,
        std::string *dump = nullptr)
{
    SimContext ctx;
    auto c = w.cluster(cfg);
    c->attach(ctx);
    ClusterResult r = c->run();
    if (dump)
        *dump = ctx.statsToJson().dump();
    return r;
}

} // namespace

TEST(FaultChaos, NoRequestLostUnderRandomSchedules)
{
    Workload w;
    for (uint64_t seed : testseed::seeds({101, 202, 303, 404})) {
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);

        ServingConfig cfg;
        cfg.seed = seed;
        cfg.chips = 1 + unsigned(rng.below(3));
        cfg.offeredRequests = 10 + unsigned(rng.below(10));
        cfg.meanInterarrival = 20'000 + rng.below(120'000);
        cfg.maxBatch = 1 + unsigned(rng.below(3));
        cfg.selfCheck = true;
        Cycles span = cfg.arrivalSpan();
        cfg.faults = randomFaults(rng, cfg.chips,
                                  cfg.system.dramChannels, span);
        if (rng.below(2)) {
            cfg.timeoutCycles = 100'000 + rng.below(span);
            cfg.maxRetries = unsigned(rng.below(4));
            cfg.backoffCycles = rng.below(50'000);
        }
        if (rng.below(2))
            cfg.shedQueueDepth = 2 + unsigned(rng.below(16));
        if (!recoveryActive(cfg))
            cfg.timeoutCycles = span * 8; // force the loop anyway

        ClusterResult r = runOnce(w, cfg);
        const ServingResult &agg = r.aggregate;

        // Conservation over counters and over the trace records.
        check::CheckResult counters = check::checkServingCounters(
            {agg.offered, agg.completed, agg.rejected, agg.shed,
             agg.timedOut, agg.pending});
        EXPECT_TRUE(counters.ok()) << counters.summary();
        trace::TraceSink sink;
        appendServingTrace(agg, sink);
        check::CheckResult causal =
            check::checkServingTrace(sink.serving, agg.offered);
        EXPECT_TRUE(causal.ok()) << causal.summary();

        // The shard slices partition the dispatched work.
        uint64_t sliced = 0;
        for (const ServingResult &s : r.shards)
            sliced += s.offered;
        EXPECT_EQ(sliced + agg.rejected + agg.shed, agg.offered);
    }
}

TEST(FaultChaos, FixedSeedsBitwiseIdenticalAcrossReruns)
{
    Workload w;
    for (uint64_t seed : testseed::seeds({7, 99})) {
        MAICC_SEED_TRACE(seed);
        ServingConfig cfg;
        cfg.seed = seed;
        cfg.chips = 2;
        cfg.offeredRequests = 14;
        cfg.meanInterarrival = 60'000;
        cfg.selfCheck = true;
        cfg.faults.seed = seed * 17 + 1;
        cfg.faults.rate = 2.5;
        cfg.timeoutCycles = 300'000;
        cfg.maxRetries = 2;
        cfg.backoffCycles = 20'000;
        cfg.shedQueueDepth = 24;

        std::string dump_a, dump_b;
        ClusterResult a = runOnce(w, cfg, &dump_a);
        ClusterResult b = runOnce(w, cfg, &dump_b);
        expectIdenticalResults(a.aggregate, b.aggregate,
                               "aggregate, second simulator");
        ASSERT_EQ(a.shards.size(), b.shards.size());
        for (size_t i = 0; i < a.shards.size(); ++i)
            expectIdenticalResults(a.shards[i], b.shards[i],
                                   "shard");
        EXPECT_EQ(dump_a, dump_b);
    }
}

TEST(FaultChaos, QueuedCountsSurviveTimeoutsCoreLossAndFailStop)
{
    // Three overloaded 40-core chips with short timeouts; chip 0
    // loses 200 slots (too few left for the camera) and chip 1
    // fail-stops, so requests leave the queue through removeQueued,
    // loseCores and failStop. selfCheck recounts the
    // per-model queued counts against the queue at every event and
    // panics on any drift.
    Workload w;
    struct Policy
    {
        SchedPolicy kind;
        bool backfill;
    };
    for (Policy p : {Policy{SchedPolicy::Fifo, false},
                     Policy{SchedPolicy::Sjf, false},
                     Policy{SchedPolicy::Priority, true}}) {
        SCOPED_TRACE(policyName(p.kind));
        ServingConfig cfg;
        cfg.seed = 5;
        cfg.chips = 3;
        cfg.offeredRequests = 60;
        cfg.meanInterarrival = 10'000;
        cfg.system.coreBudget = 40;
        cfg.policy = p.kind;
        cfg.backfill = p.backfill;
        cfg.selfCheck = true;
        cfg.timeoutCycles = 400'000;
        cfg.maxRetries = 1;
        cfg.backoffCycles = 50'000;
        FaultEvent loss;
        loss.kind = FaultKind::CoreLoss;
        loss.cycle = 300'000;
        loss.chip = 0;
        loss.count = 200;
        FaultEvent stop;
        stop.kind = FaultKind::ChipFailStop;
        stop.cycle = 500'000;
        stop.chip = 1;
        cfg.faults.events = {loss, stop};

        ClusterResult r = runOnce(w, cfg);
        const ServingResult &agg = r.aggregate;
        EXPECT_GT(agg.retries, 0u);
        EXPECT_GT(agg.failovers, 0u);
        EXPECT_EQ(agg.faultCoreLoss, 1u);
        EXPECT_EQ(agg.faultChipFailStop, 1u);
        check::CheckResult counters = check::checkServingCounters(
            {agg.offered, agg.completed, agg.rejected, agg.shed,
             agg.timedOut, agg.pending});
        EXPECT_TRUE(counters.ok()) << counters.summary();
    }
}
