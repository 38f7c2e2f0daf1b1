/**
 * @file
 * Regression and acceptance tests for the serving admission path
 * (src/runtime/{serving,admission}.hh) — the three bugfixes, each
 * written to fail on the pre-fix code, plus the pluggable policy
 * layer:
 *
 *  - FIFO contract: same-model batching never pulls requests
 *    from behind a different-model request;
 *  - fragmentation: admission carves *contiguous* serpentine runs
 *    only — a request whose node group fits the free-core count but
 *    not any contiguous run waits for coalescing instead of being
 *    scattered across seams (which would invalidate its
 *    (model, cores) service profile), and an oversized preferred
 *    grant degrades gracefully to the minimum region;
 *  - endCycle: an early-drained run reports its real makespan, not
 *    an unreached cutoff;
 *  - sjf/priority ordering, per-class latency/SLO accounting,
 *    work-conserving backfill, and bitwise rerun/sim-cache
 *    determinism for every policy.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "common/serving_fixtures.hh"
#include "runtime/host.hh"
#include "runtime/serving.hh"
#include "runtime/sim_cache.hh"

using namespace maicc;
using testserv::ModelFixture;
using testserv::Workload;
using testserv::expectIdenticalResults;
using testserv::tinyConvNet;

namespace
{

ServingConfig
traceConfig()
{
    ServingConfig cfg;
    cfg.arrivals = ArrivalProcess::Trace;
    return cfg;
}

std::unique_ptr<ServingSimulator>
simWithTrace(const Workload &w, ServingConfig cfg,
             const std::string &trace, unsigned camera_class = 0,
             unsigned radar_class = 0)
{
    auto sim = w.simulator(std::move(cfg), camera_class,
                           radar_class);
    std::istringstream in(trace);
    EXPECT_TRUE(sim->loadTrace(in));
    return sim;
}

} // namespace

// ---------------------------------------------------------------
// Bugfix 1: strict-FIFO batching contract.
// ---------------------------------------------------------------

TEST(ServingPolicies, BatchingDoesNotJumpDifferentModelRequests)
{
    // Budget for one 14-core region at a time; camera, camera,
    // radar, camera queue behind request 0. When request 1 is
    // admitted with batching on, the pre-fix scan pulled request 3
    // (same model) past the radar at position 2, so the radar — a
    // strictly earlier arrival — was served later. The fix batches
    // only the contiguous same-model run: request 3 must wait its
    // turn.
    Workload w;
    ServingConfig cfg = traceConfig();
    cfg.system.coreBudget = 14;
    cfg.maxBatch = 4;
    auto sim = simWithTrace(w, cfg,
                            "0 camera\n"
                            "1 camera\n"
                            "2 radar\n"
                            "3 camera\n");
    ServingResult r = sim->run();
    ASSERT_EQ(r.completed, 4u);
    // No batch formed across the radar: request 1 runs alone.
    EXPECT_EQ(r.requests[1].batchSize, 1u);
    // Service starts follow arrival order.
    EXPECT_LE(r.requests[1].start, r.requests[2].start);
    EXPECT_LT(r.requests[2].start, r.requests[3].start);
    // The FIFO completion contract: the radar finishes before the
    // camera that arrived after it.
    EXPECT_LT(r.requests[2].finish, r.requests[3].finish);
}

TEST(ServingPolicies, ContiguousBatchingStillCoalescesBursts)
{
    // The fix must not cost the good case: a contiguous same-model
    // burst still coalesces into one batch.
    Workload w;
    ServingConfig cfg = traceConfig();
    cfg.system.coreBudget = 14;
    cfg.maxBatch = 4;
    auto sim = simWithTrace(w, cfg,
                            "0 camera\n"
                            "1 camera\n"
                            "2 camera\n"
                            "3 camera\n");
    ServingResult r = sim->run();
    ASSERT_EQ(r.completed, 4u);
    EXPECT_EQ(r.requests[0].batchSize, 1u);
    EXPECT_EQ(r.requests[1].batchSize, 3u);
    EXPECT_EQ(r.requests[3].start, r.requests[1].start);
}

// ---------------------------------------------------------------
// Bugfix 2: fragmentation-safe admission.
// ---------------------------------------------------------------

namespace
{

/** Fixture with models of deliberately different footprints. */
struct FragmentWorkload
{
    FragmentWorkload()
        : small(tinyConvNet("small", 8), 41),   // min 2 cores
          big(tinyConvNet("big", 128), 45)      // min 8 cores
    {
    }

    ModelFixture small;
    ModelFixture big;
};

} // namespace

TEST(ServingPolicies, FragmentedFreeCoresDoNotScatterARegion)
{
    // 21 (small, big) pairs fill the 210-core region exactly:
    // s b s b ... with small = 2 and big = 8 contiguous cores. The
    // smalls finish first, leaving 42 free cores shredded into
    // 2-slot gaps between still-running bigs. The queued target
    // (another big, min 8) fits the free-core *count* long before
    // any contiguous run of 8 exists. Pre-fix the region allocator
    // scattered it across the gaps — a placement whose hop count
    // (and hence real latency) the (model, cores) service profile
    // was never simulated on. Post-fix it waits for the first big
    // completion to coalesce a run.
    FragmentWorkload fw;
    ServingConfig cfg = traceConfig();
    ServingSimulator sim(cfg);
    sim.addModel(fw.small.served("small"));
    sim.addModel(fw.big.served("big"));

    std::ostringstream trace;
    for (int i = 0; i < 21; ++i)
        trace << "0 small\n0 big\n";
    trace << "1 big\n"; // the target: queued behind a full array
    std::istringstream in(trace.str());
    ASSERT_TRUE(sim.loadTrace(in));

    ServingResult r = sim.run();
    ASSERT_EQ(r.completed, 43u);
    const RequestRecord &target = r.requests.back();

    Cycles last_small_finish = 0;
    Cycles first_big_finish = Cycles(-1);
    for (size_t i = 0; i + 1 < r.requests.size(); ++i) {
        const RequestRecord &f = r.requests[i];
        if (f.model == 0)
            last_small_finish =
                std::max(last_small_finish, f.finish);
        else
            first_big_finish =
                std::min(first_big_finish, f.finish);
    }
    // The smalls really do drain first (42 cores free, all in
    // sub-region gaps), so the scenario exercises fragmentation.
    ASSERT_LT(last_small_finish, first_big_finish);
    // Pre-fix: target.start == last_small_finish (scattered into
    // the gaps). Post-fix: it cannot start before a big frees a
    // contiguous run.
    EXPECT_GE(target.start, first_big_finish);
    EXPECT_EQ(target.cores, 8u);
}

TEST(ServingPolicies, OversizedPreferredGrantDegradesToMinimum)
{
    // Same fragmented array, but the target is a *small* model
    // asking for 6 preferred cores, arriving after the smalls
    // drained (42 cores free) and before any big completes. No
    // contiguous run of 6 exists — only 2-slot gaps — so the grant
    // degrades to the 2-core minimum region and the request starts
    // at its arrival instead of waiting for coalescing (pre-fix
    // the allocator scattered all 6 across the gaps).
    FragmentWorkload fw;
    ServingConfig cfg = traceConfig();
    ServingSimulator sim(cfg);
    sim.addModel(fw.small.served("small"));
    sim.addModel(fw.big.served("big"));
    sim.addModel(fw.small.served("eager", 1.0, /*preferred=*/6));

    std::ostringstream trace;
    for (int i = 0; i < 21; ++i)
        trace << "0 small\n0 big\n";
    trace << "100000 eager\n";
    std::istringstream in(trace.str());
    ASSERT_TRUE(sim.loadTrace(in));

    ServingResult r = sim.run();
    ASSERT_EQ(r.completed, 43u);
    const RequestRecord &target = r.requests.back();

    Cycles last_small_finish = 0;
    Cycles first_big_finish = Cycles(-1);
    for (size_t i = 0; i + 1 < r.requests.size(); ++i) {
        const RequestRecord &f = r.requests[i];
        if (f.model == 0)
            last_small_finish =
                std::max(last_small_finish, f.finish);
        else
            first_big_finish =
                std::min(first_big_finish, f.finish);
    }
    // The scenario really is "free but fragmented": the target
    // arrives into an array of 2-slot gaps between running bigs.
    ASSERT_LT(last_small_finish, target.arrival);
    ASSERT_GT(first_big_finish, target.arrival);
    // Degraded to the minimum region, admitted immediately.
    EXPECT_EQ(target.cores, 2u);
    EXPECT_EQ(target.start, target.arrival);
}

// ---------------------------------------------------------------
// Bugfix 3: endCycle on early drain.
// ---------------------------------------------------------------

TEST(ServingPolicies, EarlyDrainReportsRealMakespanNotCutoff)
{
    // A cutoff far beyond the drain point must not stretch the
    // measurement window: endCycle is the last completion, so
    // throughput and utilization describe the actual run. Pre-fix,
    // endCycle was pinned to the cutoff whenever one was set,
    // deflating both metrics.
    Workload w;
    ServingConfig cfg;
    cfg.seed = 7;
    cfg.offeredRequests = 8;
    cfg.meanInterarrival = 200'000;
    ServingResult free_run = w.simulator(cfg)->run();
    ASSERT_EQ(free_run.completed, free_run.offered);

    ServingConfig capped = cfg;
    capped.cutoff = free_run.endCycle * 100;
    ServingResult r = w.simulator(capped)->run();
    ASSERT_EQ(r.completed, r.offered);

    Cycles last_finish = 0;
    for (const auto &req : r.requests)
        last_finish = std::max(last_finish, req.finish);
    EXPECT_EQ(r.endCycle, last_finish);
    EXPECT_LT(r.endCycle, capped.cutoff);
    // Identical work in an identical window: the unreached cutoff
    // must not change any reported metric.
    expectIdenticalResults(free_run, r, "unreached cutoff");
}

TEST(ServingPolicies, TruncatedRunStillReportsTheCutoff)
{
    // The flip side: when the cutoff *does* truncate the run, it is
    // the measurement window (pending work exists past it).
    Workload w;
    ServingConfig cfg;
    cfg.seed = 7;
    cfg.offeredRequests = 24;
    cfg.meanInterarrival = 200'000;
    cfg.cutoff = 400'000;
    ServingResult r = w.simulator(cfg)->run();
    ASSERT_GT(r.pending, 0u);
    EXPECT_EQ(r.endCycle, 400'000u);
}

// ---------------------------------------------------------------
// Policy layer: sjf, priority, backfill, per-class SLO stats.
// ---------------------------------------------------------------

TEST(ServingPolicies, SjfServesShorterJobFirst)
{
    // One region at a time; a camera (≈715k cycles) and a radar
    // (≈216k) queue behind the running camera. FIFO serves the
    // camera first; SJF picks the radar.
    Workload w;
    const std::string trace = "0 camera\n"
                              "1 camera\n"
                              "2 radar\n";
    ServingConfig fifo_cfg = traceConfig();
    fifo_cfg.system.coreBudget = 14;
    ServingResult fifo =
        simWithTrace(w, fifo_cfg, trace)->run();
    ASSERT_EQ(fifo.completed, 3u);
    EXPECT_LT(fifo.requests[1].start, fifo.requests[2].start);

    ServingConfig sjf_cfg = fifo_cfg;
    sjf_cfg.policy = SchedPolicy::Sjf;
    ServingResult sjf = simWithTrace(w, sjf_cfg, trace)->run();
    ASSERT_EQ(sjf.completed, 3u);
    EXPECT_LT(sjf.requests[2].start, sjf.requests[1].start);
    EXPECT_LT(sjf.requests[2].finish, sjf.requests[1].finish);
    // SJF can only help the mean over this queue.
    EXPECT_LE(sjf.meanLatency, fifo.meanLatency);
}

TEST(ServingPolicies, SjfCostsHoldForRequestsQueuedAfterTheProbe)
{
    // Both models are probed by t=1; the camera and radar queued
    // after that must still carry their own cost estimates, so
    // when the first camera completes both radars (≈216k cycles)
    // run before the waiting camera (≈715k).
    Workload w;
    const std::string trace = "0 camera\n"
                              "1 radar\n"
                              "2 camera\n"
                              "3 radar\n";
    ServingConfig cfg = traceConfig();
    cfg.system.coreBudget = 14;
    cfg.policy = SchedPolicy::Sjf;
    ServingResult res = simWithTrace(w, cfg, trace)->run();
    ASSERT_EQ(res.completed, 4u);
    EXPECT_LT(res.requests[1].start, res.requests[3].start);
    EXPECT_LT(res.requests[3].start, res.requests[2].start);
}

TEST(ServingPolicies, PriorityClassJumpsTheQueue)
{
    // Same stream, but the radar is class 0 (urgent) and the camera
    // class 1: under the priority policy the radar overtakes the
    // earlier-arrived camera.
    Workload w;
    const std::string trace = "0 camera\n"
                              "1 camera\n"
                              "2 radar\n";
    ServingConfig cfg = traceConfig();
    cfg.system.coreBudget = 14;
    cfg.policy = SchedPolicy::Priority;
    ServingResult r = simWithTrace(w, cfg, trace,
                                   /*camera_class=*/1,
                                   /*radar_class=*/0)
                          ->run();
    ASSERT_EQ(r.completed, 3u);
    EXPECT_LT(r.requests[2].start, r.requests[1].start);

    // Per-class slices: ascending by class, offered split 1/2.
    ASSERT_EQ(r.classes.size(), 2u);
    EXPECT_EQ(r.classes[0].priorityClass, 0u);
    EXPECT_EQ(r.classes[0].offered, 1u);
    EXPECT_EQ(r.classes[0].completed, 1u);
    EXPECT_EQ(r.classes[1].priorityClass, 1u);
    EXPECT_EQ(r.classes[1].offered, 2u);
    // The urgent class is served faster on average.
    EXPECT_LT(r.classes[0].meanLatency,
              r.classes[1].meanLatency);
}

TEST(ServingPolicies, SloAccountingMatchesTheRequestRecords)
{
    // SLO counters are recomputable from the per-request records:
    // met = completed within sloCycles of arrival; every other
    // offered request (late, rejected, pending) is a miss. The
    // global counters are the sums of the per-class ones.
    Workload w;
    ServingConfig cfg;
    cfg.seed = 11;
    cfg.offeredRequests = 16;
    cfg.meanInterarrival = 120'000;
    cfg.queueCapacity = 4; // force some rejections
    cfg.sloCycles = 1'200'000;
    ServingResult r =
        w.simulator(cfg, /*camera_class=*/1, /*radar_class=*/0)
            ->run();
    ASSERT_GT(r.completed, 0u);
    EXPECT_EQ(r.sloCycles, cfg.sloCycles);

    uint64_t met = 0;
    for (const auto &req : r.requests) {
        if (req.completed && req.latency() <= cfg.sloCycles)
            ++met;
    }
    EXPECT_EQ(r.sloMet, met);
    EXPECT_EQ(r.sloMet + r.sloMissed, r.offered);

    uint64_t class_met = 0, class_missed = 0, class_offered = 0;
    for (const auto &c : r.classes) {
        class_met += c.sloMet;
        class_missed += c.sloMissed;
        class_offered += c.offered;
        EXPECT_EQ(c.sloMet + c.sloMissed, c.offered);
        EXPECT_GE(c.sloAttainment(), 0.0);
        EXPECT_LE(c.sloAttainment(), 1.0);
    }
    EXPECT_EQ(class_met, r.sloMet);
    EXPECT_EQ(class_missed, r.sloMissed);
    EXPECT_EQ(class_offered, r.offered);
}

TEST(ServingPolicies, SloDisabledLeavesCountersZero)
{
    Workload w;
    ServingConfig cfg;
    cfg.seed = 7;
    cfg.offeredRequests = 8;
    cfg.meanInterarrival = 200'000;
    ServingResult r = w.simulator(cfg)->run();
    EXPECT_EQ(r.sloCycles, 0u);
    EXPECT_EQ(r.sloMet, 0u);
    EXPECT_EQ(r.sloMissed, 0u);
    for (const auto &c : r.classes) {
        EXPECT_EQ(c.sloMet, 0u);
        EXPECT_EQ(c.sloMissed, 0u);
    }
}

TEST(ServingPolicies, BackfillAdmitsFittingWorkPastABlockedHead)
{
    // Budget 16: a running camera leaves 2 free cores; the next
    // camera (min 14) blocks at the head while a 2-core tiny model
    // waits behind it. Strict FIFO keeps the tiny request waiting;
    // backfill starts it immediately in the otherwise-idle cores.
    Workload w;
    ModelFixture tiny(tinyConvNet("tiny", 8), 41); // min 2 cores

    auto build = [&](bool backfill) {
        ServingConfig cfg = traceConfig();
        cfg.system.coreBudget = 16;
        cfg.backfill = backfill;
        auto sim = std::make_unique<ServingSimulator>(cfg);
        sim->addModel(w.camera.served("camera"));
        sim->addModel(w.radar.served("radar"));
        sim->addModel(tiny.served("tiny"));
        std::istringstream in("0 camera\n"
                              "1 camera\n"
                              "2 tiny\n");
        EXPECT_TRUE(sim->loadTrace(in));
        return sim;
    };

    ServingResult strict = build(false)->run();
    ASSERT_EQ(strict.completed, 3u);
    // Head-of-line blocking: tiny waits for the first camera.
    EXPECT_GE(strict.requests[2].start,
              strict.requests[0].finish);

    ServingResult backfilled = build(true)->run();
    ASSERT_EQ(backfilled.completed, 3u);
    EXPECT_LT(backfilled.requests[2].start,
              backfilled.requests[0].finish);
    // Backfill is work-conserving, never reordering the cameras.
    EXPECT_LT(backfilled.requests[0].start,
              backfilled.requests[1].start);
    // The blocked camera is not delayed: the backfilled tiny only
    // used cores the camera could not.
    EXPECT_EQ(backfilled.requests[1].start,
              strict.requests[1].start);
}

// ---------------------------------------------------------------
// Determinism: every policy, reruns, and the sim cache.
// ---------------------------------------------------------------

TEST(ServingPolicies, EveryPolicyIsBitwiseIdenticalAcrossRerunsAndCache)
{
    Workload w;
    struct Variant
    {
        const char *what;
        SchedPolicy policy;
        bool backfill;
    };
    const Variant variants[] = {
        {"fifo", SchedPolicy::Fifo, false},
        {"fifo+backfill", SchedPolicy::Fifo, true},
        {"sjf", SchedPolicy::Sjf, false},
        {"priority", SchedPolicy::Priority, false},
        {"priority+backfill", SchedPolicy::Priority, true},
    };
    for (const Variant &v : variants) {
        SCOPED_TRACE(v.what);
        auto run_with = [&](unsigned cache) {
            ServingConfig cfg;
            cfg.seed = 7;
            cfg.offeredRequests = 12;
            cfg.meanInterarrival = 150'000;
            cfg.maxBatch = 2;
            cfg.sloCycles = 1'000'000;
            cfg.policy = v.policy;
            cfg.backfill = v.backfill;
            cfg.system.simCacheEntries = cache;
            auto sim = w.simulator(cfg, /*camera_class=*/1,
                                   /*radar_class=*/0);
            TimingResultCache isolated(cache);
            if (cache)
                sim->setTimingCache(&isolated);
            return sim->run();
        };
        ServingResult first = run_with(0);
        ASSERT_GT(first.completed, 0u);
        expectIdenticalResults(first, run_with(0), "rerun");
        // Memoized service profiles change nothing observable.
        expectIdenticalResults(first, run_with(64), "sim cache on");
    }
}

// ---------------------------------------------------------------
// Stats plumbing: per-class histograms and counters.
// ---------------------------------------------------------------

TEST(ServingPolicies, DumpStatsRecordsPerClassSlices)
{
    Workload w;
    ServingConfig cfg;
    cfg.seed = 11;
    cfg.offeredRequests = 12;
    cfg.meanInterarrival = 150'000;
    cfg.sloCycles = 1'500'000;
    ServingResult r =
        w.simulator(cfg, /*camera_class=*/1, /*radar_class=*/0)
            ->run();
    ASSERT_EQ(r.classes.size(), 2u);

    StatGroup stats;
    r.dumpStats(stats);
    EXPECT_EQ(stats.get("sloMet"), r.sloMet);
    EXPECT_EQ(stats.get("sloMissed"), r.sloMissed);
    for (const auto &c : r.classes) {
        std::string prefix =
            "class" + std::to_string(c.priorityClass);
        EXPECT_EQ(stats.get(prefix + ".offered"), c.offered);
        EXPECT_EQ(stats.get(prefix + ".completed"),
                  c.completed);
        EXPECT_EQ(stats.get(prefix + ".sloMet"), c.sloMet);
        EXPECT_EQ(stats.get(prefix + ".sloMissed"),
                  c.sloMissed);
        EXPECT_EQ(
            stats.histogram(prefix + ".latencyCycles").count(),
            c.completed);
        EXPECT_EQ(stats.histogram(prefix + ".latencyCycles")
                      .percentile(99),
                  c.p99);
    }
}
