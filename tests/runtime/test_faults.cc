/**
 * @file
 * Acceptance suite for deterministic fault injection and the
 * serving-tier recovery machinery (src/fault/,
 * runtime/serving_loop.cc, DESIGN.md §16):
 *
 *  - a timeout no request can reach changes no outcome: the run is
 *    bitwise identical to one without timeouts, and its stats dump
 *    differs only by the availability keys;
 *  - a chip fail-stop mid-run recovers via cross-chip failover:
 *    zero lost requests, the conservation rule green, the dead
 *    shard excluded from every later dispatch;
 *  - a fixed fault seed is bitwise deterministic across two fresh
 *    simulators and sim-cache states;
 *  - core-loss shrinks the budget, kills the intersecting batches,
 *    and the run still completes;
 *  - a DRAM-channel outage scales service latency by exactly
 *    channels / (channels - count) inside its window;
 *  - stacked noc-degrade windows whose product overflows to inf
 *    saturate the service time instead of wrapping it to 0;
 *  - queueing timeouts consume the bounded retry budget and then
 *    drop the request as timed-out with its stamps cleared;
 *  - overload shedding gates fresh arrivals at the configured
 *    depth;
 *  - the deterministic schedule itself: explicit events verbatim,
 *    random events a pure function of (seed, rate, window);
 *  - the availability counters publish only on recovery runs (the
 *    fault-free --stats-json dump stays byte-compatible).
 */

#include <map>
#include <memory>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/serving_fixtures.hh"
#include "common/sim_component.hh"
#include "common/trace.hh"
#include "check/invariants.hh"
#include "fault/injector.hh"
#include "runtime/cluster.hh"
#include "runtime/serving.hh"
#include "runtime/sim_cache.hh"

using namespace maicc;
using testserv::Workload;
using testserv::expectIdenticalResults;

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

/** Every leaf of @p j as path -> compact JSON value. */
void
flattenJson(const Json &j, const std::string &path,
            std::map<std::string, std::string> &out)
{
    if (!j.isObject()) {
        out[path] = j.dump();
        return;
    }
    for (const auto &[key, value] : j.members())
        flattenJson(value, path + "/" + key, out);
}

/** Disposition counters of @p r sum to offered (conservation). */
void
expectConserved(const ServingResult &r)
{
    check::CheckResult c = check::checkServingCounters(
        {r.offered, r.completed, r.rejected, r.shed, r.timedOut,
         r.pending});
    EXPECT_TRUE(c.ok()) << c.summary();

    trace::TraceSink sink;
    appendServingTrace(r, sink);
    check::CheckResult t =
        check::checkServingTrace(sink.serving, r.offered);
    EXPECT_TRUE(t.ok()) << t.summary();
}

} // namespace

TEST(Faults, RecoveryActiveGate)
{
    ServingConfig cfg;
    EXPECT_FALSE(recoveryActive(cfg));
    cfg.timeoutCycles = 1;
    EXPECT_TRUE(recoveryActive(cfg));
    cfg.timeoutCycles = 0;
    cfg.shedQueueDepth = 4;
    EXPECT_TRUE(recoveryActive(cfg));
    cfg.shedQueueDepth = 0;
    cfg.faults.rate = 0.5;
    EXPECT_TRUE(recoveryActive(cfg));
    cfg.faults.rate = 0.0;
    cfg.faults.events.push_back({});
    EXPECT_TRUE(recoveryActive(cfg));
}

TEST(Faults, UnreachableTimeoutChangesNoOutcome)
{
    Workload w;
    ServingConfig cfg = baseConfig();

    auto run = [&](const ServingConfig &c) {
        SimContext ctx;
        auto sim = w.simulator(c);
        sim->attachTo(ctx);
        ServingResult r = sim->run();
        std::map<std::string, std::string> leaves;
        flattenJson(ctx.statsToJson(), "", leaves);
        return std::make_pair(std::move(r), std::move(leaves));
    };
    auto [plain, plain_dump] = run(cfg);

    // A timeout horizon no request can ever hit arms timeouts
    // without changing any admission decision: the outcomes must be
    // bitwise identical, and only the dump schema may change.
    cfg.timeoutCycles = Cycles(1) << 40;
    auto [timed, timed_dump] = run(cfg);
    EXPECT_TRUE(timed.recovery);
    EXPECT_FALSE(plain.recovery);
    expectIdenticalResults(plain, timed, "no timeout vs unreachable");

    // The dumps differ exactly by the availability keys, all zero.
    std::set<std::string> extra;
    for (const auto &[path, value] : timed_dump) {
        auto it = plain_dump.find(path);
        if (it == plain_dump.end()) {
            extra.insert(path);
            EXPECT_EQ(value, Json(0).dump()) << path;
        } else {
            EXPECT_EQ(value, it->second) << path;
        }
    }
    EXPECT_EQ(plain_dump.size() + extra.size(), timed_dump.size());
    std::set<std::string> availability;
    for (const char *key :
         {"shed", "timedOut", "retries", "failovers",
          "faults.chipFailStop", "faults.coreLoss",
          "faults.dramOutage", "faults.nocDegrade"})
        availability.insert(std::string("/serving/counters/") + key);
    EXPECT_EQ(extra, availability);
}

TEST(Faults, ChipFailStopFailsOverWithNoLostRequests)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.chips = 2;
    FaultEvent e;
    e.kind = FaultKind::ChipFailStop;
    e.cycle = 200'000; // mid-run: shard 1 has work in flight
    e.chip = 1;
    cfg.faults.events.push_back(e);

    auto [r, json] = runCluster(w, cfg);
    const ServingResult &agg = r.aggregate;
    EXPECT_EQ(agg.faultChipFailStop, 1u);
    EXPECT_GE(agg.failovers, 1u);
    // Zero lost requests: the surviving chip absorbs everything.
    EXPECT_EQ(agg.completed, agg.offered);
    EXPECT_EQ(agg.rejected, 0u);
    expectConserved(agg);

    // The dead shard takes nothing after the fault.
    for (const RequestRecord &q : agg.requests) {
        if (!q.rejected && !q.shed && q.start >= e.cycle)
            EXPECT_EQ(q.shard, 0u) << "request " << q.id;
    }

    // Availability stats publish on the aggregate and the
    // per-shard groups.
    EXPECT_NE(json.find("\"failovers\""), std::string::npos);
    EXPECT_NE(json.find("\"cluster.chip1\""), std::string::npos);
}

TEST(Faults, FixedFaultSeedBitwiseDeterministicAcrossReruns)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.chips = 2;
    cfg.faults.seed = 5;
    cfg.faults.rate = 2.0; // a few random faults over the run
    cfg.timeoutCycles = 400'000;
    cfg.backoffCycles = 10'000;
    cfg.shedQueueDepth = 32;

    // Two fresh simulators: hidden global state (the global sim
    // cache, a static RNG) would make the second run differ.
    auto [r1, json1] = runCluster(w, cfg);
    auto [r2, json2] = runCluster(w, cfg);
    ASSERT_EQ(r1.shards.size(), r2.shards.size());
    expectIdenticalResults(r1.aggregate, r2.aggregate,
                           "first vs second simulator");
    for (size_t i = 0; i < r1.shards.size(); ++i)
        expectIdenticalResults(r1.shards[i], r2.shards[i], "shard");
    EXPECT_EQ(json1, json2);

    // And with the timing-result cache on (cold then warm).
    cfg.system.simCacheEntries = 64;
    TimingResultCache cache(64);
    auto [rc, jsonc] = runCluster(w, cfg, &cache);
    auto [rw, jsonw] = runCluster(w, cfg, &cache);
    EXPECT_GT(cache.hits(), 0u);
    expectIdenticalResults(r1.aggregate, rc.aggregate,
                           "cache off vs cold");
    expectIdenticalResults(r1.aggregate, rw.aggregate,
                           "cache off vs warm");
    EXPECT_EQ(json1, jsonc);
    EXPECT_EQ(json1, jsonw);
    expectConserved(r1.aggregate);
}

TEST(Faults, CoreLossKillsVictimsAndRunStillCompletes)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    FaultEvent e;
    e.kind = FaultKind::CoreLoss;
    e.cycle = 150'000;
    e.chip = 0;
    e.count = 8;
    cfg.faults.events.push_back(e);
    cfg.selfCheck = true; // ledger/region invariants every step

    SimContext ctx;
    auto sim = w.simulator(cfg);
    sim->attachTo(ctx);
    ServingResult r = sim->run();
    EXPECT_EQ(r.faultCoreLoss, 1u);
    EXPECT_EQ(r.completed, r.offered);
    expectConserved(r);
}

TEST(Faults, DramOutageScalesServiceLatencyByChannelRatio)
{
    Workload w;
    ServingConfig cfg = baseConfig();

    auto clean_sim = w.simulator(cfg);
    ServingResult clean = clean_sim->run();

    // Half the channels out for the whole run: every admission
    // sees exactly a 2x service-time multiplier.
    FaultEvent e;
    e.kind = FaultKind::DramOutage;
    e.cycle = 0;
    e.chip = 0;
    e.count = cfg.system.dramChannels / 2;
    e.until = 0; // 0 on a windowed kind = never lifts
    cfg.faults.events.push_back(e);

    auto slow_sim = w.simulator(cfg);
    ServingResult slow = slow_sim->run();
    EXPECT_EQ(slow.faultDramOutage, 1u);
    EXPECT_EQ(slow.minServiceLatency,
              2 * clean.minServiceLatency);
    expectConserved(slow);
}

TEST(Faults, StackedNocDegradeSaturatesServiceTime)
{
    // Each factor is in bounds, but 120 overlapping windows
    // multiply to inf. The scaled service time used to take an
    // out-of-range cast and came out as 0 cycles; it now
    // saturates, so every request finishes at the end of time.
    Workload w;
    ServingConfig cfg = baseConfig();
    for (int i = 0; i < 120; ++i) {
        FaultEvent e;
        e.kind = FaultKind::NocDegrade;
        e.factor = kMaxNocDegradeFactor;
        cfg.faults.events.push_back(e);
    }
    std::string err;
    ASSERT_TRUE(validateFaultConfig(cfg.faults, 1,
                                    cfg.system.dramChannels,
                                    cfg.arrivalSpan(), &err))
        << err;

    ServingResult r = w.simulator(cfg)->run();
    EXPECT_EQ(r.faultNocDegrade, 120u);
    const Cycles end_of_time = Cycles(1) << 63;
    ASSERT_GT(r.completed, 0u);
    for (const RequestRecord &q : r.requests) {
        if (q.completed) {
            EXPECT_EQ(q.finish, end_of_time) << "req " << q.id;
        }
    }
    EXPECT_GT(r.p50, end_of_time / 2);
    EXPECT_GT(r.minServiceLatency, end_of_time / 2);
    expectConserved(r);
}

TEST(Faults, QueueTimeoutRetriesThenDropsWithStampsCleared)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    // A simultaneous burst against serial service: the queue backs
    // up far beyond the timeout horizon.
    cfg.meanInterarrival = 1'000;
    cfg.timeoutCycles = 50'000;
    cfg.maxRetries = 2;
    cfg.backoffCycles = 5'000;

    auto sim = w.simulator(cfg);
    ServingResult r = sim->run();
    EXPECT_GT(r.timedOut, 0u);
    EXPECT_GT(r.retries, 0u);
    expectConserved(r);
    for (const RequestRecord &q : r.requests) {
        if (!q.timedOut)
            continue;
        // The drop consumed the whole budget, and a dropped
        // request holds no admission stamps.
        EXPECT_EQ(q.retries, cfg.maxRetries + 1) << "req " << q.id;
        EXPECT_EQ(q.start, 0u) << "req " << q.id;
        EXPECT_EQ(q.finish, 0u) << "req " << q.id;
        EXPECT_FALSE(q.completed) << "req " << q.id;
    }
}

TEST(Faults, SheddingGatesFreshArrivalsAtDepth)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    cfg.meanInterarrival = 1'000; // burst
    cfg.shedQueueDepth = 2;

    auto sim = w.simulator(cfg);
    ServingResult r = sim->run();
    EXPECT_GT(r.shed, 0u);
    expectConserved(r);
    for (const RequestRecord &q : r.requests) {
        if (!q.shed)
            continue;
        EXPECT_EQ(q.start, 0u);
        EXPECT_EQ(q.cores, 0u);
        EXPECT_EQ(q.retries, 0u);
    }
}

TEST(Faults, FaultFreeStatsDumpCarriesNoAvailabilityKeys)
{
    Workload w;
    auto [r, json] = runCluster(w, baseConfig());
    EXPECT_FALSE(r.aggregate.recovery);
    // The gated counters must not appear: the fault-free dump is
    // byte-compatible with the pre-fault format.
    EXPECT_EQ(json.find("\"shed\""), std::string::npos);
    EXPECT_EQ(json.find("\"timedOut\""), std::string::npos);
    EXPECT_EQ(json.find("\"failovers\""), std::string::npos);
    EXPECT_EQ(json.find("\"faults\""), std::string::npos);
}

TEST(Faults, InjectorScheduleIsAPureFunctionOfConfig)
{
    FaultConfig fc;
    fc.seed = 42;
    fc.rate = 5.0;
    fc.window = 2'000'000;
    FaultEvent e;
    e.kind = FaultKind::CoreLoss;
    e.cycle = 123;
    e.count = 2;
    fc.events.push_back(e);

    FaultInjector a(fc, 2, 32, 1'000'000);
    FaultInjector b(fc, 2, 32, 1'000'000);
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    EXPECT_GT(a.schedule().size(), 1u); // random part drew some
    for (size_t i = 0; i < a.schedule().size(); ++i) {
        const FaultEvent &x = a.schedule()[i];
        const FaultEvent &y = b.schedule()[i];
        EXPECT_EQ(int(x.kind), int(y.kind)) << i;
        EXPECT_EQ(x.cycle, y.cycle) << i;
        EXPECT_EQ(x.chip, y.chip) << i;
        EXPECT_EQ(x.count, y.count) << i;
        EXPECT_EQ(x.until, y.until) << i;
        EXPECT_EQ(x.factor, y.factor) << i;
    }
    // Sorted by cycle, chips in range, and the explicit event
    // survived verbatim.
    bool found = false;
    for (size_t i = 0; i < a.schedule().size(); ++i) {
        const FaultEvent &x = a.schedule()[i];
        if (i)
            EXPECT_GE(x.cycle, a.schedule()[i - 1].cycle);
        EXPECT_LT(x.chip, 2u);
        found = found
            || (x.kind == FaultKind::CoreLoss && x.cycle == 123
                && x.count == 2);
    }
    EXPECT_TRUE(found);

    // A different seed draws a different random schedule.
    fc.seed = 43;
    FaultInjector c(fc, 2, 32, 1'000'000);
    bool differs = c.schedule().size() != a.schedule().size();
    for (size_t i = 0;
         !differs && i < a.schedule().size(); ++i) {
        differs = a.schedule()[i].cycle != c.schedule()[i].cycle;
    }
    EXPECT_TRUE(differs);
}

TEST(Faults, InjectorChecksTheRateAgainstItsOwnWindow)
{
    // A binary may stretch the arrival stream after the front end
    // validated the rate; the injector repeats the check over the
    // window it draws over and exits with the message instead of
    // drawing a million events.
    FaultConfig fc;
    fc.rate = 1000.0;
    EXPECT_FALSE(FaultInjector(fc, 1, 32, 1'000'000).schedule().empty());
    EXPECT_EXIT(FaultInjector(fc, 1, 32, 1'000'000'000),
                testing::ExitedWithCode(1),
                "serving.faults.rate: rate 1000 expects 1e\\+06 random "
                "faults over the 1000000000-cycle window");
}

TEST(Faults, TimingKeyIncorporatesFaultSignature)
{
    Workload w;
    ServingConfig cfg = baseConfig();
    MappingPlan plan =
        planMapping(w.radar.net, Strategy::Heuristic, 30);

    TimingKey clean =
        makeTimingKey(w.radar.net, plan, 1, cfg.system);
    FaultConfig fc;
    fc.rate = 1.0;
    TimingKey faulted = makeTimingKey(w.radar.net, plan, 1,
                                      cfg.system,
                                      faultSignature(fc));
    EXPECT_NE(clean.material, faulted.material);
    // Inactive faults leave the key byte-identical (warm caches
    // from fault-free sweeps keep hitting).
    FaultConfig off;
    TimingKey still_clean = makeTimingKey(
        w.radar.net, plan, 1, cfg.system, faultSignature(off));
    EXPECT_EQ(clean.material, still_clean.material);
}
