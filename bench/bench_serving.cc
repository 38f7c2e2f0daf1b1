/**
 * @file
 * Request-driven serving: latency vs offered load. Sweeps the
 * Poisson arrival rate over a two-model mix (two SmallCnn sizes)
 * and prints the latency percentiles, queueing delay, utilization,
 * and throughput at every operating point — the latency-vs-load
 * curve in EXPERIMENTS.md. With `--arrivals=FILE` the sweep is
 * replaced by one run over explicit `<cycle> <model>` arrivals.
 *
 * With `--sim-cache=N` (N > 0) the sweep runs **twice** — once with
 * the timing-result cache (runtime/sim_cache.hh) disabled and once
 * with it enabled — times both passes, byte-compares the stats-JSON
 * registry dump of the saturated point, and reports the wall-clock
 * speedup plus the cache's hit/miss/insertion/eviction counters:
 * the cached-vs-uncached table in EXPERIMENTS.md. A mismatch in the
 * dumps (a determinism-contract violation, DESIGN.md §13) fails the
 * run.
 *
 * In sweep mode the run ends with an **admission-policy
 * comparison**: every policy variant (fifo, fifo+backfill, sjf,
 * priority, priority+backfill — runtime/admission.hh) serves the
 * *same* coupled arrival stream at one moderately loaded operating
 * point, with the radar as priority class 0 and the camera as
 * class 1, and the table reports per-policy percentiles, queueing,
 * and global + per-class SLO attainment (`--slo-cycles=N`; default
 * 4x the minimum isolated service latency). Each variant is also
 * rerun with the timing-result cache on, and the stats-JSON
 * registry dumps must be byte-identical — the serving determinism
 * contract, policy by policy; a mismatch fails the run.
 *
 * Sweep mode then closes with the **cluster scaling table**
 * (runtime/cluster.hh): the saturated operating point's coupled
 * arrival stream served by 1, 2, and 4 chip shards under every
 * cross-chip dispatch policy, reporting aggregate percentiles,
 * utilization over the cluster-wide core pool, throughput, and the
 * speedup over one chip. Round-robin throughput must increase
 * monotonically 1 -> 2 -> 4 chips, and the 1-chip cluster's stats
 * registry must be byte-identical to the single-chip sweep point
 * (the `--chips=1` compatibility contract, DESIGN.md §14); either
 * failing fails the run.
 *
 * The run ends with the **availability-under-faults sweep**
 * (src/fault/, DESIGN.md §16): one scenario per fault class —
 * chip fail-stop, permanent core loss, a windowed DRAM-channel
 * outage — plus a seeded Poisson chaos schedule, each served over
 * a two-chip cluster with timeouts, bounded retries, and overload
 * shedding on. The table reports the disposition breakdown,
 * retry/failover counters, and availability (completed/offered);
 * every scenario must satisfy request conservation. The fault runs
 * join the combined --stats-json registry under `faults-<name>`,
 * so BENCH_serving.json doubles as the availability baseline.
 *
 * Flags: the common set (common/cli.hh: --config --dump-config
 * --stats-json --seed --trace --sim-cache --policy
 * --slo-cycles --chips --shard-policy) plus --requests=R --batch=B
 * --arrivals=FILE. Trace mode serves the file through the cluster
 * tier, so --chips/--shard-policy apply there too. --stats-json
 * dumps one combined registry: the saturated single-chip point
 * under the legacy `serving` component (byte-identical to the
 * pre-cluster dump) plus the 2- and 4-chip scaling runs under
 * `cluster2` / `cluster4`; BENCH_serving.json in the repo root is
 * the checked-in baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "runtime/cluster.hh"
#include "runtime/serving.hh"
#include "runtime/sim_cache.hh"

using namespace maicc;

namespace
{

void
addRow(TextTable &t, const std::string &point,
       const ServingResult &r, double clock_hz)
{
    double ms = 1e3 / clock_hz;
    t.addRow({point, TextTable::num(r.offered),
              TextTable::num(r.completed),
              TextTable::num(r.rejected),
              TextTable::num(r.p50 * ms, 3),
              TextTable::num(r.p95 * ms, 3),
              TextTable::num(r.p99 * ms, 3),
              TextTable::num(r.meanQueueing * ms, 3),
              TextTable::num(r.utilization * 100, 1),
              TextTable::num(r.throughput(clock_hz), 1)});
}

/** Outcome of one full load sweep. */
struct SweepResult
{
    std::vector<double> means;  ///< mean latency per point
    std::string lastStatsJson;  ///< saturated point's registry dump
    double wallSeconds = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    cli::Options opt("bench_serving", argc, argv);
    std::string arrivals = opt.flag("arrivals");
    uint64_t requests = opt.flagUint("requests", 0);
    uint64_t batch = opt.flagUint("batch", 0);
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;

    ServingConfig cfg = opt.config.serving;
    cfg.seed = opt.seed(42);
    if (requests)
        cfg.offeredRequests = unsigned(requests);
    else if (!opt.hasConfigFile())
        cfg.offeredRequests = 48;
    if (batch)
        cfg.maxBatch = unsigned(batch);
    if (!opt.hasConfigFile())
        cfg.queueCapacity = 1u << 20; // sweep w/o admission control

    // The served mix: two CNN sizes, the larger twice as popular.
    Network camera = buildSmallCnn(16, 16, 64);
    Network radar = buildSmallCnn(8, 8, 64);
    auto camW = randomWeights(camera, 2023);
    auto radW = randomWeights(radar, 2024);
    Tensor3 camIn(16, 16, 64), radIn(8, 8, 64);
    Rng rng(2025);
    camIn.randomize(rng);
    radIn.randomize(rng);

    // The radar is the urgent class (0), the camera class 1 — the
    // split the priority policy and the per-class SLO columns act
    // on.
    auto makeSim = [&](const ServingConfig &c) {
        auto sim = std::make_unique<ServingSimulator>(c);
        sim->addModel(
            {"camera", &camera, &camW, &camIn, 2.0, 0, 1});
        sim->addModel({"radar", &radar, &radW, &radIn, 1.0, 0, 0});
        return sim;
    };
    auto makeCluster = [&](const ServingConfig &c) {
        auto sim = std::make_unique<ClusterSimulator>(c);
        sim->addModel(
            {"camera", &camera, &camW, &camIn, 2.0, 0, 1});
        sim->addModel({"radar", &radar, &radW, &radIn, 1.0, 0, 0});
        return sim;
    };

    double hz = cfg.system.clockHz;
    TextTable t({"point", "offered", "done", "rej", "p50 ms",
                 "p95 ms", "p99 ms", "queue ms", "util %",
                 "req/s"});

    if (!arrivals.empty()) {
        // Through the cluster tier, so --chips/--shard-policy
        // shard the trace; chips=1 is the plain single-chip path
        // (and its stats keep the legacy `serving` layout).
        cfg.arrivals = ArrivalProcess::Trace;
        SimContext ctx;
        auto sim = makeCluster(cfg);
        sim->attach(ctx);
        if (!sim->loadTraceFile(arrivals)) {
            std::fprintf(stderr, "bad arrival trace: %s\n",
                         arrivals.c_str());
            return 1;
        }
        ClusterResult r = sim->run();
        std::printf("== Serving: trace %s (%u chip%s) ==\n\n",
                    arrivals.c_str(), sim->chips(),
                    sim->chips() > 1 ? "s" : "");
        addRow(t, "trace", r.aggregate, hz);
        if (sim->chips() > 1) {
            for (size_t s = 0; s < r.shards.size(); ++s)
                addRow(t, "chip" + std::to_string(s), r.shards[s],
                       hz);
        }
        t.print(std::cout);
        return opt.writeStats(ctx) ? 0 : 1;
    }

    // Mean inter-arrival gaps from idle to saturated; one seeded
    // uniform stream scaled by the gap couples the sweep points, so
    // the latency curve is monotone by construction.
    const Cycles gaps[] = {2'000'000, 800'000, 300'000, 100'000,
                           30'000, 8'000};
    const size_t n_gaps = sizeof(gaps) / sizeof(gaps[0]);

    // One full sweep under @p cache_entries; rows land in @p table
    // when non-null (the printed table comes from the authoritative
    // pass; a verification pass runs silently). The --stats-json
    // write happens after the cluster scaling section, off one
    // combined registry.
    auto sweep = [&](unsigned cache_entries, TextTable *table) {
        SweepResult sr;
        auto t0 = std::chrono::steady_clock::now();
        for (size_t gi = 0; gi < n_gaps; ++gi) {
            ServingConfig point = cfg;
            point.meanInterarrival = gaps[gi];
            point.system.simCacheEntries = cache_entries;
            SimContext ctx;
            auto sim = makeSim(point);
            sim->attachTo(ctx);
            ServingResult r = sim->run();
            if (table) {
                char label[64];
                std::snprintf(label, sizeof(label), "1/%.3f ms",
                              gaps[gi] / 1e6);
                addRow(*table, label, r, hz);
            }
            sr.means.push_back(r.meanLatency);
            if (gi + 1 == n_gaps)
                sr.lastStatsJson = ctx.statsToJson().dump();
        }
        sr.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        return sr;
    };

    unsigned cache_entries = cfg.system.simCacheEntries;
    std::printf("== Serving: latency vs offered load "
                "(camera:radar = 2:1, %u requests, seed %llu%s) "
                "==\n\n",
                cfg.offeredRequests,
                static_cast<unsigned long long>(cfg.seed),
                cache_entries ? ", sim-cache A/B" : "");

    // Uncached pass first (it seeds nothing); it is also the
    // authoritative table and --stats-json source, so the dumped
    // baseline is identical with or without --sim-cache.
    TimingResultCache::global().reset();
    SweepResult uncached = sweep(0, &t);
    t.print(std::cout);

    bool monotone = true;
    for (size_t i = 1; i < uncached.means.size(); ++i)
        monotone = monotone && uncached.means[i]
                >= uncached.means[i - 1];
    std::printf("\nMean latency non-decreasing with load: %s\n",
                monotone ? "PASS" : "FAIL");

    bool identical = true;
    if (cache_entries) {
        SweepResult cached = sweep(cache_entries, nullptr);
        const TimingResultCache &c = TimingResultCache::global();
        identical = cached.lastStatsJson == uncached.lastStatsJson
            && cached.means == uncached.means;
        std::printf(
            "\n== Timing-result cache A/B (--sim-cache=%u) ==\n"
            "uncached sweep: %.3f s\n"
            "cached sweep:   %.3f s  (speedup %.2fx)\n"
            "cache counters: %llu hits, %llu misses, "
            "%llu insertions, %llu evictions, %llu entries\n"
            "stats-json byte-identical: %s\n",
            cache_entries, uncached.wallSeconds,
            cached.wallSeconds,
            cached.wallSeconds > 0
                ? uncached.wallSeconds / cached.wallSeconds
                : 0.0,
            static_cast<unsigned long long>(c.hits()),
            static_cast<unsigned long long>(c.misses()),
            static_cast<unsigned long long>(c.insertions()),
            static_cast<unsigned long long>(c.evictions()),
            static_cast<unsigned long long>(c.size()),
            identical ? "PASS" : "FAIL");
    }
    // ---- Admission-policy comparison ----
    // Every policy serves the same coupled arrival stream at one
    // moderately loaded point; each variant is rerun with the
    // timing-result cache on, and the rerun must dump a
    // byte-identical stats registry (the determinism contract,
    // policy by policy).
    struct PolicyVariant
    {
        const char *what;
        SchedPolicy policy;
        bool backfill;
    };
    const PolicyVariant variants[] = {
        {"fifo", SchedPolicy::Fifo, false},
        {"fifo+backfill", SchedPolicy::Fifo, true},
        {"sjf", SchedPolicy::Sjf, false},
        {"priority", SchedPolicy::Priority, false},
        {"priority+backfill", SchedPolicy::Priority, true},
    };

    // The saturated sweep point: enough queueing for the policies
    // to actually diverge.
    ServingConfig pcfg = cfg;
    pcfg.meanInterarrival = gaps[n_gaps - 1];
    pcfg.system.simCacheEntries = 0;

    Cycles slo = cfg.sloCycles;
    if (!slo) {
        // Default SLO: 4x the minimum isolated service latency of
        // the mix, probed from one run at the comparison point.
        slo = 4 * makeSim(pcfg)->run().minServiceLatency;
    }
    pcfg.sloCycles = slo;

    double ms = 1e3 / hz;
    TextTable pt({"policy", "done", "rej", "p50 ms", "p95 ms",
                  "p99 ms", "queue ms", "slo %", "c0 slo %",
                  "c1 slo %", "req/s"});
    bool policies_identical = true;
    for (const PolicyVariant &v : variants) {
        std::string base_dump;
        for (unsigned entries : {0u, 256u}) {
            ServingConfig rc = pcfg;
            rc.policy = v.policy;
            rc.backfill = v.backfill;
            rc.system.simCacheEntries = entries;
            SimContext ctx;
            auto sim = makeSim(rc);
            sim->attachTo(ctx);
            TimingResultCache isolated(entries);
            if (entries)
                sim->setTimingCache(&isolated);
            ServingResult r = sim->run();
            std::string dump = ctx.statsToJson().dump();
            if (!base_dump.empty()) {
                policies_identical = policies_identical
                    && dump == base_dump;
                continue;
            }
            base_dump = dump;
            double c0 = 0, c1 = 0;
            for (const auto &c : r.classes) {
                if (c.priorityClass == 0)
                    c0 = c.sloAttainment();
                if (c.priorityClass == 1)
                    c1 = c.sloAttainment();
            }
            uint64_t n = r.sloMet + r.sloMissed;
            pt.addRow({v.what, TextTable::num(r.completed),
                       TextTable::num(r.rejected),
                       TextTable::num(r.p50 * ms, 3),
                       TextTable::num(r.p95 * ms, 3),
                       TextTable::num(r.p99 * ms, 3),
                       TextTable::num(r.meanQueueing * ms, 3),
                       TextTable::num(
                           n ? 100.0 * double(r.sloMet) / double(n)
                             : 0.0,
                           1),
                       TextTable::num(c0 * 100, 1),
                       TextTable::num(c1 * 100, 1),
                       TextTable::num(r.throughput(hz), 1)});
        }
    }
    std::printf("\n== Admission policies (same arrival stream, "
                "gap 1/%.3f ms, SLO %.3f ms, radar=class 0, "
                "camera=class 1) ==\n\n",
                pcfg.meanInterarrival / 1e6, double(slo) * ms);
    pt.print(std::cout);
    std::printf("\nPer-policy determinism (sim-cache off/on): "
                "%s\n",
                policies_identical ? "PASS" : "FAIL");

    // ---- Cluster scaling ----
    // The saturated point's coupled arrival stream, served by 1, 2,
    // and 4 chip shards under every dispatch policy. The 1-chip
    // cluster must reproduce the single-chip sweep point byte for
    // byte, and round-robin throughput must grow with the shard
    // count (the stream is saturated, so extra chips mean extra
    // drained work per cycle).
    ServingConfig scfg = cfg;
    scfg.meanInterarrival = gaps[n_gaps - 1];
    scfg.system.simCacheEntries = 0;

    const ShardPolicy shard_policies[] = {
        ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded,
        ShardPolicy::ModelAffinity};
    TextTable st({"chips", "policy", "done", "rej", "p50 ms",
                  "p99 ms", "util %", "req/s", "speedup"});

    // The combined --stats-json registry: the 1-chip run attaches
    // first under the legacy `serving` name, and the dump is
    // snapshotted before the 2-/4-chip components join so it can be
    // byte-compared against the single-chip sweep point.
    SimContext scale_ctx;
    std::vector<std::unique_ptr<ClusterSimulator>> kept;
    double tp1 = 0;
    std::vector<double> rr_tp;
    bool chips1_identical = true;
    for (unsigned chips : {1u, 2u, 4u}) {
        for (ShardPolicy sp : shard_policies) {
            if (chips == 1 && sp != ShardPolicy::RoundRobin)
                continue; // one chip has nothing to dispatch over
            ServingConfig rc = scfg;
            rc.chips = chips;
            rc.shardPolicy = sp;
            auto sim = makeCluster(rc);
            ClusterResult r;
            if (sp == ShardPolicy::RoundRobin) {
                // The round-robin runs carry the stats registry.
                sim->attach(scale_ctx, "cluster"
                            + std::to_string(chips));
                r = sim->run();
                if (chips == 1) {
                    chips1_identical =
                        scale_ctx.statsToJson().dump()
                        == uncached.lastStatsJson;
                    tp1 = r.aggregate.throughput(hz);
                }
                rr_tp.push_back(r.aggregate.throughput(hz));
                kept.push_back(std::move(sim));
            } else {
                r = sim->run();
            }
            const ServingResult &a = r.aggregate;
            st.addRow({std::to_string(chips),
                       chips == 1 ? "-" : shardPolicyName(sp),
                       TextTable::num(a.completed),
                       TextTable::num(a.rejected),
                       TextTable::num(a.p50 * ms, 3),
                       TextTable::num(a.p99 * ms, 3),
                       TextTable::num(a.utilization * 100, 1),
                       TextTable::num(a.throughput(hz), 1),
                       TextTable::num(
                           tp1 > 0 ? a.throughput(hz) / tp1 : 0.0,
                           2)});
        }
    }
    bool scaling_monotone = rr_tp.size() == 3 && rr_tp[0] < rr_tp[1]
        && rr_tp[1] < rr_tp[2];
    std::printf("\n== Cluster scaling (same arrival stream, gap "
                "1/%.3f ms, %u requests) ==\n\n",
                scfg.meanInterarrival / 1e6, scfg.offeredRequests);
    st.print(std::cout);
    std::printf("\nThroughput monotonically increasing "
                "1 -> 2 -> 4 chips (round-robin): %s\n"
                "chips=1 stats byte-identical to the single-chip "
                "path: %s\n",
                scaling_monotone ? "PASS" : "FAIL",
                chips1_identical ? "PASS" : "FAIL");

    // ---- Availability under faults ----
    // The same coupled stream at a moderate load over a two-chip
    // cluster with the recovery knobs on (timeout + bounded retry,
    // overload shedding), swept across one scenario per fault
    // class plus a seeded Poisson chaos schedule. Availability is
    // completed/offered, and the disposition counters must
    // partition the offered stream (the request-conservation rule,
    // check/invariants.hh).
    struct FaultScenario
    {
        const char *what;
        ServingConfig cfg;
    };
    std::vector<FaultScenario> fscen;
    {
        ServingConfig f = cfg;
        f.meanInterarrival = 100'000;
        f.chips = 2;
        f.system.simCacheEntries = 0;
        f.timeoutCycles = 1'500'000;
        f.maxRetries = 2;
        f.backoffCycles = 20'000;
        f.shedQueueDepth = 64;
        fscen.push_back({"none", f});
        {
            ServingConfig s = f;
            FaultEvent e;
            e.kind = FaultKind::ChipFailStop;
            e.cycle = 1'200'000;
            e.chip = 1;
            s.faults.events.push_back(e);
            fscen.push_back({"chip-fail", s});
        }
        {
            ServingConfig s = f;
            FaultEvent e;
            e.kind = FaultKind::CoreLoss;
            e.cycle = 800'000;
            e.chip = 0;
            e.count = 8;
            s.faults.events.push_back(e);
            fscen.push_back({"core-loss", s});
        }
        {
            ServingConfig s = f;
            FaultEvent e;
            e.kind = FaultKind::DramOutage;
            e.cycle = 500'000;
            e.chip = 0;
            e.count = std::max(1u, f.system.dramChannels / 2);
            e.until = 2'500'000;
            s.faults.events.push_back(e);
            fscen.push_back({"dram-outage", s});
        }
        {
            ServingConfig s = f;
            s.faults.seed = 7;
            s.faults.rate = 1.5;
            fscen.push_back({"chaos", s});
        }
    }

    TextTable ft({"scenario", "offered", "done", "rej", "shed",
                  "timeout", "retries", "failovers", "avail %"});
    bool faults_conserved = true;
    for (const FaultScenario &fs : fscen) {
        // Each run joins the combined registry, so the dumped
        // baseline carries the availability counters.
        auto sim = makeCluster(fs.cfg);
        sim->attach(scale_ctx, std::string("faults-") + fs.what);
        ClusterResult fr = sim->run();
        kept.push_back(std::move(sim));
        const ServingResult &a = fr.aggregate;
        faults_conserved = faults_conserved
            && a.completed + a.rejected + a.shed + a.timedOut
                    + a.pending
                == a.offered;
        ft.addRow({fs.what, TextTable::num(a.offered),
                   TextTable::num(a.completed),
                   TextTable::num(a.rejected),
                   TextTable::num(a.shed),
                   TextTable::num(a.timedOut),
                   TextTable::num(a.retries),
                   TextTable::num(a.failovers),
                   TextTable::num(a.offered ? 100.0
                                       * double(a.completed)
                                       / double(a.offered)
                                            : 0.0,
                                  1)});
    }
    std::printf("\n== Availability under faults (2 chips, gap "
                "1/%.3f ms, timeout %.3f ms, %u retries, shed "
                "depth %u) ==\n\n",
                100'000 / 1e6, 1'500'000 * ms,
                fscen[0].cfg.maxRetries,
                fscen[0].cfg.shedQueueDepth);
    ft.print(std::cout);
    std::printf("\nRequest conservation (every scenario): %s\n",
                faults_conserved ? "PASS" : "FAIL");

    bool stats_ok = opt.writeStats(scale_ctx);
    return monotone && stats_ok && identical && policies_identical
            && scaling_monotone && chips1_identical
            && faults_conserved
        ? 0
        : 1;
}
