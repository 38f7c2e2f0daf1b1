/**
 * @file
 * Ticked-vs-event differential suite (DESIGN.md §15): the two
 * engines must produce *byte-identical* results — cycle counts,
 * delivery orders, every stat counter, and the full --stats-json
 * registry dump — on every refitted model. Covers:
 *
 *  - MeshNoc under seeded random traffic (dense and the sparse
 *    low-occupancy case where skip-ahead jumps dominate);
 *  - CoreTimingModel over seeded random RV32+CMem programs (the
 *    write-back port booking is the engine-sensitive path);
 *  - ManyCoreDram: per-cycle polling drain vs the event-kernel
 *    drainVia(), completion for completion;
 *  - MaiccSystem end-to-end runs (streaming segment loop);
 *  - serving and cluster runs at 1 and 8 host threads with the
 *    timing-result cache off, cold, and warmed *by the other
 *    engine* (the cache key pins the engine, so entries must
 *    replay across engines). Both engines drive the same serving
 *    loop (runtime/serving_loop.hh); what differs is the
 *    MaiccSystem run behind every (model, cores) service profile,
 *    so these cases pin that the profiles, and every outcome built
 *    on them, agree;
 *  - hostSeconds publication: absent from default stats dumps
 *    (they are byte-compared across engines), present only under
 *    SimContext::enableHostTimers.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cmem/cmem.hh"
#include "common/json.hh"
#include "common/rand_program.hh"
#include "common/random.hh"
#include "common/serving_fixtures.hh"
#include "common/sim_component.hh"
#include "core/timing.hh"
#include "dram/dram.hh"
#include "engine/event_queue.hh"
#include "mem/node_memory.hh"
#include "mem/row_store.hh"
#include "noc/noc.hh"
#include "nn/reference.hh"
#include "runtime/cluster.hh"
#include "runtime/sim_cache.hh"
#include "runtime/system.hh"

using namespace maicc;
using testserv::Workload;
using testserv::expectIdenticalResults;

namespace
{

NocConfig
nocConfig(EngineKind engine)
{
    NocConfig cfg;
    cfg.engine = engine;
    return cfg;
}

/** Inject the same seeded traffic into @p noc and drain it. */
std::string
runNocTraffic(MeshNoc &noc, uint64_t seed, unsigned packets,
              unsigned waves)
{
    Rng rng(seed);
    for (unsigned w = 0; w < waves; ++w) {
        for (unsigned i = 0; i < packets; ++i) {
            Packet p;
            p.src = NodeId(rng.below(256));
            p.dst = NodeId(rng.below(256));
            if (p.dst == p.src)
                p.dst = (p.src + 1) % 256;
            p.sizeFlits = unsigned(1 + rng.below(9));
            p.tag = w * 1000 + i;
            noc.inject(p);
        }
        noc.drain();
    }
    SimContext ctx;
    noc.attachTo(ctx, "noc");
    return ctx.statsToJson().dump();
}

void
expectNocIdentical(uint64_t seed, unsigned packets, unsigned waves)
{
    SCOPED_TRACE("seed " + std::to_string(seed) + " packets "
                 + std::to_string(packets));
    MeshNoc ticked(nocConfig(EngineKind::Ticked));
    MeshNoc event(nocConfig(EngineKind::Event));
    std::string tj = runNocTraffic(ticked, seed, packets, waves);
    std::string ej = runNocTraffic(event, seed, packets, waves);

    // Same deliveries in the same per-node order...
    for (NodeId n = 0; n < 256; ++n) {
        auto &td = ticked.delivered(n);
        auto &ed = event.delivered(n);
        ASSERT_EQ(td.size(), ed.size()) << "node " << n;
        for (size_t i = 0; i < td.size(); ++i)
            EXPECT_EQ(td[i].tag, ed[i].tag)
                << "node " << n << " slot " << i;
    }
    EXPECT_EQ(ticked.packetsDelivered(), event.packetsDelivered());
    // ...the same latency arithmetic, bit for bit...
    EXPECT_EQ(ticked.avgPacketLatency(), event.avgPacketLatency());
    // ...and the same registry dump (includes the cycle counter,
    // so a skip-ahead jump landing on a wrong cycle fails here).
    EXPECT_EQ(tj, ej);
}

} // namespace

TEST(EngineDifferential, NocDenseRandomTraffic)
{
    expectNocIdentical(101, 400, 3);
}

TEST(EngineDifferential, NocSparseLowOccupancyTraffic)
{
    // A handful of long-haul packets: almost every drain cycle is
    // idle, so the event engine spends its time in clock jumps —
    // the case the skip-ahead math must get exactly right.
    expectNocIdentical(77, 3, 4);
}

TEST(EngineDifferential, NocSingleFlitAcrossTheMesh)
{
    MeshNoc ticked(nocConfig(EngineKind::Ticked));
    MeshNoc event(nocConfig(EngineKind::Event));
    for (MeshNoc *noc : {&ticked, &event}) {
        Packet p;
        p.src = noc->nodeId(0, 0);
        p.dst = noc->nodeId(15, 15);
        p.sizeFlits = 1;
        noc->inject(p);
        noc->drain();
    }
    EXPECT_EQ(ticked.avgPacketLatency(), event.avgPacketLatency());
    EXPECT_DOUBLE_EQ(event.avgPacketLatency(),
                     event.zeroLoadLatency(30, 1));
}

namespace
{

/** One complete node state for a core-timing run. */
struct NodeState
{
    explicit NodeState(const rv32::Program &p)
        : prog(p), nodeMem(cmem, &ext)
    {
    }

    const rv32::Program &prog;
    CMem cmem;
    FlatMemory ext;
    RowStore rows;
    NodeMemory nodeMem;
};

CoreRunStats
runCore(const rv32::Program &prog, EngineKind engine)
{
    NodeState ns(prog);
    CoreConfig cfg;
    cfg.engine = engine;
    CoreTimingModel model(prog, ns.nodeMem, &ns.cmem, &ns.rows,
                          cfg);
    return model.run();
}

} // namespace

TEST(EngineDifferential, CoreTimingRandomPrograms)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        rv32::Program prog = testgen::randomProgram(rng);
        CoreRunStats t = runCore(prog, EngineKind::Ticked);
        CoreRunStats e = runCore(prog, EngineKind::Event);
        EXPECT_EQ(t.cycles, e.cycles);
        EXPECT_EQ(t.insts, e.insts);
        EXPECT_EQ(t.cmemInsts, e.cmemInsts);
        EXPECT_EQ(t.cmemBusyCycles, e.cmemBusyCycles);
        EXPECT_EQ(t.stallRaw, e.stallRaw);
        EXPECT_EQ(t.stallWaw, e.stallWaw);
        EXPECT_EQ(t.stallQueueFull, e.stallQueueFull);
        EXPECT_EQ(t.stallStructural, e.stallStructural);
        EXPECT_EQ(t.branchPenaltyCycles, e.branchPenaltyCycles);
        EXPECT_EQ(t.localMemOps, e.localMemOps);
        EXPECT_EQ(t.remoteOps, e.remoteOps);
    }
}

namespace
{

DramConfig
dramConfig(EngineKind engine)
{
    DramConfig cfg;
    cfg.engine = engine;
    return cfg;
}

/** (tag, cycle, write) triples in completion order. */
using Completions = std::vector<std::vector<uint64_t>>;

void
enqueueSeeded(ManyCoreDram &dram, uint64_t seed, unsigned n)
{
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        Addr a = Addr(rng.below(1u << 26)) * 64;
        dram.enqueue(a, rng.below(2) != 0, i, 0);
    }
}

Completions
asTriples(const std::vector<DramCompletion> &done)
{
    Completions out;
    for (const DramCompletion &c : done)
        out.push_back({c.tag, uint64_t(c.finishedAt),
                       uint64_t(c.write)});
    return out;
}

} // namespace

TEST(EngineDifferential, DramPollingDrainVsEventDrain)
{
    for (uint64_t seed : {5u, 6u, 7u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));

        // Ticked: the legacy polling sweep — advance every channel
        // every cycle, collect in channel order.
        ManyCoreDram ticked(8, dramConfig(EngineKind::Ticked));
        enqueueSeeded(ticked, seed, 96);
        std::vector<DramCompletion> tdone;
        Cycles c = 0;
        while (!ticked.idle()) {
            ++c;
            ASSERT_LT(c, Cycles(1'000'000)) << "polling runaway";
            ticked.tick(c);
            for (unsigned ch = 0; ch < ticked.numChannels(); ++ch)
                for (auto &d : ticked.channel(ch).collect(c))
                    tdone.push_back(d);
        }

        // Event: the wake-up chain drain on the shared kernel.
        ManyCoreDram event(8, dramConfig(EngineKind::Event));
        enqueueSeeded(event, seed, 96);
        std::vector<DramCompletion> edone;
        EventQueue eq;
        Cycles last = event.drainVia(eq, &edone);

        ASSERT_EQ(tdone.size(), edone.size());
        EXPECT_EQ(asTriples(tdone), asTriples(edone));
        EXPECT_EQ(last, tdone.back().finishedAt);
        // Far fewer wake-ups than polled cycles is the point.
        EXPECT_LT(eq.eventsRun(), uint64_t(c));

        DramStats ts = ticked.totalStats();
        DramStats es = event.totalStats();
        EXPECT_EQ(ts.reads, es.reads);
        EXPECT_EQ(ts.writes, es.writes);
        EXPECT_EQ(ts.activates, es.activates);
        EXPECT_EQ(ts.rowHits, es.rowHits);
        EXPECT_EQ(ts.busyCycles, es.busyCycles);
    }
}

namespace
{

struct SystemFixture
{
    explicit SystemFixture(Network n, uint64_t seed)
        : net(std::move(n)), weights(randomWeights(net, seed))
    {
        const LayerSpec &first = net.layer(0);
        input = Tensor3(first.inH, first.inW, first.inC);
        Rng rng(seed + 1);
        input.randomize(rng);
    }

    Network net;
    std::vector<Weights4> weights;
    Tensor3 input;
};

RunResult
runSystem(const SystemFixture &m, EngineKind engine,
          unsigned threads)
{
    SystemConfig cfg;
    cfg.engine = engine;
    cfg.numThreads = threads;
    MaiccSystem sys(m.net, m.weights, cfg);
    MappingPlan plan = planMapping(m.net, Strategy::Heuristic, 210);
    return sys.run(plan, m.input);
}

} // namespace

TEST(EngineDifferential, SystemRunIdentical)
{
    SystemFixture m(buildSmallCnn(16, 16, 64), 43);
    for (unsigned threads : {1u, 8u}) {
        SCOPED_TRACE(threads);
        RunResult t = runSystem(m, EngineKind::Ticked, threads);
        RunResult e = runSystem(m, EngineKind::Event, threads);
        EXPECT_EQ(t.totalCycles, e.totalCycles);
        ASSERT_EQ(t.layerOutputs.size(), e.layerOutputs.size());
        for (size_t i = 0; i < t.layerOutputs.size(); ++i)
            EXPECT_EQ(t.layerOutputs[i].data,
                      e.layerOutputs[i].data)
                << "layer " << i;
        EXPECT_EQ(t.activity.nocFlitHops, e.activity.nocFlitHops);
        EXPECT_EQ(t.activity.dramAccesses,
                  e.activity.dramAccesses);
        ASSERT_EQ(t.segments.size(), e.segments.size());
        for (size_t i = 0; i < t.segments.size(); ++i) {
            EXPECT_EQ(t.segments[i].start, e.segments[i].start);
            EXPECT_EQ(t.segments[i].end, e.segments[i].end);
        }
        // Anchor: both match the functional reference.
        auto ref = referenceRun(m.net, m.weights, m.input);
        EXPECT_EQ(e.output().data, ref.final().data);
    }
}

namespace
{

ServingConfig
servingConfig(EngineKind engine, unsigned threads,
              unsigned sim_cache)
{
    ServingConfig cfg;
    cfg.seed = 11;
    cfg.offeredRequests = 18;
    cfg.meanInterarrival = 80'000;
    cfg.system.engine = engine;
    cfg.system.noc.engine = engine;
    cfg.system.dram.engine = engine;
    cfg.system.numThreads = threads;
    cfg.system.simCacheEntries = sim_cache;
    return cfg;
}

/** One serving run; returns (result, stats-JSON registry dump). */
std::pair<ServingResult, std::string>
runServing(const Workload &w, ServingConfig cfg,
           TimingResultCache *cache = nullptr)
{
    SimContext ctx;
    auto sim = w.simulator(std::move(cfg));
    sim->setTimingCache(cache);
    sim->attachTo(ctx);
    ServingResult r = sim->run();
    return {std::move(r), ctx.statsToJson().dump()};
}

} // namespace

TEST(EngineDifferential, ServingIdenticalAcrossThreadsAndCache)
{
    Workload w;
    auto [ref, ref_json] =
        runServing(w, servingConfig(EngineKind::Event, 1, 0));

    for (unsigned threads : {1u, 8u}) {
        for (unsigned entries : {0u, 64u}) {
            SCOPED_TRACE("threads " + std::to_string(threads)
                         + " cache " + std::to_string(entries));
            TimingResultCache cache(entries);
            TimingResultCache *cp = entries ? &cache : nullptr;
            auto [t, tj] = runServing(
                w, servingConfig(EngineKind::Ticked, threads,
                                 entries), cp);
            auto [e, ej] = runServing(
                w, servingConfig(EngineKind::Event, threads,
                                 entries), cp);
            expectIdenticalResults(t, ref, "ticked vs reference");
            expectIdenticalResults(e, ref, "event vs reference");
            // With entries > 0 the event run replays entries the
            // ticked run wrote (the key pins the engine knob), and
            // the serving registry dump still matches byte for
            // byte — simulated results are cache-oblivious by the
            // PR 6 contract.
            EXPECT_EQ(tj, ej);
        }
    }
}

TEST(EngineDifferential, ServingCacheWarmedByOtherEngineReplays)
{
    // A cache warmed entirely by a ticked run must hit (not fork)
    // under the event engine: the timing key pins the engine knob.
    Workload w;
    TimingResultCache cache(64);
    auto [t, tj] = runServing(
        w, servingConfig(EngineKind::Ticked, 1, 64), &cache);
    uint64_t insertions = cache.insertions();
    ASSERT_GT(insertions, 0u);
    auto [e, ej] = runServing(
        w, servingConfig(EngineKind::Event, 1, 64), &cache);
    EXPECT_EQ(cache.insertions(), insertions)
        << "event run forked new cache entries";
    expectIdenticalResults(t, e, "ticked-warmed vs event-replayed");
}

TEST(EngineDifferential, ClusterIdenticalAcrossEngines)
{
    // Several shards share one profiler: the engines must agree on
    // every profile the dispatcher's placements ask for.
    Workload w;
    for (unsigned chips : {3u, 4u}) {
        SCOPED_TRACE("chips " + std::to_string(chips));
        ServingConfig tc = servingConfig(EngineKind::Ticked, 1, 0);
        tc.chips = chips;
        ServingConfig ec = servingConfig(EngineKind::Event, 1, 0);
        ec.chips = chips;

        SimContext tctx, ectx;
        auto tcl = w.cluster(std::move(tc));
        auto ecl = w.cluster(std::move(ec));
        tcl->attach(tctx);
        ecl->attach(ectx);
        ClusterResult t = tcl->run();
        ClusterResult e = ecl->run();

        expectIdenticalResults(t.aggregate, e.aggregate,
                               "aggregate");
        ASSERT_EQ(t.shards.size(), e.shards.size());
        for (size_t i = 0; i < t.shards.size(); ++i) {
            std::string label = "shard " + std::to_string(i);
            expectIdenticalResults(t.shards[i], e.shards[i],
                                   label.c_str());
        }
        EXPECT_EQ(tctx.statsToJson().dump(),
                  ectx.statsToJson().dump());
    }
}

TEST(EngineDifferential, HostSecondsOptInOnly)
{
    Workload w;
    SimContext ctx;
    auto sim = w.simulator(servingConfig(EngineKind::Event, 1, 0));
    sim->attachTo(ctx);
    sim->run();

    // Default dump: no hostSeconds anywhere (the differential
    // suites byte-compare these dumps; wall-clock would break
    // them).
    std::string plain = ctx.statsToJson().dump();
    EXPECT_EQ(plain.find("hostSeconds"), std::string::npos);

    // Opted in: present, and the serving component charged its
    // run() wall time.
    ctx.enableHostTimers(true);
    std::string timed = ctx.statsToJson().dump();
    EXPECT_NE(timed.find("hostSeconds"), std::string::npos);
    EXPECT_GT(sim->hostSeconds(), 0.0);

    // And it is a pure add-on: disabling restores the exact
    // previous bytes.
    ctx.enableHostTimers(false);
    EXPECT_EQ(ctx.statsToJson().dump(), plain);
}
