/**
 * @file
 * Golden-replay suite for the event engine (DESIGN.md §15): every
 * case replays a seeded run and compares it, byte for byte —
 * cycle counts, delivery orders, every stat counter, and the full
 * --stats-json registry dump — against a checked-in record under
 * tests/engine/golden/. The records were written while a legacy
 * advance-every-cycle twin of each model still existed, by a run
 * that asserted both engines agreed, so they pin the
 * cycle-by-cycle semantics the skip-ahead code must keep. Covers:
 *
 *  - MeshNoc under seeded random traffic (dense and sparse), a
 *    single flit crossing the mesh at zero load, 5x3 and 20x13
 *    meshes, a zero-cycle router pipeline and one-flit queues;
 *  - CoreTimingModel over seeded random RV32+CMem programs (the
 *    write-back port booking skips fully booked cycles), also at
 *    two write-back ports and with no CMem issue queue;
 *  - ManyCoreDram: per-cycle polling drain vs the event-kernel
 *    drainVia(), completion for completion, plus the record; deep
 *    per-channel queues with accesses enqueued mid-run; two drains
 *    on one event queue;
 *  - MaiccSystem end-to-end runs (streaming segment loop), also
 *    checked layer by layer against the reference executor;
 *  - serving and cluster runs with the timing-result cache off,
 *    cold, and warmed by an earlier run
 *    (a warmed cache must replay, not fork new entries);
 *  - hostSeconds publication: absent from default stats dumps
 *    (they are byte-compared against the records), present only
 *    under SimContext::enableHostTimers.
 *
 * To regenerate after an *intentional* timing-model change:
 *
 *   MAICC_REGOLD=1 ./tests/test_engine
 *
 * which rewrites the records in the source tree; review the diff
 * like any other code change.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
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

/**
 * The golden record of one case: "key value" lines, one per
 * checked quantity (one per line of a multi-line value),
 * compared line for line against
 * tests/engine/golden/<case>.txt — or written there when
 * MAICC_REGOLD is set. Doubles print with 17 significant digits,
 * which round-trips every value, so a text match is a bitwise
 * match.
 */
class Golden
{
  public:
    explicit Golden(std::string case_name)
        : name(std::move(case_name))
    {
    }

    template <typename T>
    void
    put(const std::string &key, const T &v)
    {
        std::ostringstream os;
        if constexpr (std::is_floating_point_v<T>)
            os.precision(17);
        os << v;
        // A multi-line value (a registry dump) keeps its key on
        // every line, so a mismatch report names what differs.
        std::istringstream value(os.str());
        for (std::string l; std::getline(value, l);)
            lines.push_back(key + " " + l);
    }

    /** Write (MAICC_REGOLD) or compare the recorded lines. */
    void
    check() const
    {
        std::string path =
            std::string(MAICC_GOLDEN_DIR) + "/" + name + ".txt";
        if (std::getenv("MAICC_REGOLD")) {
            std::ofstream f(path);
            ASSERT_TRUE(f.good()) << "cannot write " << path;
            for (const std::string &l : lines)
                f << l << "\n";
            return;
        }
        std::ifstream f(path);
        ASSERT_TRUE(f.good())
            << "missing golden " << path
            << " — run with MAICC_REGOLD=1 to generate";
        std::vector<std::string> want;
        for (std::string l; std::getline(f, l);)
            want.push_back(l);
        EXPECT_EQ(lines.size(), want.size()) << path;
        unsigned reported = 0;
        for (size_t i = 0; i < std::min(lines.size(), want.size())
             && reported < 20; ++i) {
            if (lines[i] != want[i]) {
                ++reported;
                ADD_FAILURE() << path << ":" << i + 1
                              << "\n  golden: " << want[i]
                              << "\n  actual: " << lines[i];
            }
        }
    }

  private:
    std::string name;
    std::vector<std::string> lines;
};

/** Inject seeded traffic into @p noc and drain it; returns the
 * registry dump. */
std::string
runNocTraffic(MeshNoc &noc, uint64_t seed, unsigned packets,
              unsigned waves)
{
    const unsigned nodes =
        unsigned(noc.config().width * noc.config().height);
    Rng rng(seed);
    for (unsigned w = 0; w < waves; ++w) {
        for (unsigned i = 0; i < packets; ++i) {
            Packet p;
            p.src = NodeId(rng.below(nodes));
            p.dst = NodeId(rng.below(nodes));
            if (p.dst == p.src)
                p.dst = (p.src + 1) % nodes;
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

/** Record one traffic run on @p cfg under @p prefix into @p g. */
void
putNocRun(Golden &g, const std::string &prefix, const NocConfig &cfg,
          uint64_t seed, unsigned packets, unsigned waves)
{
    MeshNoc noc(cfg);
    std::string json = runNocTraffic(noc, seed, packets, waves);
    const NodeId nodes = cfg.width * cfg.height;
    // The same deliveries in the same per-node order...
    for (NodeId n = 0; n < nodes; ++n) {
        std::ostringstream tags;
        tags << noc.delivered(n).size() << ":";
        for (const Packet &p : noc.delivered(n))
            tags << " " << p.tag;
        g.put(prefix + "node" + std::to_string(n), tags.str());
    }
    g.put(prefix + "packetsDelivered", noc.packetsDelivered());
    // ...the same latency arithmetic, bit for bit...
    g.put(prefix + "avgPacketLatency", noc.avgPacketLatency());
    // ...and the same registry dump (includes the cycle counter,
    // so a skip-ahead jump landing on a wrong cycle fails here).
    g.put(prefix + "registry", json);
}

void
expectNocGolden(const char *case_name, uint64_t seed,
                unsigned packets, unsigned waves)
{
    SCOPED_TRACE("seed " + std::to_string(seed) + " packets "
                 + std::to_string(packets));
    Golden g(case_name);
    putNocRun(g, "", NocConfig{}, seed, packets, waves);
    g.check();
}

} // namespace

TEST(EngineDifferential, NocDenseRandomTraffic)
{
    expectNocGolden("noc_dense", 101, 400, 3);
}

TEST(EngineDifferential, NocSparseLowOccupancyTraffic)
{
    // A handful of long-haul packets. Each of these happens to keep
    // a flit moving every cycle, so drain() never jumps here; the
    // clock jumps are pinned by the dense case and by
    // NocSingleFlitAcrossTheMesh (a jump landing one cycle late
    // fails both).
    expectNocGolden("noc_sparse", 77, 3, 4);
}

TEST(EngineDifferential, NocSingleFlitAcrossTheMesh)
{
    MeshNoc noc;
    Packet p;
    p.src = noc.nodeId(0, 0);
    p.dst = noc.nodeId(15, 15);
    p.sizeFlits = 1;
    noc.inject(p);
    noc.drain();
    EXPECT_DOUBLE_EQ(noc.avgPacketLatency(),
                     noc.zeroLoadLatency(30, 1));

    Golden g("noc_single_flit");
    g.put("avgPacketLatency", noc.avgPacketLatency());
    g.check();
}

TEST(EngineDifferential, NocOddMeshShapes)
{
    // 15 and 260 routers: neither is a multiple of 64 and the
    // second needs more than four 64-bit words of router ids.
    Golden g("noc_mesh_shapes");
    for (auto [w, h] : {std::pair{5, 3}, std::pair{20, 13}}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        NocConfig cfg;
        cfg.width = w;
        cfg.height = h;
        putNocRun(g, std::to_string(w) + "x" + std::to_string(h)
                         + ".",
                  cfg, 202, unsigned(w * h) * 3 / 2, 3);
    }
    g.check();
}

TEST(EngineDifferential, NocRouterCorners)
{
    // A zero-cycle router pipeline (every queued front is eligible
    // on the next cycle) and single-flit input queues (every
    // credit check is against a full or empty queue).
    Golden g("noc_router_corners");
    NocConfig fast;
    fast.routerLatency = 0;
    putNocRun(g, "latency0.", fast, 303, 300, 2);
    NocConfig shallow;
    shallow.queueDepth = 1;
    putNocRun(g, "depth1.", shallow, 304, 300, 2);
    g.check();
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
runCore(const rv32::Program &prog, const CoreConfig &cfg = {})
{
    NodeState ns(prog);
    CoreTimingModel model(prog, ns.nodeMem, &ns.cmem, &ns.rows, cfg);
    return model.run();
}

void
putCoreStats(Golden &g, const std::string &k, const CoreRunStats &e)
{
    g.put(k + "cycles", e.cycles);
    g.put(k + "insts", e.insts);
    g.put(k + "cmemInsts", e.cmemInsts);
    g.put(k + "cmemBusyCycles", e.cmemBusyCycles);
    g.put(k + "stallRaw", e.stallRaw);
    g.put(k + "stallWaw", e.stallWaw);
    g.put(k + "stallQueueFull", e.stallQueueFull);
    g.put(k + "stallStructural", e.stallStructural);
    g.put(k + "branchPenaltyCycles", e.branchPenaltyCycles);
    g.put(k + "localMemOps", e.localMemOps);
    g.put(k + "remoteOps", e.remoteOps);
}

} // namespace

TEST(EngineDifferential, CoreTimingRandomPrograms)
{
    Golden g("core_random_programs");
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        rv32::Program prog = testgen::randomProgram(rng);
        putCoreStats(g, "seed" + std::to_string(seed) + ".",
                     runCore(prog));
    }
    g.check();
}

TEST(EngineDifferential, CoreTimingRandomProgramVariants)
{
    // Two write-back ports (a booked cycle holds two results) and
    // no CMem issue queue (ID blocks while the CMem is busy), on
    // programs long enough to prune old write-back bookings.
    Golden g("core_random_program_variants");
    testgen::RandProgramOptions opt;
    opt.units = 400;
    CoreConfig two_ports;
    two_ports.wbPorts = 2;
    CoreConfig no_queue;
    no_queue.cmemQueueSize = 0;
    for (uint64_t seed = 21; seed <= 28; ++seed) {
        Rng rng(seed);
        rv32::Program prog = testgen::randomProgram(rng, opt);
        std::string k = "seed" + std::to_string(seed) + ".";
        putCoreStats(g, k + "default.", runCore(prog));
        putCoreStats(g, k + "wbPorts2.", runCore(prog, two_ports));
        putCoreStats(g, k + "queue0.", runCore(prog, no_queue));
    }
    g.check();
}

namespace
{

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
    Golden g("dram_drain");
    for (uint64_t seed : {5u, 6u, 7u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));

        // Polling: tick every cycle, collect in channel order.
        ManyCoreDram polled(8);
        enqueueSeeded(polled, seed, 96);
        std::vector<DramCompletion> pdone;
        Cycles c = 0;
        while (!polled.idle()) {
            ++c;
            ASSERT_LT(c, Cycles(1'000'000)) << "polling runaway";
            polled.tick(c);
            for (unsigned ch = 0; ch < polled.numChannels(); ++ch)
                polled.channel(ch).collect(c, pdone);
        }

        // Event: the wake-up chain drain on the shared kernel.
        ManyCoreDram event(8);
        enqueueSeeded(event, seed, 96);
        std::vector<DramCompletion> edone;
        EventQueue eq;
        Cycles last = event.drainVia(eq, &edone);

        ASSERT_EQ(pdone.size(), edone.size());
        EXPECT_EQ(asTriples(pdone), asTriples(edone));
        EXPECT_EQ(last, pdone.back().finishedAt);
        // Far fewer wake-ups than polled cycles is the point.
        EXPECT_LT(eq.eventsRun(), uint64_t(c));

        DramStats ps = polled.totalStats();
        DramStats es = event.totalStats();
        EXPECT_EQ(ps.reads, es.reads);
        EXPECT_EQ(ps.writes, es.writes);
        EXPECT_EQ(ps.activates, es.activates);
        EXPECT_EQ(ps.rowHits, es.rowHits);
        EXPECT_EQ(ps.busyCycles, es.busyCycles);

        std::string k = "seed" + std::to_string(seed) + ".";
        for (size_t i = 0; i < edone.size(); ++i) {
            const DramCompletion &d = edone[i];
            g.put(k + "done" + std::to_string(i),
                  std::to_string(d.tag) + " "
                      + std::to_string(d.finishedAt) + " "
                      + std::to_string(int(d.write)));
        }
        g.put(k + "last", last);
        g.put(k + "reads", es.reads);
        g.put(k + "writes", es.writes);
        g.put(k + "activates", es.activates);
        g.put(k + "rowHits", es.rowHits);
        g.put(k + "busyCycles", es.busyCycles);
    }
    g.check();
}

namespace
{

/**
 * A seeded address with row locality: three in four fall in a
 * 256 KiB window (16 rows per bank), so FR-FCFS finds row hits deep
 * inside its window instead of always issuing the oldest request.
 */
Addr
localAddr(Rng &rng)
{
    if (rng.below(4) != 0)
        return Addr(rng.below(1u << 12)) * 64;
    return Addr(rng.below(1u << 26)) * 64;
}

void
putCompletions(Golden &g, const std::string &k,
               const std::vector<DramCompletion> &done)
{
    g.put(k + "completions", done.size());
    for (size_t i = 0; i < done.size(); ++i)
        g.put(k + "done" + std::to_string(i),
              std::to_string(done[i].tag) + " "
                  + std::to_string(done[i].finishedAt) + " "
                  + std::to_string(int(done[i].write)));
}

void
putDramStats(Golden &g, const std::string &k, const DramStats &s)
{
    g.put(k + "reads", s.reads);
    g.put(k + "writes", s.writes);
    g.put(k + "activates", s.activates);
    g.put(k + "rowHits", s.rowHits);
    g.put(k + "busyCycles", s.busyCycles);
}

} // namespace

TEST(EngineDifferential, DramDeepQueuesAndLateEnqueues)
{
    // 300 accesses per channel: the 32-entry FR-FCFS window stays
    // full for most of the run, and a tenth of the stream arrives
    // while earlier requests are still being collected.
    constexpr unsigned kChannels = 4;
    constexpr unsigned kUpFront = 1080;
    constexpr unsigned kTotal = 1200;
    Golden g("dram_deep_queues");
    for (uint64_t seed : {8u, 9u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::string k = "seed" + std::to_string(seed) + ".";

        ManyCoreDram polled(kChannels);
        Rng rng(seed);
        unsigned tag = 0;
        for (; tag < kUpFront; ++tag)
            polled.enqueue(localAddr(rng), rng.below(2) != 0, tag, 0);
        std::vector<DramCompletion> pdone;
        Cycles c = 0;
        while (!polled.idle() || tag < kTotal) {
            ++c;
            ASSERT_LT(c, Cycles(10'000'000)) << "polling runaway";
            if (c % 97 == 0) {
                for (unsigned i = 0; i < 12 && tag < kTotal;
                     ++i, ++tag)
                    polled.enqueue(localAddr(rng), rng.below(2) != 0,
                                   tag, c);
            }
            polled.tick(c);
            for (unsigned ch = 0; ch < kChannels; ++ch)
                polled.channel(ch).collect(c, pdone);
        }
        ASSERT_EQ(pdone.size(), size_t(kTotal));
        putCompletions(g, k + "polled.", pdone);
        putDramStats(g, k + "polled.", polled.totalStats());

        // The up-front part alone through the event drain, checked
        // against a polling drain of the same stream.
        ManyCoreDram event(kChannels), again(kChannels);
        Rng erng(seed), arng(seed);
        for (unsigned i = 0; i < kUpFront; ++i) {
            Addr a = localAddr(erng);
            event.enqueue(a, erng.below(2) != 0, i, 0);
            Addr b = localAddr(arng);
            again.enqueue(b, arng.below(2) != 0, i, 0);
        }
        std::vector<DramCompletion> edone, adone;
        EventQueue eq;
        Cycles last = event.drainVia(eq, &edone);
        for (Cycles t = 1; !again.idle(); ++t) {
            again.tick(t);
            for (unsigned ch = 0; ch < kChannels; ++ch)
                again.channel(ch).collect(t, adone);
        }
        EXPECT_EQ(asTriples(edone), asTriples(adone));
        g.put(k + "event.last", last);
        putCompletions(g, k + "event.", edone);
        putDramStats(g, k + "event.", event.totalStats());
    }
    g.check();
}

TEST(EngineDifferential, DramTwoDrainsOnOneQueue)
{
    // Two systems drained one after the other on one kernel: the
    // second drain sees the first one's clock and sequence numbers
    // and must still complete exactly as on a fresh queue.
    Golden g("dram_two_drains");
    EventQueue shared;
    for (uint64_t seed : {10u, 11u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ManyCoreDram dram(8), fresh(8);
        enqueueSeeded(dram, seed, 160);
        enqueueSeeded(fresh, seed, 160);
        std::vector<DramCompletion> done, fdone;
        uint64_t before = shared.eventsRun();
        Cycles last = dram.drainVia(shared, &done);
        EventQueue own;
        Cycles flast = fresh.drainVia(own, &fdone);
        EXPECT_TRUE(shared.empty());
        EXPECT_EQ(asTriples(done), asTriples(fdone));
        EXPECT_EQ(last, flast);
        EXPECT_EQ(shared.eventsRun() - before, own.eventsRun());

        std::string k = "seed" + std::to_string(seed) + ".";
        g.put(k + "last", last);
        g.put(k + "events", own.eventsRun());
        putCompletions(g, k, done);
    }
    g.check();
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
runSystem(const SystemFixture &m)
{
    MaiccSystem sys(m.net, m.weights);
    MappingPlan plan = planMapping(m.net, Strategy::Heuristic, 210);
    return sys.run(plan, m.input);
}

} // namespace

TEST(EngineDifferential, SystemRunIdentical)
{
    SystemFixture m(buildSmallCnn(16, 16, 64), 43);
    auto ref = referenceRun(m.net, m.weights, m.input);
    Golden g("system_run");
    RunResult e = runSystem(m);
    // Anchor: every layer matches the functional reference.
    EXPECT_EQ(e.output().data, ref.final().data);
    ASSERT_EQ(e.layerOutputs.size(), ref.outputs.size());
    for (size_t i = 0; i < e.layerOutputs.size(); ++i)
        EXPECT_EQ(e.layerOutputs[i].data, ref.outputs[i].data)
            << "layer " << i;

    g.put("totalCycles", e.totalCycles);
    g.put("nocFlitHops", e.activity.nocFlitHops);
    g.put("dramAccesses", e.activity.dramAccesses);
    g.put("segments", e.segments.size());
    for (size_t i = 0; i < e.segments.size(); ++i) {
        const SegmentRunStats &seg = e.segments[i];
        g.put("seg" + std::to_string(i),
              std::to_string(seg.start) + " " + std::to_string(seg.end));
        // Each layer's chain timing: the first vector consumed, the
        // last pixel delivered and the middle core's breakdown.
        for (const LayerRunStats &ls : seg.layers) {
            const std::string k = "layer" + std::to_string(ls.layerIdx);
            g.put(k + ".firstInput", ls.firstInput);
            g.put(k + ".lastOutput", ls.lastOutput);
            g.put(k + ".midCore.compute", ls.midCore.compute);
            g.put(k + ".midCore.sendIfmap", ls.midCore.sendIfmap);
            g.put(k + ".midCore.sendOfmap", ls.midCore.sendOfmap);
            g.put(k + ".midCore.waitIfmap", ls.midCore.waitIfmap);
        }
    }
    g.check();
}

namespace
{

ServingConfig
servingConfig(unsigned sim_cache)
{
    ServingConfig cfg;
    cfg.seed = 11;
    cfg.offeredRequests = 18;
    cfg.meanInterarrival = 80'000;
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

/** Every field expectIdenticalResults compares, under @p k. */
void
putServing(Golden &g, const std::string &k, const ServingResult &r)
{
    g.put(k + "offered", r.offered);
    g.put(k + "completed", r.completed);
    g.put(k + "rejected", r.rejected);
    g.put(k + "pending", r.pending);
    g.put(k + "shed", r.shed);
    g.put(k + "timedOut", r.timedOut);
    g.put(k + "retries", r.retries);
    g.put(k + "failovers", r.failovers);
    g.put(k + "faultChipFailStop", r.faultChipFailStop);
    g.put(k + "faultCoreLoss", r.faultCoreLoss);
    g.put(k + "faultDramOutage", r.faultDramOutage);
    g.put(k + "faultNocDegrade", r.faultNocDegrade);
    g.put(k + "endCycle", r.endCycle);
    g.put(k + "minServiceLatency", r.minServiceLatency);
    g.put(k + "sloMet", r.sloMet);
    g.put(k + "sloMissed", r.sloMissed);
    g.put(k + "p50", r.p50);
    g.put(k + "p95", r.p95);
    g.put(k + "p99", r.p99);
    g.put(k + "meanLatency", r.meanLatency);
    g.put(k + "meanQueueing", r.meanQueueing);
    g.put(k + "utilization", r.utilization);
    g.put(k + "requests", r.requests.size());
    for (size_t i = 0; i < r.requests.size(); ++i) {
        const RequestRecord &x = r.requests[i];
        std::ostringstream os;
        os << x.model << " " << x.priorityClass << " " << x.arrival
           << " " << x.start << " " << x.finish << " " << x.cores
           << " " << x.batchSize << " " << x.shard << " "
           << x.rejected << " " << x.completed << " " << x.retries
           << " " << x.shed << " " << x.timedOut;
        g.put(k + "request" + std::to_string(i), os.str());
    }
    g.put(k + "classes", r.classes.size());
    for (size_t i = 0; i < r.classes.size(); ++i) {
        const ClassResult &c = r.classes[i];
        std::string ck = k + "class" + std::to_string(i) + ".";
        g.put(ck + "priorityClass", c.priorityClass);
        g.put(ck + "offered", c.offered);
        g.put(ck + "completed", c.completed);
        g.put(ck + "p50", c.p50);
        g.put(ck + "p95", c.p95);
        g.put(ck + "p99", c.p99);
        g.put(ck + "meanLatency", c.meanLatency);
        g.put(ck + "sloMet", c.sloMet);
        g.put(ck + "sloMissed", c.sloMissed);
    }
    g.put(k + "coreTimeline", r.coreTimeline.size());
    for (size_t i = 0; i < r.coreTimeline.size(); ++i)
        g.put(k + "sample" + std::to_string(i),
              std::to_string(r.coreTimeline[i].cycle) + " "
                  + std::to_string(r.coreTimeline[i].usedCores));
}

} // namespace

TEST(EngineDifferential, ServingIdenticalAcrossCacheStates)
{
    Workload w;
    ServingResult ref = runServing(w, servingConfig(0)).first;
    Golden g("serving");
    putServing(g, "", ref);

    for (unsigned entries : {0u, 64u}) {
        SCOPED_TRACE("cache " + std::to_string(entries));
        TimingResultCache cache(entries);
        TimingResultCache *cp = entries ? &cache : nullptr;
        auto [r, json] = runServing(w, servingConfig(entries), cp);
        expectIdenticalResults(r, ref, "vs reference");
        // The serving registry dump matches the record byte for
        // byte in every cache state — simulated results are
        // cache-oblivious (DESIGN.md §13).
        g.put("cache" + std::to_string(entries) + ".registry", json);
    }
    g.check();
}

TEST(EngineDifferential, ServingCacheWarmedReplays)
{
    // A warmed cache must hit, not fork: a second run over the
    // same cache inserts nothing and reproduces every outcome.
    Workload w;
    TimingResultCache cache(64);
    ServingResult warm =
        runServing(w, servingConfig(64), &cache).first;
    uint64_t insertions = cache.insertions();
    ASSERT_GT(insertions, 0u);
    ServingResult replay =
        runServing(w, servingConfig(64), &cache).first;
    EXPECT_EQ(cache.insertions(), insertions)
        << "replay forked new cache entries";
    expectIdenticalResults(warm, replay, "warmed vs replayed");
}

TEST(EngineDifferential, ClusterMatchesGolden)
{
    // Several shards share one profiler: every profile the
    // dispatcher's placements ask for must match the record.
    Workload w;
    Golden g("cluster");
    for (unsigned chips : {3u, 4u}) {
        SCOPED_TRACE("chips " + std::to_string(chips));
        ServingConfig cfg = servingConfig(0);
        cfg.chips = chips;

        SimContext ctx;
        auto cl = w.cluster(std::move(cfg));
        cl->attach(ctx);
        ClusterResult e = cl->run();

        std::string k = "chips" + std::to_string(chips) + ".";
        putServing(g, k + "aggregate.", e.aggregate);
        g.put(k + "shards", e.shards.size());
        for (size_t i = 0; i < e.shards.size(); ++i)
            putServing(g, k + "shard" + std::to_string(i) + ".",
                       e.shards[i]);
        g.put(k + "registry", ctx.statsToJson().dump());
    }
    g.check();
}

TEST(EngineDifferential, HostSecondsOptInOnly)
{
    Workload w;
    SimContext ctx;
    auto sim = w.simulator(servingConfig(0));
    sim->attachTo(ctx);
    sim->run();

    // Default dump: no hostSeconds anywhere (the golden records
    // byte-compare these dumps; wall-clock would break them).
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
