/**
 * @file
 * Ticked-vs-event engine wall-clock comparison (DESIGN.md §15).
 * The two engines are byte-identical in *results* by contract —
 * this bench measures what the event kernel buys in *host time*,
 * and re-checks the identity on every point it times:
 *
 *  - **NoC load sweep**: the same seeded random traffic driven
 *    through `MeshNoc::drain()` on both engines, from the sparse
 *    low-occupancy case (1 packet per wave — the legacy loop
 *    still walks all 256 routers every cycle, the event engine
 *    walks the one active router and jumps the clock across the
 *    router-latency gaps) up to a saturated mesh where both
 *    engines do real work every cycle;
 *  - **DRAM drain sweep**: per-cycle polling (tick + collect on
 *    every channel every cycle) vs the event-kernel wake-up chain
 *    `ManyCoreDram::drainVia()`, completion for completion;
 *  - **serving run**: the two-model Poisson mix end to end on
 *    both engines. The serving loop itself is one event loop
 *    whatever the engine; only the MaiccSystem runs behind its
 *    service profiles change, so parity — not a big win — is the
 *    expected and reported outcome here; the speedup claim lives
 *    in the sparse NoC and DRAM rows.
 *
 * Any result divergence between the engines fails the run with a
 * nonzero exit (it would be a DESIGN.md §15 contract violation).
 *
 * Flags: the common set (common/cli.hh) plus `--json=FILE` to
 * write the measured table as a JSON document; the checked-in
 * `BENCH_engine.json` at the repo root is one recorded run (see
 * EXPERIMENTS.md "Engine wall clock" — absolute times depend on
 * the host, the speedup shape is what is pinned).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/sim_component.hh"
#include "common/table.hh"
#include "dram/dram.hh"
#include "engine/event_queue.hh"
#include "noc/noc.hh"
#include "runtime/serving.hh"

using namespace maicc;

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Identity signature + wall seconds of one engine's run. */
struct Timed
{
    std::string signature;
    double secs = 0;
};

bool
reportPoint(TextTable &table, Json &rows, const std::string &point,
            const Timed &ticked, const Timed &event)
{
    bool same = ticked.signature == event.signature;
    double speedup =
        event.secs > 0 ? ticked.secs / event.secs : 0.0;
    table.addRow({point, TextTable::num(ticked.secs * 1e3, 2),
                  TextTable::num(event.secs * 1e3, 2),
                  TextTable::num(speedup, 2),
                  same ? "yes" : "NO"});
    Json row = Json::object();
    row.set("point", point);
    row.set("tickedMs", ticked.secs * 1e3);
    row.set("eventMs", event.secs * 1e3);
    row.set("speedup", speedup);
    row.set("identical", same);
    rows.push(std::move(row));
    if (!same)
        std::fprintf(stderr,
                     "bench_engine: ENGINE MISMATCH at %s\n",
                     point.c_str());
    return same;
}

// --- NoC ---------------------------------------------------------

Timed
runNoc(EngineKind engine, uint64_t seed, unsigned packets,
       unsigned waves)
{
    NocConfig cfg;
    cfg.engine = engine;
    MeshNoc noc(cfg);
    unsigned nodes = unsigned(cfg.width * cfg.height);
    auto t0 = std::chrono::steady_clock::now();
    Rng rng(seed);
    for (unsigned w = 0; w < waves; ++w) {
        for (unsigned i = 0; i < packets; ++i) {
            Packet p;
            p.src = NodeId(rng.below(nodes));
            p.dst = NodeId(rng.below(nodes));
            if (p.dst == p.src)
                p.dst = (p.src + 1) % NodeId(nodes);
            p.sizeFlits = unsigned(1 + rng.below(9));
            noc.inject(p);
        }
        noc.drain();
    }
    Timed out;
    out.secs = seconds(t0);
    SimContext ctx;
    noc.attachTo(ctx, "noc");
    out.signature = ctx.statsToJson().dump();
    return out;
}

// --- DRAM --------------------------------------------------------

void
enqueueSeeded(ManyCoreDram &dram, uint64_t seed, unsigned n)
{
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        Addr a = Addr(rng.below(1u << 26)) * 64;
        dram.enqueue(a, rng.below(2) != 0, i, 0);
    }
}

std::string
completionSignature(const std::vector<DramCompletion> &done,
                    const ManyCoreDram &dram)
{
    std::string s;
    for (const DramCompletion &c : done) {
        s += std::to_string(c.tag) + ':'
            + std::to_string(c.finishedAt) + ':'
            + char('0' + c.write) + ';';
    }
    DramStats st = dram.totalStats();
    s += "|" + std::to_string(st.reads) + ','
        + std::to_string(st.writes) + ','
        + std::to_string(st.activates) + ','
        + std::to_string(st.rowHits) + ','
        + std::to_string(st.busyCycles);
    return s;
}

Timed
runDram(EngineKind engine, uint64_t seed, unsigned requests,
        unsigned rounds)
{
    DramConfig cfg;
    cfg.engine = engine;
    ManyCoreDram dram(8, cfg);
    Timed out;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < rounds; ++r) {
        dram.reset();
        enqueueSeeded(dram, seed, requests);
        std::vector<DramCompletion> done;
        if (engine == EngineKind::Event) {
            EventQueue eq;
            dram.drainVia(eq, &done);
        } else {
            Cycles c = 0;
            while (!dram.idle()) {
                ++c;
                dram.tick(c);
                for (unsigned ch = 0; ch < dram.numChannels();
                     ++ch)
                    for (auto &d : dram.channel(ch).collect(c))
                        done.push_back(d);
            }
        }
        if (r == 0)
            out.signature = completionSignature(done, dram);
    }
    out.secs = seconds(t0);
    return out;
}

// --- Serving -----------------------------------------------------

Timed
runServing(EngineKind engine, ServingConfig cfg,
           const Network &camera_net,
           const std::vector<Weights4> &camera_w,
           const Tensor3 &camera_in, const Network &radar_net,
           const std::vector<Weights4> &radar_w,
           const Tensor3 &radar_in)
{
    cfg.system.engine = engine;
    cfg.system.noc.engine = engine;
    cfg.system.dram.engine = engine;
    SimContext ctx;
    ServingSimulator sim(cfg);
    ServedModel cam;
    cam.name = "camera";
    cam.net = &camera_net;
    cam.weights = &camera_w;
    cam.input = &camera_in;
    cam.mixWeight = 3.0;
    sim.addModel(cam);
    ServedModel rad;
    rad.name = "radar";
    rad.net = &radar_net;
    rad.weights = &radar_w;
    rad.input = &radar_in;
    sim.addModel(rad);
    sim.attachTo(ctx);
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    Timed out;
    out.secs = seconds(t0);
    out.signature = ctx.statsToJson().dump();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Options opt("bench_engine", argc, argv);
    std::string json_path = opt.flag("json");
    uint64_t seed = 0;
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;
    seed = opt.seed(97);

    bool all_same = true;
    Json doc = Json::object();

    // NoC: constant total traffic, occupancy swept through the
    // packets-per-wave knob — sparse waves are where skip-ahead
    // and the active-router set pay.
    std::cout << "NoC load sweep (16x16 mesh, seeded random "
                 "traffic, same total packet count)\n";
    TextTable noc_t(
        {"packets/wave", "ticked (ms)", "event (ms)", "speedup",
         "identical"});
    Json noc_rows = Json::array();
    const unsigned total = 2048;
    for (unsigned ppw : {1u, 8u, 64u, 256u}) {
        unsigned waves = total / ppw;
        std::string point = std::to_string(ppw);
        Timed t = runNoc(EngineKind::Ticked, seed, ppw, waves);
        Timed e = runNoc(EngineKind::Event, seed, ppw, waves);
        all_same &= reportPoint(noc_t, noc_rows, point, t, e);
    }
    noc_t.print(std::cout);
    std::cout << '\n';
    doc.set("noc", std::move(noc_rows));

    // DRAM: drain cost vs queue depth. Low request counts leave
    // the channels idle most polled cycles.
    std::cout << "DRAM drain sweep (8 channels, seeded random "
                 "addresses)\n";
    TextTable dram_t({"requests", "ticked (ms)", "event (ms)",
                      "speedup", "identical"});
    Json dram_rows = Json::array();
    for (unsigned reqs : {8u, 64u, 512u}) {
        unsigned rounds = 4096 / reqs;
        Timed t = runDram(EngineKind::Ticked, seed, reqs, rounds);
        Timed e = runDram(EngineKind::Event, seed, reqs, rounds);
        all_same &= reportPoint(dram_t, dram_rows,
                                std::to_string(reqs), t, e);
    }
    dram_t.print(std::cout);
    std::cout << '\n';
    doc.set("dram", std::move(dram_rows));

    // Serving: end-to-end on both engines. Parity expected (one
    // serving loop; only the profiles' system runs differ);
    // reported so a regression in either direction is visible.
    std::cout << "Serving run (two-model Poisson mix)\n";
    ServingConfig scfg = opt.config.serving;
    scfg.seed = seed;
    if (!opt.hasConfigFile()) {
        scfg.offeredRequests = 24;
        scfg.meanInterarrival = 80'000;
    }
    Network camera_net = buildSmallCnn(16, 16, 64);
    Network radar_net = buildSmallCnn(8, 8, 64);
    std::vector<Weights4> camera_w = randomWeights(camera_net, 21);
    std::vector<Weights4> radar_w = randomWeights(radar_net, 23);
    Tensor3 camera_in(16, 16, 64), radar_in(8, 8, 64);
    Rng cam_rng(22), rad_rng(24);
    camera_in.randomize(cam_rng);
    radar_in.randomize(rad_rng);

    TextTable serve_t({"point", "ticked (ms)", "event (ms)",
                       "speedup", "identical"});
    Json serve_rows = Json::array();
    Timed st = runServing(EngineKind::Ticked, scfg, camera_net,
                          camera_w, camera_in, radar_net, radar_w,
                          radar_in);
    Timed se = runServing(EngineKind::Event, scfg, camera_net,
                          camera_w, camera_in, radar_net, radar_w,
                          radar_in);
    all_same &= reportPoint(serve_t, serve_rows, "poisson-mix",
                            st, se);
    serve_t.print(std::cout);
    std::cout << '\n';
    doc.set("serving", std::move(serve_rows));

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << doc.dump();
        if (!out) {
            std::fprintf(stderr,
                         "bench_engine: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
    }

    if (!all_same) {
        std::fprintf(stderr,
                     "bench_engine: engines diverged — "
                     "DESIGN.md §15 contract violation\n");
        return 1;
    }
    return 0;
}
