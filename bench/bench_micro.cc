/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself:
 * useful for tracking the host-side cost of the models when
 * extending the repository (not a paper figure).
 */

#include <benchmark/benchmark.h>

#include "cmem/cmem.hh"
#include "common/cli.hh"
#include "common/random.hh"
#include "core/conv_kernel.hh"
#include "core/timing.hh"
#include "dram/dram.hh"
#include "mem/node_memory.hh"
#include "noc/noc.hh"

using namespace maicc;

namespace
{

void
BM_CMemMac(benchmark::State &state)
{
    unsigned n = static_cast<unsigned>(state.range(0));
    CMem cm;
    Rng rng(1);
    std::vector<int32_t> a(256), b(256);
    int32_t hi = (1 << (n - 1)) - 1;
    for (auto &v : a)
        v = static_cast<int32_t>(rng.range(-hi - 1, hi));
    for (auto &v : b)
        v = static_cast<int32_t>(rng.range(-hi - 1, hi));
    cm.pokeVector(1, 0, n, a);
    cm.pokeVector(1, n, n, b);
    for (auto _ : state)
        benchmark::DoNotOptimize(cm.macc(1, 0, n, n, true));
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CMemMac)->Arg(4)->Arg(8)->Arg(16);

void
BM_PipelineSim(benchmark::State &state)
{
    // Simulated instructions per second of the cycle-level core.
    ConvNodeWorkload w;
    w.H = w.W = 5;
    w.numFilters = 2;
    rv32::Program prog = buildConvNodeProgram(w);
    Rng rng(2);
    std::vector<int8_t> ifmap(size_t(w.H) * w.W * w.C);
    std::vector<int8_t> filters(size_t(w.numFilters) * w.R * w.S
                                * w.C);
    for (auto &v : ifmap)
        v = static_cast<int8_t>(rng.range(-5, 5));
    for (auto &v : filters)
        v = static_cast<int8_t>(rng.range(-5, 5));
    uint64_t insts = 0;
    for (auto _ : state) {
        CMem cmem;
        FlatMemory ext;
        RowStore rows;
        NodeMemory mem(cmem, &ext);
        stageConvNode(w, cmem, rows, ifmap, filters);
        CoreTimingModel m(prog, mem, &cmem, &rows, CoreConfig{});
        insts += m.run().insts;
    }
    state.SetItemsProcessed(insts);
}
BENCHMARK(BM_PipelineSim);

void
BM_NocTick(benchmark::State &state)
{
    MeshNoc noc;
    Rng rng(3);
    for (auto _ : state) {
        if (noc.idle()) {
            state.PauseTiming();
            for (int i = 0; i < 64; ++i) {
                Packet p;
                p.src = static_cast<NodeId>(rng.below(256));
                p.dst = static_cast<NodeId>(rng.below(256));
                p.sizeFlits = 9;
                noc.inject(p);
            }
            state.ResumeTiming();
        }
        noc.tick();
    }
}
BENCHMARK(BM_NocTick);

void
BM_DramChannel(benchmark::State &state)
{
    DramChannel ch;
    Rng rng(4);
    uint64_t tag = 0;
    Cycles now = 0;
    std::vector<DramCompletion> done;
    for (auto _ : state) {
        ch.enqueue(static_cast<Addr>(rng.below(1 << 26)) * 64,
                   false, tag++, now);
        now += 8;
        done.clear();
        ch.collect(now, done);
        benchmark::DoNotOptimize(done.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannel);

} // namespace

// Custom main: strip the common MAICC flags (--config /
// --dump-config / --stats-json, accepted for tooling uniformity)
// before google-benchmark sees argv; its own --benchmark_* flags
// pass through untouched (finish(true)).
int
main(int argc, char **argv)
{
    cli::Options opt("bench_micro", argc, argv);
    if (!opt.finish(/*allow_extra=*/true))
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    SimContext ctx;
    return opt.writeStats(ctx) ? 0 : 1;
}
