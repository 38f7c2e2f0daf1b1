/**
 * @file
 * Multi-DNN parallel inference — the paper's title scenario and
 * §8 outlook: the MIMD array is partitioned into disjoint core
 * regions, each running an independent model concurrently (e.g.
 * the perception + decision networks of an autonomous-driving
 * stack). Per-model latency and aggregate throughput are compared
 * against time-multiplexing the whole array.
 *
 * Build & run:  ./build/examples/multi_dnn_parallel
 * Flags: the common set (common/cli.hh), e.g. --config=FILE,
 * --stats-json=FILE. "Parallel" is the simulated array's: the
 * regions run concurrently on the chip, and the host simulates
 * them one after another on one thread.
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "nn/reference.hh"
#include "runtime/host.hh"
#include "runtime/system.hh"

using namespace maicc;

namespace
{

SystemConfig g_scfg; ///< effective config (common/cli.hh)

struct Model
{
    const char *role;
    Network net;
    std::vector<Weights4> weights;
    Tensor3 input;
};

double
runOn(Model &m, unsigned budget, RunResult *out = nullptr)
{
    MaiccSystem sys(m.net, m.weights, g_scfg);
    MappingPlan plan =
        planMapping(m.net, Strategy::Heuristic, budget);
    RunResult r = sys.run(plan, m.input);
    // Verify outputs against the reference executor.
    auto ref = referenceRun(m.net, m.weights, m.input);
    maicc_assert(r.output().data == ref.final().data);
    if (out)
        *out = r;
    return r.latencyMs();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Options opt("multi_dnn_parallel", argc, argv);
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;
    g_scfg = opt.config.system;

    // Two perception-stack CNNs of different shapes. (A full
    // ResNet18 cannot spatially share the array: its stage-4
    // layers need at least 208 of the 210 cores at 8-bit --
    // see mapping/allocation -- so it owns the array alone and
    // smaller models are the natural co-tenants.)
    Model detector{"camera CNN (32x32)", buildSmallCnn(32, 32, 64),
                   {}, {}};
    detector.weights = randomWeights(detector.net, 1);
    detector.input = Tensor3(32, 32, 64);
    Rng rng(2);
    detector.input.randomize(rng);

    Model policy{"radar CNN (16x16)", buildSmallCnn(16, 16, 64),
                 {}, {}};
    policy.weights = randomWeights(policy.net, 3);
    policy.input = Tensor3(16, 16, 64);
    policy.input.randomize(rng);

    std::printf("== Multi-DNN parallel inference on one 210-core "
                "MAICC array ==\n\n");

    // Spatial partition: camera CNN gets 140 cores, radar 70.
    // Each region has its own control flow (MIMD); DRAM bandwidth
    // contention between regions is not modelled (the two models'
    // working sets stripe over disjoint channels).
    double lat_a = runOn(detector, 140);
    double lat_b = runOn(policy, 70);

    // Time-multiplexed alternative: each model alternately owns
    // all 210 cores.
    double full_a = runOn(detector, 210);
    double full_b = runOn(policy, 210);

    TextTable t({"Model", "Cores", "Latency (ms)",
                 "Throughput (samples/s)"});
    t.addRow({detector.role, "140", TextTable::num(lat_a, 3),
              TextTable::num(1e3 / lat_a, 1)});
    t.addRow({policy.role, "70", TextTable::num(lat_b, 3),
              TextTable::num(1e3 / lat_b, 1)});
    t.print(std::cout);

    double parallel_agg = 1e3 / lat_a + 1e3 / lat_b;
    double tmux_round = full_a + full_b;
    double tmux_agg = 2.0 * 1e3 / tmux_round;

    std::printf("\nSpatial partition: both models run "
                "concurrently; aggregate %.1f inferences/s\n",
                parallel_agg);
    std::printf("Time multiplexing the full array: %.3f ms per "
                "round-robin pair, aggregate %.1f inferences/s\n",
                tmux_round, tmux_agg);

    // The host CPU's automatic partitioner (paper §3.1 / §8):
    // admit both models, let the host size the regions.
    HostScheduler host(210, g_scfg);
    host.addTask({"camera", &detector.net, &detector.weights,
                  &detector.input, 3.0}); // camera is hotter
    host.addTask({"radar", &policy.net, &policy.weights,
                  &policy.input, 1.0});
    HostScheduleResult hs = host.schedule();
    std::printf("\nHost-scheduled partition (demand-weighted):\n");
    for (const auto &ra : hs.regions) {
        std::printf("  task %zu: %u cores, %.3f ms, %.1f /s\n",
                    ra.taskIdx, ra.cores, ra.latencyMs,
                    ra.throughput);
    }
    std::printf("  aggregate %.1f inferences/s using %u cores\n",
                hs.aggregateThroughput, hs.coresUsed());
    std::printf("\nBoth models verified bit-exactly against the "
                "reference executor.\n");
    std::printf("The MIMD organization lets each region keep its "
                "own control flow, so small models are not "
                "serialized behind large ones (paper §8).\n");
    return 0;
}
