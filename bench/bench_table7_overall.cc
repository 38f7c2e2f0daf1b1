/**
 * @file
 * Reproduces Table 7: overall performance of MAICC vs CPU (Intel
 * i9-13900K) and GPU (RTX 4090) on ResNet18, plus the §6.3
 * GFLOPS/W comparison against Neural Cache. Paper reference:
 * MAICC 5.13 ms, 194.9 samples/s, 24.67 W, 7.90 samples/s/W;
 * 4.3x throughput vs CPU, 31.6x / 1.8x efficiency vs CPU / GPU.
 * Also prints the host wall clock of the one simulation.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "baseline/platforms.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "energy/energy.hh"
#include "runtime/system.hh"

using namespace maicc;

int
main(int argc, char **argv)
{
    cli::Options opt("bench_table7_overall", argc, argv);
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;

    Network net = buildResNet18();
    auto weights = randomWeights(net, 7);
    Tensor3 input(56, 56, 64);
    Rng rng(8);
    input.randomize(rng);

    // MAICC: heuristic mapping on the 210-core array.
    MappingPlan plan = planMapping(
        net, Strategy::Heuristic, opt.config.system.coreBudget);
    MaiccSystem sys(net, weights, opt.config.system);
    auto t0 = std::chrono::steady_clock::now();
    RunResult r = sys.run(plan, input);
    auto t1 = std::chrono::steady_clock::now();
    double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    SimContext ctx;
    sys.attachTo(ctx);
    bool stats_ok = opt.writeStats(ctx);
    EnergyBreakdown e = computeEnergy(r.activity);
    double maicc_ms = r.latencyMs();
    double maicc_tput = 1e3 / maicc_ms;
    double maicc_w = e.averagePowerW(r.totalCycles);
    double maicc_tpw = maicc_tput / maicc_w;

    PlatformResult cpu = evalPlatform(i9_13900k(), net);
    PlatformResult gpu = evalPlatform(rtx4090(), net);

    std::printf("== Table 7: Overall Performance on ResNet18 "
                "==\n\n");
    TextTable t({"", "CPU", "GPU", "MAICC"});
    t.addRow({"Latency (ms)", TextTable::num(cpu.latencyMs, 2),
              TextTable::num(gpu.latencyMs, 2),
              TextTable::num(maicc_ms, 2)});
    t.addRow({"Throughput (samples/s)",
              TextTable::num(cpu.throughput, 1),
              TextTable::num(gpu.throughput, 1),
              TextTable::num(maicc_tput, 1)});
    t.addRow({"Average Power (W)", TextTable::num(cpu.powerW, 1),
              TextTable::num(gpu.powerW, 1),
              TextTable::num(maicc_w, 2)});
    t.addRow({"Throughput per Watt",
              TextTable::num(cpu.throughputPerWatt, 2),
              TextTable::num(gpu.throughputPerWatt, 2),
              TextTable::num(maicc_tpw, 2)});
    t.print(std::cout);

    std::printf("\nMulti-sample pipelined throughput (segments "
                "re-admit the next sample as they free): %.1f "
                "samples/s\n",
                r.pipelinedThroughput());
    std::printf("Speedup over CPU: %.1fx (paper 4.3x)\n",
                maicc_tput / cpu.throughput);
    std::printf("Efficiency vs CPU: %.1fx (paper 31.6x); vs GPU: "
                "%.1fx (paper 1.8x)\n",
                maicc_tpw / cpu.throughputPerWatt,
                maicc_tpw / gpu.throughputPerWatt);

    // §6.3: computational efficiency excluding DRAM.
    double flops = 2.0 * double(net.totalMacs());
    double no_dram_w =
        (e.total() - e.dram) * 1e-3 / (r.totalCycles / 1e9);
    double gflops_per_w = flops / (maicc_ms * 1e-3) / 1e9
        / no_dram_w;
    std::printf("\nComputational efficiency excluding DRAM: "
                "%.1f GFLOPS/W (paper: MAICC 50.03 vs Neural "
                "Cache 22.90, 2.2x)\n",
                gflops_per_w);

    // §6.3 scale-out projection: equal on-chip memory with the
    // GPU (88 MB vs MAICC's ~6 MB) and linear scaling.
    double mem_ratio = 88.0 / 6.0;
    double projected = maicc_tput * mem_ratio;
    std::printf("\nScale-out projection (§6.3): with GPU-equal "
                "on-chip memory (%.0fx cores, linear scaling) "
                "MAICC reaches %.0f samples/s = %.1fx the GPU "
                "(paper: 2.9x)\n",
                mem_ratio, projected, projected / gpu.throughput);

    std::printf("\nSimulator wall clock (host): %.0f ms\n",
                wall_ms);

    std::printf("\nCPU/GPU rows are calibrated roofline models "
                "anchored to the paper's measurements (see "
                "DESIGN.md substitutions); the MAICC column is "
                "simulated.\n");

    bool ok = stats_ok && maicc_tput > cpu.throughput
        && maicc_tpw > cpu.throughputPerWatt
        && maicc_tpw > gpu.throughputPerWatt
        && gpu.throughput > maicc_tput;
    std::printf("Shape check (MAICC beats CPU on throughput, "
                "beats both on efficiency, GPU fastest): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
