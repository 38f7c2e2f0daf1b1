/**
 * @file
 * End-to-end ResNet18 inference on the 210-core MAICC array: plan
 * the heuristic mapping, run the many-core simulation, verify the
 * outputs bit-exactly against the int8 reference executor, and
 * report latency, per-segment timing, energy, and power.
 *
 * Build & run:  ./build/examples/resnet18_inference
 * Flags: the common set (common/cli.hh), e.g. --config=FILE,
 * --stats-json=FILE.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "nn/reference.hh"
#include "runtime/system.hh"

using namespace maicc;

int
main(int argc, char **argv)
{
    cli::Options opt("resnet18_inference", argc, argv);
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;
    SystemConfig scfg = opt.config.system;

    // Model + deterministic synthetic weights/input (stand-in for
    // ImageNet data; see DESIGN.md substitutions).
    Network net = buildResNet18();
    auto weights = randomWeights(net, 1234);
    Tensor3 input(56, 56, 64);
    Rng rng(5678);
    input.randomize(rng);

    // Plan: the paper's heuristic segmentation on 210 cores.
    MappingPlan plan = planMapping(net, Strategy::Heuristic, 210);
    std::printf("Mapping: %zu segments on %u cores\n",
                plan.segments.size(), plan.coreBudget);

    // Simulate.
    SimContext ctx;
    MaiccSystem system(net, weights, scfg);
    system.attachTo(ctx);
    RunResult run = system.run(plan, input);

    TextTable t({"Segment", "Layers", "Cores", "Start (Mcyc)",
                 "End (Mcyc)", "Latency (ms)"});
    for (size_t i = 0; i < run.segments.size(); ++i) {
        const auto &seg = run.segments[i];
        std::string names;
        for (const auto &ls : seg.layers) {
            if (!names.empty())
                names += ",";
            names += net.layer(ls.layerIdx).name;
        }
        if (names.size() > 28)
            names = names.substr(0, 25) + "...";
        t.addRow({TextTable::num(uint64_t(i + 1)), names,
                  TextTable::num(uint64_t(
                      plan.segments[i].totalCores())),
                  TextTable::num(seg.start / 1e6, 2),
                  TextTable::num(seg.end / 1e6, 2),
                  TextTable::num((seg.end - seg.start) / 1e6, 3)});
    }
    t.print(std::cout);

    // Verify against the reference executor.
    auto ref = referenceRun(net, weights, input);
    bool exact = true;
    for (size_t i = 0; i < net.size(); ++i)
        exact = exact
            && run.layerOutputs[i].data == ref.outputs[i].data;

    EnergyBreakdown e = computeEnergy(run.activity);
    std::printf("\nLatency      : %.3f ms (%llu cycles @ 1 GHz)\n",
                run.latencyMs(),
                static_cast<unsigned long long>(run.totalCycles));
    std::printf("Throughput   : %.1f samples/s\n",
                1e3 / run.latencyMs());
    std::printf("Energy       : %.1f mJ  (DRAM %.0f%%, CMem "
                "%.0f%%, NoC %.0f%%)\n",
                e.total(), 100 * e.dram / e.total(),
                100 * e.cmem / e.total(),
                100 * e.noc / e.total());
    std::printf("Avg power    : %.2f W\n",
                e.averagePowerW(run.totalCycles));
    std::printf("Verification : %s\n",
                exact ? "bit-exact vs reference executor"
                      : "MISMATCH");

    // Top-5 of the classifier output, to show real data flowed.
    std::printf("\nTop-5 classes: ");
    std::vector<std::pair<int, int>> scores;
    const Tensor3 &logits = run.output();
    for (int c = 0; c < logits.C; ++c)
        scores.push_back({logits.at(0, 0, c), c});
    std::sort(scores.rbegin(), scores.rend());
    for (int i = 0; i < 5; ++i)
        std::printf("%d(%d) ", scores[i].second, scores[i].first);
    std::printf("\n");
    return exact && opt.writeStats(ctx) ? 0 : 1;
}
