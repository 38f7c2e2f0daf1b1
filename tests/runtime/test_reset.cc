/**
 * @file
 * The reset() contract (common/sim_component.hh): a run after
 * reset() is bitwise identical to a run on a freshly constructed
 * instance — for MaiccSystem (whose LLC filter model is the only
 * cross-run state carrier), and for the
 * ServingSimulator, whose per-model system reuse depends on it.
 */

#include <gtest/gtest.h>

#include "runtime/serving.hh"
#include "runtime/system.hh"

using namespace maicc;

namespace
{

struct Fixture
{
    Fixture()
        : net(buildSmallCnn(12, 12, 64)),
          w(randomWeights(net, 31)),
          plan(planMapping(net, Strategy::Heuristic, 210)),
          input(12, 12, 64)
    {
        Rng rng(32);
        input.randomize(rng);
    }

    Network net;
    std::vector<Weights4> w;
    MappingPlan plan;
    Tensor3 input;
};

void
expectActivityEq(const ActivityCounts &a, const ActivityCounts &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.activeCoreCycles, b.activeCoreCycles);
    EXPECT_EQ(a.macActivations, b.macActivations);
    EXPECT_EQ(a.moveRows, b.moveRows);
    EXPECT_EQ(a.remoteRows, b.remoteRows);
    EXPECT_EQ(a.verticalWriteBytes, b.verticalWriteBytes);
    EXPECT_EQ(a.dmemAccesses, b.dmemAccesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.nocFlitHops, b.nocFlitHops);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
}

void
expectRunEq(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    expectActivityEq(a.activity, b.activity);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].start, b.segments[i].start);
        EXPECT_EQ(a.segments[i].filterLoadDone,
                  b.segments[i].filterLoadDone);
        EXPECT_EQ(a.segments[i].end, b.segments[i].end);
    }
    ASSERT_EQ(a.layerOutputs.size(), b.layerOutputs.size());
    for (size_t i = 0; i < a.layerOutputs.size(); ++i)
        EXPECT_EQ(a.layerOutputs[i].data, b.layerOutputs[i].data);
}

void
expectServingEq(const ServingResult &a, const ServingResult &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.meanQueueing, b.meanQueueing);
    EXPECT_EQ(a.utilization, b.utilization);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
        const RequestRecord &x = a.requests[i];
        const RequestRecord &y = b.requests[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.model, y.model);
        EXPECT_EQ(x.arrival, y.arrival);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.finish, y.finish);
        EXPECT_EQ(x.cores, y.cores);
        EXPECT_EQ(x.batchSize, y.batchSize);
        EXPECT_EQ(x.rejected, y.rejected);
        EXPECT_EQ(x.completed, y.completed);
    }
}

} // namespace

TEST(Reset, SystemRunAfterResetMatchesFreshSystem)
{
    Fixture f;
    MaiccSystem reused(f.net, f.w);
    RunResult first = reused.run(f.plan, f.input);
    reused.reset();
    RunResult after_reset = reused.run(f.plan, f.input);

    MaiccSystem fresh(f.net, f.w);
    RunResult fresh_run = fresh.run(f.plan, f.input);

    expectRunEq(after_reset, fresh_run);
    expectRunEq(first, fresh_run);
}

TEST(Reset, SystemResetClearsPublishedStats)
{
    Fixture f;
    SimContext ctx;
    MaiccSystem sys(f.net, f.w, SystemConfig{});
    sys.attachTo(ctx);
    sys.run(f.plan, f.input);
    sys.recordStats();
    EXPECT_EQ(sys.stats().get("runs"), 1u);
    sys.reset();
    EXPECT_EQ(sys.stats().get("runs"), 0u);
    sys.recordStats();
    EXPECT_EQ(sys.stats().get("runs"), 0u);
}

TEST(Reset, SystemResetIsIdempotent)
{
    Fixture f;
    SystemConfig cfg;
    MaiccSystem sys(f.net, f.w, cfg);
    sys.run(f.plan, f.input);
    sys.reset();
    sys.reset();
    MaiccSystem fresh(f.net, f.w, cfg);
    expectRunEq(sys.run(f.plan, f.input),
                fresh.run(f.plan, f.input));
}

TEST(Reset, ServingRunAfterResetMatchesFreshSimulator)
{
    Network camera = buildSmallCnn(12, 12, 64);
    Network radar = buildSmallCnn(8, 8, 64);
    auto camW = randomWeights(camera, 41);
    auto radW = randomWeights(radar, 42);
    Tensor3 camIn(12, 12, 64), radIn(8, 8, 64);
    Rng rng(43);
    camIn.randomize(rng);
    radIn.randomize(rng);

    ServingConfig cfg;
    cfg.seed = 9;
    cfg.offeredRequests = 10;
    cfg.meanInterarrival = 120'000;
    cfg.maxBatch = 2;

    auto add_models = [&](ServingSimulator &sim) {
        sim.addModel({"camera", &camera, &camW, &camIn, 2.0, 0});
        sim.addModel({"radar", &radar, &radW, &radIn, 1.0, 0});
    };

    // The reused simulator keeps one cached MaiccSystem per model
    // across run() calls; reset() must make the second run
    // indistinguishable from a fresh simulator's.
    ServingSimulator reused(cfg);
    add_models(reused);
    ServingResult first = reused.run();
    reused.reset();
    ServingResult after_reset = reused.run();

    ServingSimulator fresh(cfg);
    add_models(fresh);
    ServingResult fresh_run = fresh.run();

    expectServingEq(after_reset, fresh_run);
    expectServingEq(first, fresh_run);
}
