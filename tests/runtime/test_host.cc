#include <gtest/gtest.h>

#include "runtime/host.hh"

using namespace maicc;

namespace
{

struct HostFixture
{
    HostFixture()
        : cnn_a(buildSmallCnn(32, 32, 64)),
          cnn_b(buildSmallCnn(16, 16, 64)),
          resnet(buildResNet18()),
          wa(randomWeights(cnn_a, 1)), wb(randomWeights(cnn_b, 2)),
          wr(randomWeights(resnet, 3)), in_a(32, 32, 64),
          in_b(16, 16, 64), in_r(56, 56, 64)
    {
        Rng rng(4);
        in_a.randomize(rng);
        in_b.randomize(rng);
        in_r.randomize(rng);
    }

    Network cnn_a, cnn_b, resnet;
    std::vector<Weights4> wa, wb, wr;
    Tensor3 in_a, in_b, in_r;
};

} // namespace

TEST(HostScheduler, MinCoresReflectsWorstLayer)
{
    HostFixture f;
    // ResNet18's conv4_x stage needs 208 cores at densest packing.
    EXPECT_EQ(HostScheduler::minCores(f.resnet), 208u);
    EXPECT_LT(HostScheduler::minCores(f.cnn_a), 40u);
    EXPECT_LT(HostScheduler::minCores(f.cnn_b), 40u);
}

TEST(HostScheduler, TwoSmallModelsCoexist)
{
    HostFixture f;
    HostScheduler host(210);
    host.addTask({"camera", &f.cnn_a, &f.wa, &f.in_a, 1.0});
    host.addTask({"radar", &f.cnn_b, &f.wb, &f.in_b, 1.0});
    HostScheduleResult r = host.schedule();
    ASSERT_EQ(r.regions.size(), 2u);
    EXPECT_TRUE(r.rejected.empty());
    EXPECT_LE(r.coresUsed(), 210u);
    EXPECT_GT(r.aggregateThroughput, 0.0);
    for (const auto &ra : r.regions) {
        EXPECT_GT(ra.latencyMs, 0.0);
        EXPECT_GT(ra.cores, 0u);
    }
}

TEST(HostScheduler, ResNetCrowdsOutSecondModel)
{
    // ResNet18 needs 208 of 210 cores; a second model registered
    // after it must be rejected.
    HostFixture f;
    HostScheduler host(210);
    host.addTask({"resnet", &f.resnet, &f.wr, &f.in_r, 1.0});
    host.addTask({"radar", &f.cnn_b, &f.wb, &f.in_b, 1.0});
    HostScheduleResult r = host.schedule();
    ASSERT_EQ(r.regions.size(), 1u);
    ASSERT_EQ(r.rejected.size(), 1u);
    EXPECT_EQ(r.rejected[0], 1u);
}

TEST(HostScheduler, DemandBiasesGrowth)
{
    // The high-demand model should end up with at least as many
    // cores as the equal-sized low-demand one.
    HostFixture f;
    HostScheduler host(210);
    host.addTask({"hot", &f.cnn_a, &f.wa, &f.in_a, 10.0});
    host.addTask({"cold", &f.cnn_a, &f.wa, &f.in_a, 0.1});
    HostScheduleResult r = host.schedule();
    ASSERT_EQ(r.regions.size(), 2u);
    EXPECT_GE(r.regions[0].cores, r.regions[1].cores);
}

TEST(HostScheduler, AggregateIsSumOfRegions)
{
    HostFixture f;
    HostScheduler host(210);
    host.addTask({"a", &f.cnn_a, &f.wa, &f.in_a, 1.0});
    host.addTask({"b", &f.cnn_b, &f.wb, &f.in_b, 1.0});
    HostScheduleResult r = host.schedule();
    double sum = 0;
    for (const auto &ra : r.regions)
        sum += ra.throughput;
    EXPECT_NEAR(r.aggregateThroughput, sum, 1e-9);
}

TEST(HostScheduler, ScheduledRegionsMatchReference)
{
    // The growth loop feeds earlier simulations into later
    // decisions; whatever plan it settles on must still compute
    // the reference tensors.
    HostFixture f;
    HostScheduler host(210);
    host.addTask({"camera", &f.cnn_a, &f.wa, &f.in_a, 3.0});
    host.addTask({"radar", &f.cnn_b, &f.wb, &f.in_b, 1.0});
    HostScheduleResult r = host.schedule();
    ASSERT_EQ(r.regions.size(), 2u);
    for (const auto &ra : r.regions) {
        SCOPED_TRACE(ra.taskIdx);
        const bool camera = ra.taskIdx == 0;
        const Network &net = camera ? f.cnn_a : f.cnn_b;
        const auto &w = camera ? f.wa : f.wb;
        const Tensor3 &in = camera ? f.in_a : f.in_b;
        MaiccSystem sys(net, w);
        EXPECT_EQ(sys.run(ra.plan, in).output().data,
                  referenceRun(net, w, in).final().data);
    }
}

TEST(Precision, SetPrecisionDrivesCapacity)
{
    Network net = buildResNet18();
    setPrecision(net, 4);
    for (const auto &l : net.layers)
        EXPECT_EQ(l.nBits, 4u);
    // At 4-bit, conv4_x fits in far fewer cores than at 8-bit.
    unsigned min4 = HostScheduler::minCores(net);
    Network net8 = buildResNet18();
    unsigned min8 = HostScheduler::minCores(net8);
    EXPECT_LT(min4, min8);
    // At 16-bit the network does not fit 210 cores at all.
    Network net16 = buildResNet18();
    setPrecision(net16, 16);
    EXPECT_GT(HostScheduler::minCores(net16), 210u);
}

TEST(Precision, FourBitIsFasterThanEightBit)
{
    Tensor3 input(56, 56, 64);
    Rng rng(6);
    input.randomize(rng);
    auto run = [&](unsigned n) {
        Network net = buildResNet18();
        setPrecision(net, n);
        auto w = randomWeights(net, 7);
        MaiccSystem sys(net, w);
        MappingPlan plan =
            planMapping(net, Strategy::Heuristic, 210);
        return sys.run(plan, input).totalCycles;
    };
    EXPECT_LT(run(4), run(8));
}
