/**
 * @file
 * Seeded property: on random small networks with full-range int8
 * weights and inputs, MaiccSystem::run's tensors equal referenceRun
 * bit for bit, and activity.macActivations equals an independent
 * count of in-bound taps x totalUnits x nBits^2. The shapes reach
 * the dot-product kernel's tails that the fixed fixtures (channel
 * counts that are multiples of 16, operands in [-5, 5]) never do:
 * odd channel counts, channel counts whose 64-byte K chunks each lie
 * inside one tap (C % 64 == 0) and ones whose chunks span taps,
 * channel splits above 256, stride 2, padding and residual adds.
 */

#include <iterator>

#include <gtest/gtest.h>

#include "common/seeded_test.hh"
#include "mapping/allocation.hh"
#include "nn/reference.hh"
#include "runtime/system.hh"

using namespace maicc;

namespace
{

/** Which kernel-relevant features a batch of networks reached. */
struct Coverage
{
    bool oddChannels = false;  ///< a C not a multiple of 16
    bool wholeChunks = false;  ///< a C that is a multiple of 64
    bool split = false;        ///< a C above 256, not a multiple of it
    bool stride2 = false;
    bool padding = false;
    bool residual = false;
};

/** A random, shape-consistent conv stack with an optional FC head. */
Network
randomNetwork(Rng &rng, Coverage &cov)
{
    static const int kChannels[] = {3, 5, 17, 40, 64, 72, 128, 300};
    auto channels = [&] {
        int c = kChannels[rng.below(std::size(kChannels))];
        cov.oddChannels |= c % 16 != 0;
        cov.wholeChunks |= c % 64 == 0;
        cov.split |= c > 256;
        return c;
    };
    struct Shape
    {
        int h, c;
        bool operator==(const Shape &) const = default;
    };

    Network net;
    net.name = "full-range";
    int h = 4 + int(rng.below(4)); // 4..7
    int c = channels();
    std::vector<Shape> outputs; // one per layer; index -1 = input
    const Shape input{h, c};
    unsigned convs = 2 + unsigned(rng.below(3));
    for (unsigned i = 0; i < convs; ++i) {
        LayerSpec l;
        l.name = format("conv%u", i);
        l.kind = LayerKind::Conv;
        l.inputFrom = int(i) - 1;
        l.inC = c;
        l.inH = l.inW = h;
        l.outC = rng.below(3) == 0 ? c : channels();
        l.R = l.S = rng.below(3) == 0 ? 1 : 3;
        l.pad = l.R == 3 && rng.below(4) != 0 ? 1 : 0;
        l.stride = h >= 4 && rng.below(3) == 0 ? 2 : 1;
        l.relu = rng.below(2) == 0;
        l.shift = 8 + unsigned(rng.below(6));
        cov.stride2 |= l.stride == 2;
        cov.padding |= l.pad > 0;

        Shape out{l.outH(), l.outC};
        std::vector<int> candidates;
        if (out == input)
            candidates.push_back(-1);
        for (size_t j = 0; j < outputs.size(); ++j) {
            if (outputs[j] == out)
                candidates.push_back(int(j));
        }
        if (!candidates.empty() && rng.below(3) != 0) {
            l.addFrom = candidates[rng.below(candidates.size())];
            cov.residual = true;
        }
        net.layers.push_back(l);
        outputs.push_back(out);
        h = out.h;
        c = out.c;
    }
    if (rng.below(2) == 0) {
        LayerSpec gap;
        gap.name = "gap";
        gap.kind = LayerKind::AvgPool;
        gap.inputFrom = int(net.size()) - 1;
        gap.inC = gap.outC = c;
        gap.inH = gap.inW = gap.R = gap.S = gap.stride = h;
        net.layers.push_back(gap);

        LayerSpec fc;
        fc.name = "fc";
        fc.kind = LayerKind::Linear;
        fc.inputFrom = int(net.size()) - 1;
        fc.inC = c;
        fc.inH = fc.inW = 1;
        fc.outC = 7;
        fc.shift = 10;
        net.layers.push_back(fc);
    }
    return net;
}

/** Σ over compute layers of in-bound taps x totalUnits x nBits^2. */
uint64_t
expectedMacActivations(const Network &net)
{
    uint64_t total = 0;
    for (const LayerSpec &l : net.layers) {
        if (!l.isCompute())
            continue;
        uint64_t taps = 0;
        for (int oh = 0; oh < l.outH(); ++oh) {
            for (int ow = 0; ow < l.outW(); ++ow) {
                for (int r = 0; r < l.R; ++r) {
                    for (int s = 0; s < l.S; ++s) {
                        int ih = oh * l.stride + r - l.pad;
                        int iw = ow * l.stride + s - l.pad;
                        taps += ih >= 0 && ih < l.inH && iw >= 0
                            && iw < l.inW;
                    }
                }
            }
        }
        total += taps * totalUnits(l) * l.nBits * l.nBits;
    }
    return total;
}

/**
 * Run @p net on full-range random weights and input from @p rng and
 * check every tensor against referenceRun and the MAC activations
 * against the independent tap count.
 */
void
expectMatchesReference(const Network &net, Rng &rng)
{
    std::vector<Weights4> w;
    for (const LayerSpec &l : net.layers) {
        w.emplace_back();
        if (l.isCompute()) {
            w.back() = Weights4(l.outC, l.R, l.S, l.inC);
            w.back().randomize(rng, -128, 127);
        }
    }
    const LayerSpec &first = net.layer(0);
    Tensor3 input(first.inH, first.inW, first.inC);
    input.randomize(rng, -128, 127);

    MaiccSystem sys(net, w);
    RunResult r =
        sys.run(planMapping(net, Strategy::Heuristic, 210), input);
    ReferenceResult ref = referenceRun(net, w, input);
    ASSERT_EQ(r.layerOutputs.size(), net.size());
    for (size_t i = 0; i < net.size(); ++i) {
        EXPECT_EQ(r.layerOutputs[i].data, ref.outputs[i].data)
            << "layer " << net.layer(i).name;
    }
    EXPECT_EQ(r.activity.macActivations, expectedMacActivations(net));
}

/** A conv layer reading the previous layer (or the input). */
LayerSpec
conv(const Network &net, int in_c, int in_hw, int out_c, int k,
     int stride, int pad)
{
    LayerSpec l;
    l.name = format("conv%zu", net.size());
    l.kind = LayerKind::Conv;
    l.inputFrom = int(net.size()) - 1;
    l.inC = in_c;
    l.inH = l.inW = in_hw;
    l.outC = out_c;
    l.R = l.S = k;
    l.stride = stride;
    l.pad = pad;
    l.relu = true;
    l.shift = 11;
    return l;
}

/** Global average pooling of the last layer's @p c x @p hw x @p hw. */
LayerSpec
globalPool(const Network &net, int c, int hw)
{
    LayerSpec gap;
    gap.name = "gap";
    gap.kind = LayerKind::AvgPool;
    gap.inputFrom = int(net.size()) - 1;
    gap.inC = gap.outC = c;
    gap.inH = gap.inW = gap.R = gap.S = gap.stride = hw;
    return gap;
}

} // namespace

TEST(SystemProperty, FullRangeNetworksMatchReferenceBitExactly)
{
    Coverage cov;
    for (uint64_t seed : testseed::seeds({1, 2, 3, 4, 5, 6, 7, 8})) {
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        expectMatchesReference(randomNetwork(rng, cov), rng);
    }
    // The default seeds must keep reaching every kernel tail; a
    // MAICC_TEST_SEED replay checks one network only.
    uint64_t pinned = 0;
    if (!testseed::envSeed(pinned)) {
        EXPECT_TRUE(cov.oddChannels);
        EXPECT_TRUE(cov.wholeChunks);
        EXPECT_TRUE(cov.split);
        EXPECT_TRUE(cov.stride2);
        EXPECT_TRUE(cov.padding);
        EXPECT_TRUE(cov.residual);
    }
}

TEST(SystemProperty, LinearWith1000Filters)
{
    // ResNet18's head: 1000 filters end in a partial 8-filter tile.
    uint64_t seed = testseed::seedOrDefault(31);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    Network net;
    net.name = "fc1000";
    net.layers.push_back(conv(net, 16, 4, 64, 3, 1, 1));
    net.layers.push_back(globalPool(net, 64, 4));
    LayerSpec fc;
    fc.name = "fc";
    fc.kind = LayerKind::Linear;
    fc.inputFrom = int(net.size()) - 1;
    fc.inC = 64;
    fc.inH = fc.inW = 1;
    fc.outC = 1000;
    fc.shift = 10;
    net.layers.push_back(fc);
    expectMatchesReference(net, rng);
}

TEST(SystemProperty, SevenBySevenByThreeStem)
{
    // R*S*C = 147 is no multiple of 4 (a partial VNNI group) nor of
    // 64 (a K tail), and the 196 output pixels end in a 4-pixel
    // block.
    uint64_t seed = testseed::seedOrDefault(37);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    Network net;
    net.name = "stem";
    net.layers.push_back(conv(net, 3, 28, 64, 7, 2, 3));
    expectMatchesReference(net, rng);
}

TEST(SystemProperty, OutputRowsNarrowerThanATile)
{
    // out_w of 14 and 7, so 64-pixel blocks span several output
    // rows and the 49-pixel layer is one partial block, with a
    // residual add on the 7-wide layer.
    uint64_t seed = testseed::seedOrDefault(41);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    Network net;
    net.name = "narrow";
    net.layers.push_back(conv(net, 32, 14, 48, 3, 1, 1));
    net.layers.push_back(conv(net, 48, 14, 40, 3, 2, 1));
    LayerSpec res = conv(net, 40, 7, 40, 3, 1, 1);
    res.addFrom = 1;
    net.layers.push_back(res);
    expectMatchesReference(net, rng);
}
