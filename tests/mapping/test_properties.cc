/**
 * @file
 * Property tests for the mapping invariants, over randomized
 * network mixes from tests/common/rand_network.hh:
 *
 *  - no node over-subscription: every allocation keeps
 *    vectorsPerNode within the node's physical vector slots;
 *  - every plan respects the core budget, segment by segment;
 *  - every filter fragment is placed exactly once (no dropped and
 *    no duplicated units across the compute chain);
 *  - placement puts each segment on distinct in-region nodes;
 *  - online alloc/free round-trips (CoreLedger + RegionAllocator)
 *    leak no cores under randomized admission/reclaim sequences.
 *
 * Seeds are fixed, so a failure reproduces exactly; each property
 * runs over many generated networks, which is why this suite lives
 * in the `slow` ctest tier.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/rand_network.hh"
#include "mapping/placement.hh"
#include "mapping/segmentation.hh"

using namespace maicc;
using testgen::randomNetwork;

namespace
{

constexpr unsigned kBudget = 210;
constexpr int kNetworks = 60;

/** All allocation shapes the planner can produce for @p l. */
std::vector<NodeAllocation>
candidateAllocations(const LayerSpec &l, Rng &rng)
{
    return {
        minAllocation(l),
        spreadAllocation(l, kBudget),
        allocationForCores(l, 1 + unsigned(rng.below(kBudget))),
    };
}

} // namespace

TEST(MappingProperties, NoNodeOverSubscription)
{
    Rng rng(101);
    for (int n = 0; n < kNetworks; ++n) {
        Network net = randomNetwork(rng);
        for (size_t li : net.computeLayers()) {
            const LayerSpec &l = net.layer(li);
            for (const NodeAllocation &a :
                 candidateAllocations(l, rng)) {
                EXPECT_LE(a.vectorsPerNode(l),
                          vectorSlotsPerNode(l.nBits))
                    << net.name << " net " << n << " layer "
                    << l.name;
            }
        }
    }
}

TEST(MappingProperties, PlansRespectCoreBudget)
{
    Rng rng(103);
    for (int n = 0; n < kNetworks; ++n) {
        Network net = randomNetwork(rng);
        for (Strategy s : {Strategy::SingleLayer, Strategy::Greedy,
                           Strategy::Heuristic}) {
            MappingPlan plan = planMapping(net, s, kBudget);
            for (const Segment &seg : plan.segments) {
                EXPECT_LE(seg.totalCores(), kBudget)
                    << strategyName(s) << " net " << n;
            }
        }
    }
}

TEST(MappingProperties, EveryFilterFragmentPlacedExactlyOnce)
{
    Rng rng(107);
    for (int n = 0; n < kNetworks; ++n) {
        Network net = randomNetwork(rng);
        for (size_t li : net.computeLayers()) {
            const LayerSpec &l = net.layer(li);
            unsigned units = totalUnits(l);
            for (const NodeAllocation &a :
                 candidateAllocations(l, rng)) {
                // The chain covers all units: the first
                // computeCores-1 nodes hold unitsPerNode each, the
                // last holds the remainder — so the chain can hold
                // every fragment, and removing one node no longer
                // can. Together: each fragment sits on exactly one
                // node.
                EXPECT_GE(a.computeCores * a.unitsPerNode, units)
                    << l.name;
                EXPECT_LT((a.computeCores - 1) * a.unitsPerNode,
                          units)
                    << l.name;
            }
        }
    }
}

TEST(MappingProperties, PlansCoverEveryComputeLayerExactlyOnce)
{
    Rng rng(109);
    for (int n = 0; n < kNetworks; ++n) {
        Network net = randomNetwork(rng);
        for (Strategy s : {Strategy::SingleLayer, Strategy::Greedy,
                           Strategy::Heuristic}) {
            MappingPlan plan = planMapping(net, s, kBudget);
            std::multiset<size_t> mapped;
            for (const Segment &seg : plan.segments) {
                for (const LayerMapping &lm : seg.layers)
                    mapped.insert(lm.layerIdx);
            }
            for (size_t li : net.computeLayers())
                EXPECT_EQ(mapped.count(li), 1u)
                    << strategyName(s) << " net " << n << " layer "
                    << li;
            EXPECT_EQ(mapped.size(), net.computeLayers().size());
        }
    }
}

TEST(MappingProperties, PlacementUsesDistinctInRegionNodes)
{
    Rng rng(113);
    ArrayGeometry geo;
    for (int n = 0; n < kNetworks; ++n) {
        Network net = randomNetwork(rng);
        MappingPlan plan =
            planMapping(net, Strategy::Heuristic, kBudget);
        for (const Segment &seg : plan.segments) {
            SegmentPlacement p = placeSegment(seg, geo);
            EXPECT_EQ(p.nodes.size(), seg.totalCores());
            std::set<std::pair<int, int>> coords;
            for (const PlacedNode &node : p.nodes) {
                EXPECT_GE(node.coord.x, geo.computeX0);
                EXPECT_LT(node.coord.x,
                          geo.computeX0 + geo.computeW);
                EXPECT_GE(node.coord.y, geo.computeY0);
                EXPECT_LT(node.coord.y,
                          geo.computeY0 + geo.computeH);
                coords.insert({node.coord.x, node.coord.y});
            }
            EXPECT_EQ(coords.size(), p.nodes.size())
                << "duplicate placement, net " << n;
        }
    }
}

TEST(MappingProperties, AllocFreeRoundTripsLeakNoCores)
{
    Rng rng(127);
    for (int trial = 0; trial < 40; ++trial) {
        CoreLedger ledger(kBudget);
        RegionAllocator region;
        ASSERT_GE(region.totalNodes(), kBudget);

        struct Grant
        {
            unsigned cores;
            RegionGrant slots;
        };
        std::vector<Grant> live;
        uint64_t peak = 0;

        for (int step = 0; step < 200; ++step) {
            bool alloc = live.empty() || rng.below(2) == 0;
            if (alloc) {
                unsigned want = 1 + unsigned(rng.below(64));
                bool fits = want <= ledger.freeCores();
                EXPECT_EQ(ledger.tryAllocate(want), fits);
                if (!fits)
                    continue;
                Grant g;
                g.cores = want;
                unsigned longest = region.longestFreeRun();
                g.slots = region.allocateContiguous(want);
                if (g.slots.empty()) {
                    // Refused only when fragmentation leaves no
                    // run that long; the budget is handed back.
                    EXPECT_LT(longest, want);
                    ledger.release(want);
                    continue;
                }
                ASSERT_EQ(g.slots.count, want);
                ASSERT_LE(g.slots.first + want, region.totalNodes());
                // Slots are freshly allocated: no live grant
                // overlaps them.
                for (const Grant &other : live) {
                    for (unsigned s = g.slots.first;
                         s < g.slots.first + want; ++s)
                        EXPECT_FALSE(other.slots.contains(s))
                            << "slot " << s
                            << " double-allocated";
                }
                live.push_back(g);
            } else {
                size_t victim = rng.below(live.size());
                ledger.release(live[victim].cores);
                region.release(live[victim].slots);
                live.erase(live.begin() + long(victim));
            }
            peak = std::max(peak, uint64_t(ledger.used()));
            // The ledger and the physical region always agree.
            EXPECT_EQ(ledger.used(),
                      region.totalNodes() - region.freeNodes());
            EXPECT_LE(ledger.used(), kBudget);
        }
        for (const Grant &g : live) {
            ledger.release(g.cores);
            region.release(g.slots);
        }
        EXPECT_EQ(ledger.used(), 0u);
        EXPECT_EQ(ledger.freeCores(), kBudget);
        EXPECT_EQ(region.freeNodes(), region.totalNodes());
        EXPECT_GT(peak, 0u);
    }
}

TEST(MappingProperties, RegionAllocatorPrefersContiguousRuns)
{
    // On an empty region an allocation is the lowest contiguous
    // serpentine run; after fragmentation the lowest hole that
    // fits is reused first.
    RegionAllocator region;
    RegionGrant a = region.allocateContiguous(10);
    EXPECT_EQ(a.first, 0u);
    EXPECT_EQ(a.count, 10u);

    RegionGrant b = region.allocateContiguous(10);
    EXPECT_EQ(b.first, 10u);
    region.release(a); // hole of 10 before b
    RegionGrant c = region.allocateContiguous(6); // fits the hole
    EXPECT_EQ(c.first, 0u);
    EXPECT_EQ(c.count, 6u);

    // Every free slot in one grant would have to cross the seam
    // left by b: refused, nothing consumed. The longest run is the
    // tail after b.
    unsigned free_before = region.freeNodes();
    EXPECT_TRUE(region.allocateContiguous(free_before).empty());
    EXPECT_EQ(region.freeNodes(), free_before);
    EXPECT_EQ(region.longestFreeRun(), region.totalNodes() - 20);
    RegionGrant d =
        region.allocateContiguous(region.longestFreeRun());
    EXPECT_EQ(d.first, 20u);
    EXPECT_EQ(d.count + b.count + c.count + 4,
              region.totalNodes());
    EXPECT_EQ(region.freeNodes(), 4u); // the rest of a's hole

    // Releasing the separator coalesces the hole with b's slots.
    region.release(b);
    EXPECT_EQ(region.longestFreeRun(), 14u);
    EXPECT_EQ(region.allocateContiguous(14).first, 6u);
    EXPECT_EQ(region.freeNodes(), 0u);
}

TEST(MappingProperties, AllocateContiguousRefusesFragmentedFits)
{
    // The serving admission path's allocator: when the free count
    // fits but no contiguous run does, allocateContiguous must
    // refuse and leave the region untouched — this is exactly the
    // case where scattering a node-group chain across seams would
    // invalidate its contiguously-profiled service time.
    RegionAllocator region;
    RegionGrant a = region.allocateContiguous(4); // [0..3]
    RegionGrant b = region.allocateContiguous(4); // [4..7]
    RegionGrant c = region.allocateContiguous(4); // [8..11]
    region.allocateContiguous(region.freeNodes());
    ASSERT_EQ(region.freeNodes(), 0u);
    region.release(a);
    region.release(c); // two free runs of 4, 8 free in total
    EXPECT_EQ(region.freeNodes(), 8u);
    EXPECT_EQ(region.longestFreeRun(), 4u);

    // Fits by count, not by shape: refused, nothing consumed.
    EXPECT_TRUE(region.allocateContiguous(6).empty());
    EXPECT_EQ(region.freeNodes(), 8u);
    EXPECT_EQ(region.longestFreeRun(), 4u);

    // A fitting run is carved at the lowest position...
    RegionGrant low = region.allocateContiguous(4);
    EXPECT_EQ(low.first, 0u);
    EXPECT_EQ(low.count, 4u);
    region.release(low);

    // ...and releasing the separator coalesces the runs.
    region.release(b);
    EXPECT_EQ(region.longestFreeRun(), 12u);
    RegionGrant wide = region.allocateContiguous(10);
    EXPECT_EQ(wide.first, 0u);
    EXPECT_EQ(wide.count, 10u);
}
