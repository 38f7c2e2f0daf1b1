/**
 * @file
 * Physical placement of node groups onto the 16x16 array
 * (Fig. 3(a) / Fig. 7(c)): the host CPU occupies column 0, two
 * rows of LLC nodes sit at the top and bottom, and the 15x14
 * compute region is filled in zig-zag (serpentine) order so that
 * consecutive cores of a node group are physically adjacent and
 * the next layer's data-collection core is nearby.
 */

#ifndef MAICC_MAPPING_PLACEMENT_HH
#define MAICC_MAPPING_PLACEMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mapping/segmentation.hh"

namespace maicc
{

/** Geometry of the MAICC array. */
struct ArrayGeometry
{
    int meshW = 16;
    int meshH = 16;
    int computeX0 = 1; ///< column 0 is the host CPU
    int computeY0 = 1; ///< row 0 is LLC
    int computeW = 15;
    int computeH = 14; ///< row 15 is LLC

    unsigned
    computeNodes() const
    {
        return computeW * computeH;
    }

    /** Serpentine position @p idx within the compute region. */
    NodeCoord serpentine(unsigned idx) const;

    /** LLC node serving DRAM channel @p ch (top row then bottom). */
    NodeCoord llcForChannel(unsigned ch) const;
};

enum class NodeRole
{
    DataCollect,
    Compute,
    Merge,
};

/** One placed node of a segment. */
struct PlacedNode
{
    NodeCoord coord;
    size_t layerIdx = 0;  ///< network layer index
    NodeRole role = NodeRole::Compute;
    unsigned chainPos = 0; ///< position in the layer's core chain
};

/** Placement of every node of a segment. */
struct SegmentPlacement
{
    std::vector<PlacedNode> nodes;

    /** Nodes of one layer, DC first, chain in order, then merge. */
    std::vector<const PlacedNode *> layerNodes(size_t layer) const;
};

/** Place @p seg into the compute region in zig-zag order. */
SegmentPlacement placeSegment(const Segment &seg,
                              const ArrayGeometry &geo =
                                  ArrayGeometry{});

/**
 * Canonical byte string describing a placed segment's *shape*: the
 * layer index, role, chain position, and coordinates of every node,
 * in placement order. Two segments with the same signature occupy
 * congruent node patterns and therefore have identical timing (hop
 * latency is per-edge, never per-distance), which is what lets the
 * timing-result cache (runtime/sim_cache.hh) key service latencies
 * on the placement shape instead of on the physical slots a
 * RegionAllocator happened to hand out.
 */
std::string placementSignature(const SegmentPlacement &p);

/** A contiguous serpentine run of slots [first, first + count). */
struct RegionGrant
{
    unsigned first = 0;
    unsigned count = 0; ///< 0: nothing granted

    bool empty() const { return count == 0; }

    bool
    contains(unsigned slot) const
    {
        return slot >= first && slot - first < count;
    }
};

/**
 * Online occupancy tracking of the serpentine compute region for
 * request-driven serving: node groups are allocated when a request
 * is admitted and reclaimed when it completes, so the region
 * fragments and re-coalesces over time. Every grant is the lowest
 * contiguous serpentine run that fits (consecutive cores of a chain
 * stay physically adjacent, as in placeSegment): service-time
 * profiles are keyed on (model, cores) and simulated on a
 * contiguous placement, so a chain scattered across fragmentation
 * seams would be served with a latency estimate that does not match
 * its real hop count.
 *
 * Slot state is one bit per slot in 64-bit words, so finding a
 * run, carving it and releasing it cost a few word operations per
 * free run instead of a walk over every slot.
 */
class RegionAllocator
{
  public:
    explicit RegionAllocator(const ArrayGeometry &geo =
                                 ArrayGeometry{});

    unsigned totalNodes() const { return _n; }
    unsigned freeNodes() const { return _free; }
    bool used(unsigned slot) const { return test(_used, slot); }

    /** Slots permanently lost to core faults (see markDead). */
    unsigned deadNodes() const { return _dead_count; }
    bool dead(unsigned slot) const { return test(_dead, slot); }

    /**
     * Allocate the lowest *contiguous* run of @p count serpentine
     * slots. Empty (and no change) when fragmentation leaves no
     * run that long — even if @p count slots are free in total.
     * A contiguous run is exactly the shape the (model, cores)
     * service profile was simulated on (see placementSignature).
     */
    RegionGrant allocateContiguous(unsigned count);

    /** Length of the longest free contiguous serpentine run. */
    unsigned longestFreeRun() const { return longestRun(_used); }

    /**
     * Longest contiguous run of *non-dead* slots, regardless of
     * current occupancy: the largest region this allocator can ever
     * satisfy again. The serving layer uses it to spot requests
     * whose minimum region became permanently unservable after a
     * core-loss fault. Kept up to date by markDead, the only call
     * that changes it.
     */
    unsigned longestPossibleRun() const { return _possible; }

    /** Release a previously allocated @p grant (asserts each slot
     * used and not dead). */
    void release(const RegionGrant &grant);

    /**
     * Permanently remove @p slot from the allocatable region
     * (core-loss fault, DESIGN.md §16). The slot must not be held
     * by a live allocation — the serving layer kills any batch
     * occupying a victim before marking it — and marking is
     * idempotent. Dead slots count as occupied forever: contiguous
     * runs re-coalesce *around* them, freeNodes() excludes them,
     * and release() of a dead slot asserts.
     */
    void markDead(unsigned slot);

  private:
    using Words = std::vector<uint64_t>;

    bool test(const Words &w, unsigned slot) const;

    /**
     * First slot at or after @p from whose bit equals @p set; at
     * least totalNodes() when there is none (the clear bits past
     * the last slot can be found).
     */
    unsigned scan(const Words &w, unsigned from, bool set) const;

    /** Longest run of clear bits in @p w. */
    unsigned longestRun(const Words &w) const;

    unsigned _n = 0;
    Words _used; ///< dead slots are used too
    Words _dead;
    unsigned _free = 0;
    unsigned _dead_count = 0;
    unsigned _possible = 0; ///< longestRun(_dead)
};

} // namespace maicc

#endif // MAICC_MAPPING_PLACEMENT_HH
