/**
 * @file
 * Many-core execution framework simulation (paper §4, §6.2-6.3).
 *
 * This is the paper's "overall evaluation" level of fidelity (§5):
 * nodes are modelled as computing-flow state machines whose
 * per-iteration costs come from the §4.1 intra-node model (the
 * cycle-accurate single-node pipeline is evaluated separately in
 * src/core), while the weight-stationary streaming, node-group
 * chaining, inter-layer pipelining, DRAM-fed data collection,
 * segment sequencing and filter-load phases are simulated
 * explicitly as timing recurrences over pixel-vector tokens with
 * single-buffer back-pressure between chained cores.
 *
 * The simulation is also *functional*: every output is the real
 * int8 dot product the mapped filter fragments and their merge
 * compute (one vectorised dot product per pixel and filter, equal
 * to any channel split by integer associativity; see
 * runtime/int8_dot.hh), and auxiliary functions
 * (ReLU / requantization / residual add / pooling) run exactly as
 * in nn/reference.hh — the final fmaps are compared bit-exactly
 * against the reference executor in the tests.
 *
 * The whole simulation runs on the calling thread (DESIGN.md §9
 * "Single host thread"); the paper's parallelism is the simulated
 * chip's, not the host's.
 */

#ifndef MAICC_RUNTIME_SYSTEM_HH
#define MAICC_RUNTIME_SYSTEM_HH

#include <vector>

#include "common/sim_component.hh"
#include "common/stats.hh"
#include "dram/dram.hh"
#include "energy/energy.hh"
#include "mapping/placement.hh"
#include "mapping/segmentation.hh"
#include "mem/llc.hh"
#include "nn/network.hh"
#include "nn/reference.hh"
#include "noc/noc.hh"

namespace maicc
{

/** System-level configuration. */
struct SystemConfig
{
    ArrayGeometry geometry;
    NocConfig noc;
    DramConfig dram;
    CacheConfig llc;
    unsigned coreBudget = 210;
    unsigned dramChannels = 32;

    /**
     * Core clock used to convert cycle counts into wall-clock
     * metrics (latency ms, requests/s). Timing itself is in
     * cycles; this knob only scales reported rates.
     */
    double clockHz = 1e9;

    /**
     * LRU capacity (entries) of the serving layer's timing-result
     * cache (runtime/sim_cache.hh): memoized service profiles keyed
     * by (network, placement shape, batch, config), replayed
     * instead of re-simulated. 0 disables memoization. This is a
     * *host-side* knob: results are bitwise
     * identical at any value (DESIGN.md §13), only the simulator's
     * own wall-clock changes. `--sim-cache=N` on every bench and
     * example sets it.
     */
    unsigned simCacheEntries = 0;

    /**
     * Fraction of the peak aggregate DRAM bandwidth the batched
     * filter-load phase sustains. Streaming row-major filter
     * blocks across 32 interleaved channels keeps every channel
     * busy but pays activates, refresh, and bus turnarounds, so
     * the phase is budgeted at a quarter of peak — the utilization
     * that reproduces the paper's Table 7 filter-load share.
     * Pinned by SystemConfigTest.FilterLoadBandwidthDefault.
     */
    static constexpr double filterLoadDramUtilization = 0.25;

    /**
     * Aggregate DRAM read bandwidth in bytes per cycle used for
     * the batched filter-load phase: peak streaming bandwidth
     * (channels x accessBytes / burst) derated to the sustained
     * utilization above. Defaults: 32 x 64 / 4 x 0.25 = 128.
     */
    double
    filterLoadBytesPerCycle() const
    {
        return double(dramChannels) * dram.accessBytes / dram.burst
            * filterLoadDramUtilization;
    }
};

/** Fig. 9: per-iteration cycle breakdown of one computing core. */
struct CoreBreakdown
{
    double compute = 0;
    double sendIfmap = 0;
    double sendOfmap = 0;
    double waitIfmap = 0;

    double
    total() const
    {
        return compute + sendIfmap + sendOfmap + waitIfmap;
    }
};

/** Timing result of one mapped layer. */
struct LayerRunStats
{
    size_t layerIdx = 0;
    Cycles firstInput = 0;  ///< first ifmap vector consumed
    Cycles lastOutput = 0;  ///< last ofmap pixel delivered
    NodeAllocation alloc;
    CoreBreakdown midCore;  ///< breakdown of the middle chain core
};

/** Timing result of one segment. */
struct SegmentRunStats
{
    Cycles start = 0;
    Cycles filterLoadDone = 0;
    Cycles end = 0;
    std::vector<LayerRunStats> layers;
};

/** Result of a full multi-segment inference. */
struct RunResult
{
    Cycles totalCycles = 0;
    std::vector<SegmentRunStats> segments;
    ActivityCounts activity;
    std::vector<Tensor3> layerOutputs; ///< one per network layer

    const Tensor3 &
    output() const
    {
        return layerOutputs.back();
    }

    double
    latencyMs(double freq_hz = 1e9) const
    {
        return totalCycles / freq_hz * 1e3;
    }

    /**
     * Steady-state multi-sample throughput (samples/s): with
     * consecutive inferences pipelined through the segment
     * sequence, the array re-admits a new sample every
     * max-segment-duration cycles (each segment re-uses its cores
     * as soon as the previous sample leaves it). Batch-1 latency
     * stays totalCycles; the paper reports 1/latency because it
     * evaluates batch 1 (§5).
     */
    double pipelinedThroughput(double freq_hz = 1e9) const;

    /** Dump activity and per-segment timing into a StatGroup. */
    void dumpStats(StatGroup &stats) const;
};

/**
 * The memoizable outcome of one `MaiccSystem::run` on a reset
 * system: everything a later identical run would (re)produce except
 * the functional tensors — total cycles, the per-segment/per-layer
 * timing breakdown, activity counts, the derived energy split, and
 * the stat-group deltas the run leaves behind (the system's own
 * stats plus its LLC child's). `captureCachedRun` fills one after a
 * run; `applyCachedRun` replays it onto a reset system so that a
 * later stats dump is byte-identical to one from a real run
 * (DESIGN.md §13, pinned by tests/runtime/test_sim_cache.cc).
 *
 * Functional outputs are deliberately *not* cached: tensors are the
 * bulk of a run's memory, and the serving layer (the cache's one
 * client) consumes timing only.
 */
struct CachedRun
{
    Cycles totalCycles = 0;
    std::vector<SegmentRunStats> segments; ///< per-layer breakdown
    ActivityCounts activity;
    EnergyBreakdown energy; ///< computeEnergy(activity)
    CacheStats llc;         ///< LLC hit/miss/writeback delta

    /** Post-run recordStats() snapshots, unqualified stat names. */
    StatGroup systemStats;
    StatGroup llcStats;
};

/**
 * The MAICC array running one network under one mapping plan.
 * Instantiate per network; run() may be called repeatedly (e.g.
 * by the multi-DNN driver) with independent inputs. reset()
 * restores the just-constructed state — the LLC filter model is
 * the only component that carries state between run() calls — so
 * a reset system reproduces a fresh one bitwise (pinned by
 * tests/runtime/test_reset.cc).
 */
class MaiccSystem : public SimComponent
{
  public:
    MaiccSystem(const Network &net,
                const std::vector<Weights4> &weights,
                SystemConfig cfg = SystemConfig{});

    /** Simulate one inference; @p start_at offsets all times. */
    RunResult run(const MappingPlan &plan, const Tensor3 &input,
                  Cycles start_at = 0);

    /** Discard all run-accumulated state (LLC contents included). */
    void reset() override;

    /** Publish run-count and accumulated activity into stats(). */
    void recordStats() override;

    /**
     * Snapshot the outcome of the run that produced @p rr (which
     * must be the only run since the last reset()) into a
     * replayable CachedRun for the timing-result cache.
     */
    CachedRun captureCachedRun(const RunResult &rr);

    /**
     * Replay a memoized run onto this (reset) system: bump the run
     * counters, fold in the cached activity and LLC stats, and
     * merge the stored stat deltas via StatGroup::mergeFrom, so
     * recordStats() and any --stats-json dump are byte-identical
     * to having executed the run. Timing state only — the LLC's
     * *contents* stay cold, which is unobservable because every
     * cache client reset()s before the next run.
     */
    void applyCachedRun(const CachedRun &run);

    const SystemConfig &config() const { return cfg; }

  protected:
    /** Attach the LLC filter model as "<name>.llc". */
    void onAttach() override;

  private:
    struct LayerTiming
    {
        /** Absolute time each output pixel is available to
         * consumers (row-major outH x outW). */
        std::vector<Cycles> pixelReady;
    };

    /** Simulate one layer's node group inside a segment. */
    LayerRunStats runLayer(const Segment &seg,
                           const SegmentPlacement &placement,
                           const LayerMapping &lm,
                           Cycles seg_start,
                           const Tensor3 &input, Addr input_addr,
                           const std::vector<Cycles> &input_ready,
                           LayerTiming &timing_out,
                           Tensor3 &output_out,
                           RunResult &result);

    /** Apply a pooling layer (runs on the consumer DC). */
    void runPool(size_t layer_idx, const Tensor3 &input,
                 const std::vector<Cycles> &input_ready,
                 LayerTiming &timing_out, Tensor3 &output_out);

    const Network &net;
    const std::vector<Weights4> &weights;
    SystemConfig cfg;
    SimpleCache llcModel;

    // Accumulated across run() calls for recordStats().
    uint64_t runsCompleted = 0;
    ActivityCounts totalActivity;
    Cycles lastRunCycles = 0;

    // Per-run state (run() resets these).
    std::vector<LayerTiming> residualTimings;
    Tensor3 resultInput;
};

} // namespace maicc

#endif // MAICC_RUNTIME_SYSTEM_HH
