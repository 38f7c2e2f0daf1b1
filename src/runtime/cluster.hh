/**
 * @file
 * Multi-chip sharded serving: N independent MAICC chips behind one
 * cross-chip dispatcher (ROADMAP "sharding" scaling axis; the
 * paper's §8 multi-DNN outlook taken past a single 210-core mesh).
 *
 * A ClusterSimulator owns `ServingConfig::chips` shards. Each shard
 * is a full, independent chip: its own CoreLedger budget,
 * RegionAllocator serpentine, waiting queue, and admission policy —
 * a ShardEngine (shard.hh), driven by the one serving loop
 * (serving_loop.hh) a single chip runs too. Above the shards sits
 * the loop's dispatcher: at every arrival it picks one shard
 * (ShardPolicy, admission.hh) from those that have the model
 * registered (addModel's shard mask), could ever hold its minimum
 * group, and have waiting-room space, and the request lives there
 * until it completes. If no shard is eligible the arrival is
 * rejected — the cluster-level analogue of single-chip admission
 * control.
 *
 * Service profiles come from one shared profiler (an inner
 * ServingSimulator): the shards are identical hardware, so a
 * (model, cores) profile is shard-independent and is simulated at
 * most once per cluster run, TimingResultCache memoization
 * included.
 *
 * Determinism contract (pinned by tests/runtime/test_cluster.cc):
 *
 *  - fixed-seed cluster runs are bitwise identical from one
 *    simulator to the next and with the sim cache on or off —
 *    dispatch looks only at deterministic dispatcher state (never
 *    at cache occupancy: model-affinity warmth is tracked as "this
 *    shard dispatched this model before", which is seed-determined);
 *  - `--chips=1` is *byte-identical* in a --stats-json dump to the
 *    plain single-chip ServingSimulator path: attach() then
 *    registers only the inner simulator, under the legacy component
 *    name, and run() delegates to it outright.
 *
 * Event ordering across shards: completions before arrivals at
 * equal cycles (the single-chip tie-break, per shard), and
 * same-cycle completions on different shards retire in ascending
 * shard index — shards are independent after dispatch, so this
 * fixed order is a naming convention, not a coupling.
 *
 * Stats hierarchy (chips > 1): the cluster component carries the
 * aggregate (all ServingResult::dumpStats keys plus a `chips`
 * counter), with one child group per shard — `cluster.chip0` …
 * `cluster.chipN-1` — holding that shard's slice, and the shared
 * profiler under `cluster.profiler` (DESIGN.md §14).
 */

#ifndef MAICC_RUNTIME_CLUSTER_HH
#define MAICC_RUNTIME_CLUSTER_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "runtime/serving.hh"

namespace maicc
{

/** Outcome of one cluster run. */
struct ClusterResult
{
    /**
     * The cluster-wide view: every offered request (in arrival
     * order, RequestRecord::shard telling where each one ran),
     * aggregate percentiles/SLO attainment over all of them, the
     * merged used-core timeline, and utilization over chips ×
     * coreBudget.
     */
    ServingResult aggregate;

    /**
     * One slice per shard, ascending shard index: the shard's
     * dispatched requests, its own timeline and percentiles,
     * utilization over its own coreBudget. Every slice's endCycle
     * is the cluster-wide one (the shards share the clock).
     * Rejections belong to the dispatcher, not a shard, so they
     * appear only in the aggregate.
     */
    std::vector<ServingResult> shards;
};

/**
 * The sharded serving tier: ServingConfig::chips independent chip
 * shards behind a cross-chip dispatcher. See the file comment for
 * the model and the determinism contract. Register models (with an
 * optional shard mask), choose an arrival process, run(). Like
 * ServingSimulator, run() may be called repeatedly; each call
 * re-seeds from the config and starts every shard empty.
 */
class ClusterSimulator : public SimComponent
{
  public:
    explicit ClusterSimulator(ServingConfig cfg);

    /**
     * Register a model on the shards in @p shard_mask (bit i =
     * shard i; the default registers everywhere). The mask must
     * cover at least one of the configured chips. @return the
     * model index.
     */
    size_t addModel(ServedModel m, uint64_t shard_mask = ~0ull);

    /**
     * Load explicit arrivals for ArrivalProcess::Trace — the same
     * format ServingSimulator::loadTrace accepts. The cluster
     * serves the one coupled stream; dispatch spreads it over the
     * shards.
     */
    bool loadTrace(std::istream &in);
    bool loadTraceFile(const std::string &path);

    /** Simulate the whole request stream over every shard. */
    ClusterResult run();

    /** Drop cached profiling state; keep models and masks. */
    void reset() override;

    /** Forwarded to the shared profiler (serving.hh). */
    void setTimingCache(TimingResultCache *cache);

    /** The configured shard count (>= 1). */
    unsigned chips() const { return nChips; }

    /**
     * Register with @p ctx. With one chip this attaches *only* the
     * inner single-chip simulator, under @p single_name — the
     * legacy component layout, so a `--chips=1` stats dump is
     * byte-identical to the pre-cluster path. With more it attaches
     * the cluster under @p name with `chipK` and `profiler`
     * children (the file-comment hierarchy).
     */
    void attach(SimContext &ctx, const std::string &name = "cluster",
                const std::string &single_name = "serving");

  protected:
    /** Attaches the profiler and the per-shard stat groups. */
    void onAttach() override;

  private:
    void publishStats(const ClusterResult &out);

    ServingConfig cfg;
    unsigned nChips = 1;

    /**
     * The single-chip engine underneath: model registry, arrival
     * generation, and the shared (model, cores) profiler; with one
     * chip it also *is* the whole run() path.
     */
    ServingSimulator inner;

    std::vector<uint64_t> shardMasks; ///< per model, bit i = shard i

    /** Per-shard stat groups ("chip0" …), children of the cluster. */
    std::vector<std::unique_ptr<SimComponent>> chipStats;
};

} // namespace maicc

#endif // MAICC_RUNTIME_CLUSTER_HH
