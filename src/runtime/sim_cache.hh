/**
 * @file
 * Memoizing timing-result cache for the serving loop (DESIGN.md
 * §13).
 *
 * ServingSimulator::profile() simulates one isolated inference per
 * (model, region size) pair through the full functional+timing
 * MaiccSystem — by far the dominant cost of a serving sweep, and a
 * pure function of (network, placement shape, batch, SystemConfig).
 * The TimingResultCache memoizes that function *across* simulator
 * instances: a sweep that builds a fresh ServingSimulator per load
 * point re-derives identical profiles at every point, and with the
 * cache enabled only the first point pays for the simulation. The
 * shortest-job-first admission policy (runtime/admission.hh) rides
 * on the same memoization: its per-request cost estimate is the
 * (model, minCores) profile latency, so under `--policy=sjf` a
 * warm cache also makes the *scheduling* decision cheap, not just
 * the service-time probe.
 *
 * Correctness contract: a cache hit replays the memoized outcome
 * via MaiccSystem::applyCachedRun, restoring the run counters,
 * activity, LLC stat deltas, and StatGroup contents the real run
 * would have produced — so a fixed-seed serving run is *bitwise
 * identical* (every ServingResult field and every byte of a
 * --stats-json dump) with the cache on or off. Pinned by
 * tests/runtime/test_sim_cache.cc.
 *
 * The cache itself is a SimComponent ("simCache") with hit / miss /
 * insertion / eviction counters, but it is host-side machinery, not
 * simulated-machine state: it is deliberately left *detached* from
 * the serving run's SimContext so that enabling it cannot perturb
 * the stats dump it promises to preserve. Benchmarks report its
 * counters textually instead.
 *
 * Capacity comes from SystemConfig::simCacheEntries
 * (`--sim-cache=N` on every binary; 0 = off); eviction is LRU.
 */

#ifndef MAICC_RUNTIME_SIM_CACHE_HH
#define MAICC_RUNTIME_SIM_CACHE_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/sim_component.hh"
#include "mapping/segmentation.hh"
#include "nn/network.hh"
#include "runtime/system.hh"

namespace maicc
{

/**
 * Canonical identity of one memoized run. `material` is a
 * deterministic byte string concatenating every input the simulated
 * timing depends on (see makeTimingKey); `hash` is its FNV-1a 64
 * digest. Lookup compares the full material, so hash collisions can
 * never alias two different configurations.
 */
struct TimingKey
{
    uint64_t hash = 0;
    std::string material;

    bool
    operator==(const TimingKey &o) const
    {
        return hash == o.hash && material == o.material;
    }
};

/**
 * Build the cache key for one profile probe: @p net 's structural
 * signature (every LayerSpec field), @p plan 's allocation shape
 * (strategy, budget, per-layer NodeAllocation) plus the canonical
 * placement shape of every segment (placementSignature over
 * placeSegment — shape, not physical slots, because hop latency is
 * per-edge), the serving @p batch size, and the @p sys subtree's
 * canonical JSON dump with the host-side simCacheEntries pinned
 * to 0 — it changes the simulator's wall-clock, never its results,
 * so it must not fragment the key space.
 *
 * @p fault_sig is the canonical fault-configuration signature
 * (faultSignature, fault_model.hh): empty — the default, and what
 * every fault-free caller passes — leaves the material byte-for-
 * byte what it was before fault injection existed, so warm caches
 * keep hitting; non-empty marks profiles probed under an active
 * fault schedule so they can never replay into a run with a
 * different (or no) degradation topology.
 */
TimingKey makeTimingKey(const Network &net, const MappingPlan &plan,
                        unsigned batch, const SystemConfig &sys,
                        const std::string &fault_sig = "");

/**
 * LRU cache of TimingKey → CachedRun. See the file comment for the
 * determinism contract. Not thread-safe: the serving event loop and
 * everything below it run on one thread.
 */
class TimingResultCache : public SimComponent
{
  public:
    explicit TimingResultCache(unsigned capacity = 0);

    /**
     * The process-wide instance every ServingSimulator uses unless
     * a test injects its own (ServingSimulator::setTimingCache).
     * Global on purpose: sweeps build a new simulator per load
     * point, so per-instance memoization would never cross points.
     */
    static TimingResultCache &global();

    /**
     * Set the LRU capacity in entries, evicting (and counting) the
     * least recent overflow immediately. 0 empties the cache and
     * makes insert() a no-op.
     */
    void setCapacity(unsigned entries);
    unsigned capacity() const { return cap; }

    /**
     * Find @p key; bumps the entry to most-recent and counts a hit,
     * or counts a miss and returns nullptr. The pointer is valid
     * until the next insert()/setCapacity()/clear()/reset().
     */
    const CachedRun *lookup(const TimingKey &key);

    /**
     * Memoize @p run under @p key (replacing any existing entry),
     * then evict down to capacity. No-op at capacity 0.
     */
    void insert(const TimingKey &key, CachedRun run);

    /** Drop every entry (counters keep accumulating). */
    void clear();

    /** Drop every entry and zero the counters. */
    void reset() override;

    /** Publish hits/misses/insertions/evictions/entries. */
    void recordStats() override;

    size_t size() const { return lru.size(); }
    uint64_t hits() const { return nHits; }
    uint64_t misses() const { return nMisses; }
    uint64_t insertions() const { return nInsertions; }
    uint64_t evictions() const { return nEvictions; }

  private:
    struct Entry
    {
        TimingKey key;
        CachedRun run;
    };

    std::list<Entry> lru; ///< front = most recent
    /** Full key material → entry; the material *is* the identity. */
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    unsigned cap = 0;

    uint64_t nHits = 0;
    uint64_t nMisses = 0;
    uint64_t nInsertions = 0;
    uint64_t nEvictions = 0;
};

} // namespace maicc

#endif // MAICC_RUNTIME_SIM_CACHE_HH
