/**
 * @file
 * The per-chip serving engine: one chip shard's event-loop state.
 *
 * A chip's serving state is one independent (CoreLedger,
 * RegionAllocator, waiting queue, running set) with admission
 * policies, contiguous region carving, batching, and self-checked
 * ledger/region lock-step. The serving loop (serving_loop.hh)
 * drives one ShardEngine per chip behind its cross-chip
 * dispatcher; a single chip is the 1-shard case.
 *
 * A ShardEngine does not own request records or service profiles:
 * it mutates the shared per-run RequestRecord vector (each record
 * belongs to exactly one shard once dispatched) and pulls profiles
 * through a caller-supplied functor — in a cluster, every shard
 * shares one profiler, because the shards are identical hardware.
 */

#ifndef MAICC_RUNTIME_SHARD_HH
#define MAICC_RUNTIME_SHARD_HH

#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "mapping/allocation.hh"
#include "mapping/placement.hh"
#include "runtime/serving.hh"

namespace maicc
{

/**
 * One chip shard's discrete-event serving state and transitions.
 * The caller owns event *ordering* (which shard's completion or
 * which arrival happens next); the engine owns everything below
 * that: the waiting queue, policy-driven admission, contiguous
 * region carving, batching, and completion bookkeeping.
 */
class ShardEngine
{
  public:
    /** "No pending completion" sentinel for nextFinish(). */
    static constexpr Cycles kNever =
        std::numeric_limits<Cycles>::max();

    /**
     * Service-profile source: (model index, granted cores) → the
     * memoized profile. The reference stays valid for the duration
     * of the call that consumes it.
     */
    using ProfileFn =
        std::function<const ServiceProfile &(size_t, unsigned)>;

    /**
     * Build the shard from the run's @p cfg (budget, geometry,
     * policy, batching, selfCheck), the registered @p models and
     * their @p min_cores table, the run-wide @p requests vector the
     * engine annotates in place, and the @p profile source.
     * @p shard_index is stamped into every dispatched record.
     */
    ShardEngine(const ServingConfig &cfg,
                const std::vector<ServedModel> &models,
                const std::vector<unsigned> &min_cores,
                std::vector<RequestRecord> &requests,
                ProfileFn profile, unsigned shard_index);

    /** Earliest running batch's finish cycle, or kNever. */
    Cycles nextFinish() const
    {
        return running.empty() ? kNever : running.top().finish;
    }

    /** True when nothing is running (the queue is then empty too:
     * the dispatcher queues only what canServe() accepts, and an
     * idle shard admits any such request). */
    bool idle() const { return running.empty(); }

    /** True when an arrival would be rejected (waiting room full). */
    bool queueFull() const
    {
        return queue.size() >= cfg.queueCapacity;
    }

    /** Requests waiting for admission (running ones excluded). */
    size_t queueDepth() const { return queue.size(); }

    /** Cores not held by running batches (dispatcher load metric). */
    unsigned freeCores() const { return ledger.freeCores(); }

    /**
     * Dispatch request @p id to this shard: stamps the record's
     * shard index and queues it. Returns false — rejection — when
     * the waiting room is full (the caller books the rejection).
     * Callers run tryAdmit() at the same event.
     */
    bool enqueue(uint64_t id);

    /**
     * Retire the earliest-finishing batch at @p now (its cores and
     * slots coalesce back). Caller must have checked nextFinish().
     */
    void complete(Cycles now);

    /**
     * Admit from the waiting queue until the policy yields nothing
     * admissible: skip the policy when no queued request's minimum
     * group fits the free cores (no policy admits then), else let
     * it pick from the queue, carve a contiguous region (degrading
     * to the minimum region under fragmentation), collect the
     * same-model batch, and schedule its completion from the
     * service profile. Asserts the ledger/region lock-step
     * afterwards when cfg.selfCheck is on.
     */
    void tryAdmit(Cycles now);

    /**
     * The used-cores time series recorded so far — one sample after
     * every admission/completion, starting at {0, 0}. Move it out
     * once the run is over.
     */
    std::vector<UtilizationSample> takeTimeline()
    {
        return std::move(timeline);
    }

    /**
     * Smallest isolated service latency over every (model, cores)
     * profile this shard admitted with; 0 when nothing was
     * admitted.
     */
    Cycles minServiceLatencySeen() const
    {
        return minService == kNever ? 0 : minService;
    }

    // ------------------------------------------------------------
    // Liveness and fault transitions (DESIGN.md §16). The
    // dispatcher asks canServe() at every dispatch; the
    // transitions run only on fault and timeout events, which a
    // fault-free run never schedules.
    // ------------------------------------------------------------

    /** True after a chip-fail-stop killed this shard. */
    bool dead() const { return isDead; }

    /**
     * True when a request needing @p min_cores can ever be served
     * here again: the shard is alive, the budget covers it, and a
     * contiguous non-dead run that long still exists.
     */
    bool
    canServe(unsigned min_cores) const
    {
        return !isDead && min_cores <= ledger.total()
            && min_cores <= region.longestPossibleRun();
    }

    /**
     * Chip fail-stop at @p now: every running batch is killed and
     * every queued request displaced; cores and slots are retired
     * permanently and the shard reports dead() from here on. The
     * returned ids (ascending) are the displaced requests the
     * dispatcher must fail over to surviving shards.
     */
    std::vector<uint64_t> failStop(Cycles now);

    /**
     * Permanently lose @p count cores at @p now (clamped to the
     * slots still alive): the highest-index live serpentine slots
     * die, batches occupying a victim are killed (their members
     * are displaced), the region re-coalesces around the dead
     * slots, and the core budget shrinks. Queued requests whose
     * minimum region no longer fits any possible run are displaced
     * too. Returns the displaced ids, ascending.
     */
    std::vector<uint64_t> loseCores(unsigned count, Cycles now);

    /**
     * Open a transient service-time slowdown window [from, until):
     * admissions inside it scale the service profile by @p factor
     * (DRAM outage, NoC degradation). Windows stack
     * multiplicatively.
     */
    void pushSlowdown(Cycles from, Cycles until, double factor);

    /** Remove request @p id from the waiting queue (timeout /
     * shed). False when it is not queued here. */
    bool removeQueued(uint64_t id);

  private:
    /** One admitted batch occupying a region until its last
     * request finishes. */
    struct Running
    {
        Cycles finish = 0;    ///< last batch member's finish
        uint64_t firstId = 0; ///< deterministic tie-break
        unsigned cores = 0;
        RegionGrant grant;
        std::vector<uint64_t> members; ///< batch request ids

        bool
        operator>(const Running &o) const
        {
            return finish != o.finish ? finish > o.finish
                                      : firstId > o.firstId;
        }
    };

    /** One active slowdown window (see pushSlowdown). */
    struct Slowdown
    {
        Cycles from = 0;
        Cycles until = 0;
        double factor = 1.0;
    };

    /** Product of the windows covering @p now (1.0 when none). */
    double slowdownAt(Cycles now) const;

    /** True when some queued request's minimum group fits the free
     * budget — the only case in which any policy admits. */
    bool anyQueuedFits() const;

    /** Take the request at @p it off the waiting queue. */
    std::vector<QueuedRequest>::iterator
    dequeue(std::vector<QueuedRequest>::iterator it);

    void checkInvariants() const;

    const ServingConfig &cfg;
    const std::vector<ServedModel> &models;
    const std::vector<unsigned> &minCores;
    std::vector<RequestRecord> &requests;
    ProfileFn profileFn;
    unsigned shardIndex = 0;

    CoreLedger ledger;
    RegionAllocator region;
    std::vector<QueuedRequest> queue;     ///< in queue order
    std::vector<unsigned> queuedPerModel; ///< queue, counted by model
    std::priority_queue<Running, std::vector<Running>,
                        std::greater<Running>>
        running;
    std::unique_ptr<AdmissionPolicy> policy;
    unsigned coresInFlight = 0;
    std::vector<UtilizationSample> timeline;
    Cycles minService = kNever;

    // Fault state — all of it stays at the defaults in a
    // fault-free run.
    bool isDead = false;
    std::vector<Slowdown> slowdowns;
};

} // namespace maicc

#endif // MAICC_RUNTIME_SHARD_HH
