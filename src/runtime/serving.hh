/**
 * @file
 * Request-driven multi-DNN serving simulation (paper §4.3 taken to
 * its production conclusion, and the §8 outlook: "the MIMD
 * execution mode supports parallel inference of multiple DNN
 * models, whose scheduling is future work").
 *
 * Where HostScheduler (host.hh) partitions the array once for a
 * fixed co-tenant set, the ServingSimulator drives the array with
 * an *open-loop arrival process*: inference requests over a mix of
 * registered models arrive at seeded-random (Poisson) or
 * trace-file times, are admitted online while their node group
 * fits the 210-core budget — in an order chosen by a pluggable
 * AdmissionPolicy (admission.hh: strict FIFO, shortest-job-first,
 * or priority classes, optionally with work-conserving backfill) —
 * and release their cores on completion. Same-model requests
 * waiting directly behind an admitted request can be batched into
 * its region and pipelined through the segment sequence, and
 * per-priority-class latency percentiles and SLO attainment are
 * reported alongside the global metrics.
 *
 * The event loop is a serial discrete-event simulation in integer
 * cycles; every per-request service time comes from the existing
 * functional+timing system (MaiccSystem::run under the request's
 * granted core budget), so a fixed seed produces bitwise-identical
 * results from one simulator to the next, with the sim cache on or
 * off (see DESIGN.md "Request-driven serving").
 */

#ifndef MAICC_RUNTIME_SERVING_HH
#define MAICC_RUNTIME_SERVING_HH

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "fault/fault_model.hh"
#include "runtime/admission.hh"
#include "runtime/system.hh"

namespace maicc
{

class FaultInjector;
class TimingResultCache;

/** Where request arrival times come from. */
enum class ArrivalProcess
{
    Poisson, ///< seeded exponential inter-arrival gaps
    Trace,   ///< explicit (cycle, model) pairs from a trace file
};

/** One model registered with the serving simulator. */
struct ServedModel
{
    std::string name;
    const Network *net = nullptr;
    const std::vector<Weights4> *weights = nullptr;
    const Tensor3 *input = nullptr;

    /** Relative share of the arrival mix (Poisson mode). */
    double mixWeight = 1.0;

    /**
     * Cores granted per admitted request: clamped up to the
     * model's minimum node group and down to what is free at
     * admission time. 0 means "minimum region".
     */
    unsigned preferredCores = 0;

    /**
     * Scheduling class under SchedPolicy::Priority (0 is the most
     * urgent) and the grouping key of the per-class latency/SLO
     * statistics. Ignored for ordering by the other policies, but
     * the per-class stats are always reported.
     */
    unsigned priorityClass = 0;
};

/** Serving-layer configuration. */
struct ServingConfig
{
    SystemConfig system; ///< clockHz, coreBudget, simCacheEntries, ...

    ArrivalProcess arrivals = ArrivalProcess::Poisson;
    uint64_t seed = 1;

    /**
     * Mean inter-arrival gap of the Poisson process, in cycles.
     * The offered load knob: smaller gap = heavier traffic. The
     * exponential variates are drawn from the seed and *scaled* by
     * this mean, so sweeping the load with a fixed seed moves every
     * arrival monotonically — the property the latency-vs-load
     * acceptance test relies on.
     */
    Cycles meanInterarrival = 500'000;

    /** Requests offered in Poisson mode. */
    unsigned offeredRequests = 32;

    /**
     * Expected span of the Poisson stream in cycles: the random
     * fault schedule's horizon when faults.window is 0.
     */
    Cycles
    arrivalSpan() const
    {
        return Cycles(offeredRequests) * meanInterarrival;
    }

    /** Arrivals at or past this cycle are cut off (0 = no cutoff). */
    Cycles horizon = 0;

    /**
     * Waiting-room capacity: an arrival finding this many requests
     * already queued is rejected (admission control). Running
     * requests do not count.
     */
    unsigned queueCapacity = 64;

    /**
     * Same-model batching: when a request is admitted, up to
     * maxBatch-1 further queued requests of the same model join its
     * region and pipeline through the segment sequence (one new
     * sample per bottleneck-segment interval). 1 disables batching.
     *
     * Only the *contiguous* same-model run starting at the
     * admitted request joins the batch, so batching can never
     * reorder completions against arrival order (the FIFO
     * contract).
     */
    unsigned maxBatch = 1;

    /** Admission order (`--policy=fifo|sjf|priority`). */
    SchedPolicy policy = SchedPolicy::Fifo;

    /**
     * Work-conserving backfill: when the policy's first choice does
     * not fit the free cores, admit the first request in policy
     * order that does (admission.hh). Off = strict head-of-line
     * blocking for fifo/priority.
     */
    bool backfill = false;

    /**
     * Per-request latency SLO in cycles (`--slo-cycles=N`); 0
     * disables SLO accounting. An offered request *attains* the SLO
     * iff it completes within sloCycles of its arrival — late,
     * rejected, and still-pending requests all count as misses, so
     * attainment is honest about admission control and cutoffs.
     */
    Cycles sloCycles = 0;

    /**
     * Stop simulating at this cycle even if requests are still
     * queued or in flight (0 = drain everything). Unfinished
     * requests are reported as pending.
     */
    Cycles cutoff = 0;

    /**
     * Assert the CoreLedger/RegionAllocator lock-step and the
     * core-budget bound at every event (test/debug aid; the
     * randomized serving property suite runs with this on).
     */
    bool selfCheck = false;

    /**
     * Chip shards in the serving tier (`--chips=N`, cluster.hh).
     * 1 — the default — is the single-chip ServingSimulator path;
     * N > 1 runs N independent (MaiccSystem, CoreLedger,
     * RegionAllocator) shards behind a cross-chip dispatcher. Lives
     * here rather than in SystemConfig so the cluster width can
     * never fragment the TimingResultCache key (which serializes
     * the SystemConfig subtree).
     */
    unsigned chips = 1;

    /** Cross-chip dispatch rule (`--shard-policy=`, cluster.hh). */
    ShardPolicy shardPolicy = ShardPolicy::RoundRobin;

    // ------------------------------------------------------------
    // Fault injection and recovery (DESIGN.md §16). With every
    // default, the serving loop schedules no fault, timeout or
    // retry event, and the stats dump has no availability keys.
    // ------------------------------------------------------------

    /** Fault schedule (`--faults=FILE`, `--fault-seed/-rate`). */
    FaultConfig faults;

    /**
     * Queueing timeout (`--timeout-cycles=N`): a request still
     * *waiting* this many cycles after being queued is pulled out
     * and retried (bounded by maxRetries, spaced by backoff).
     * 0 disables timeouts. Requests already admitted to a region
     * are never interrupted by a timeout.
     */
    Cycles timeoutCycles = 0;

    /**
     * Retry budget per request (`--max-retries=N`): timeouts and
     * failed re-dispatches beyond this drop the request as
     * timed-out. Failover off a faulted shard does not consume
     * budget — the request did nothing wrong.
     */
    unsigned maxRetries = 3;

    /**
     * Base of the exponential retry backoff
     * (`--backoff-cycles=N`): retry k waits
     * backoffCycles * 2^(k-1) cycles. 0 retries immediately.
     */
    Cycles backoffCycles = 0;

    /**
     * Overload shedding (`--shed-queue-depth=N`): a fresh arrival
     * finding at least this many requests queued across all shards
     * is shed outright instead of dispatched. 0 disables shedding.
     * Sheds only fresh arrivals — retries and failovers of
     * already-accepted requests are never shed.
     */
    unsigned shedQueueDepth = 0;
};

/**
 * True when @p cfg asks for any recovery semantics (faults,
 * timeouts or shedding). It only selects the stats-dump schema:
 * it becomes ServingResult::recovery, which adds the availability
 * keys. Every run takes the same loop (runtime/serving_loop.hh).
 */
inline bool
recoveryActive(const ServingConfig &cfg)
{
    return cfg.faults.active() || cfg.timeoutCycles != 0
        || cfg.shedQueueDepth != 0;
}

/** Life of one request, all times in cycles. */
struct RequestRecord
{
    uint64_t id = 0;     ///< arrival order, 0-based
    size_t model = 0;    ///< index into registered models
    unsigned priorityClass = 0; ///< the model's scheduling class
    Cycles arrival = 0;
    Cycles start = 0;    ///< admission (cores granted)
    Cycles finish = 0;   ///< output delivered
    unsigned cores = 0;  ///< region size it ran in
    unsigned batchSize = 1; ///< size of the batch it was served in

    /**
     * Chip shard the request was dispatched to (cluster.hh).
     * Always 0 on the single-chip path; meaningless for rejected
     * requests (a cluster rejection means no shard took it).
     */
    unsigned shard = 0;
    bool rejected = false;
    bool completed = false;

    /** Timeout-driven retries consumed (recovery runs only). */
    unsigned retries = 0;

    /** Dropped by overload shedding (never dispatched). */
    bool shed = false;

    /** Dropped after exhausting the retry budget. */
    bool timedOut = false;

    Cycles queueing() const { return start - arrival; }
    Cycles latency() const { return finish - arrival; }
};

/** One point of the core-utilization time series. */
struct UtilizationSample
{
    Cycles cycle = 0;
    unsigned usedCores = 0;
};

/**
 * Latency profile of one model in one region size: the memoized
 * outcome of one isolated inference probe (ServingSimulator::
 * profile), shared by the serving loop, the SJF cost
 * estimates, and every shard of a cluster (identical hardware per
 * shard means the profile is shard-independent).
 */
struct ServiceProfile
{
    Cycles latency = 0;  ///< one isolated inference
    Cycles interval = 0; ///< pipelined batch re-admission gap
};

/** One request arrival: when, and which registered model. */
struct ServingArrival
{
    Cycles cycle = 0;
    size_t model = 0;
};

/** Per-priority-class slice of a serving run's outcome. */
struct ClassResult
{
    unsigned priorityClass = 0;
    uint64_t offered = 0;
    uint64_t completed = 0;

    /** Completed-request latency percentiles, in cycles. */
    double p50 = 0, p95 = 0, p99 = 0;
    double meanLatency = 0;

    /**
     * SLO attainment (ServingConfig::sloCycles > 0): met counts
     * completions within the SLO; every other offered request of
     * the class — late, rejected, pending at cutoff — is a miss.
     * Both stay 0 when SLO accounting is disabled.
     */
    uint64_t sloMet = 0;
    uint64_t sloMissed = 0;

    /** Attained fraction of offered requests ([0,1]; 0 if none). */
    double sloAttainment() const
    {
        uint64_t n = sloMet + sloMissed;
        return n ? double(sloMet) / double(n) : 0.0;
    }
};

/** Outcome of one serving run. */
struct ServingResult
{
    std::vector<RequestRecord> requests; ///< in arrival order

    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t pending = 0; ///< queued or in flight at cutoff

    /**
     * recoveryActive() held for this run (DESIGN.md §16). Gates
     * the availability counters below in dumpStats, so a
     * fault-free run's stats dump has none of their keys.
     */
    bool recovery = false;

    uint64_t shed = 0;     ///< dropped by overload shedding
    uint64_t timedOut = 0; ///< dropped after the retry budget
    uint64_t retries = 0;  ///< total timeout-driven retries
    uint64_t failovers = 0; ///< displaced requests re-dispatched

    /** Fault events actually applied, per class (no-ops on an
     * already-dead shard are not counted). */
    uint64_t faultChipFailStop = 0;
    uint64_t faultCoreLoss = 0;
    uint64_t faultDramOutage = 0;
    uint64_t faultNocDegrade = 0;

    /**
     * The cycle throughput and utilization are measured over: the
     * last event (completion) cycle when the run drains, the
     * cutoff when it is truncated by one. Never inflated to an
     * unreached cutoff — an early-drained run reports its real
     * makespan.
     */
    Cycles endCycle = 0;

    /** The SLO the classes were scored against (0 = disabled). */
    Cycles sloCycles = 0;

    /** Global SLO counters (sums of the per-class ones). */
    uint64_t sloMet = 0;
    uint64_t sloMissed = 0;

    /**
     * Per-priority-class latency percentiles and SLO attainment,
     * ascending by class, one entry per class with >= 1 offered
     * request.
     */
    std::vector<ClassResult> classes;

    /**
     * Smallest isolated service latency over every (model, cores)
     * region actually used — the floor under every percentile.
     */
    Cycles minServiceLatency = 0;

    /** Completed-request latency percentiles, in cycles. */
    double p50 = 0, p95 = 0, p99 = 0;
    double meanLatency = 0;
    double meanQueueing = 0;

    /** Time-weighted used-core fraction over [0, endCycle]. */
    double utilization = 0;

    /** Used cores after every admission/completion event. */
    std::vector<UtilizationSample> coreTimeline;

    /** Completed requests per second at @p freq_hz. */
    double throughput(double freq_hz = 1e9) const;

    /**
     * Record counts, percentiles, utilization, and the per-request
     * latency histogram into @p stats under unqualified names
     * (the group's prefix supplies the qualification).
     */
    void dumpStats(StatGroup &stats) const;
};

/**
 * Classify and summarize a finished event loop: derive every
 * request's completed/pending status against @p res .endCycle,
 * accumulate the global and per-class counters, latency
 * percentiles, SLO attainment against @p slo_cycles, and the
 * time-weighted utilization of @p total_cores over
 * @p res .coreTimeline. Expects @p res with requests, offered,
 * rejected, endCycle, minServiceLatency, and coreTimeline already
 * filled; the serving loop (serving_loop.hh) runs it on the
 * aggregate and on every per-shard slice, so every tier
 * summarizes with identical arithmetic.
 */
void finalizeServingResult(ServingResult &res, Cycles slo_cycles,
                           unsigned total_cores);

/**
 * Append one trace::ServingRecord per request of @p res to
 * @p sink, mapping each RequestRecord to its final disposition.
 * Call after finalizeServingResult (completed flags must be
 * derived); the records feed the request-conservation and
 * request-causality rules (check/invariants.hh, `check_trace`).
 */
void appendServingTrace(const ServingResult &res,
                        trace::TraceSink &sink);

/**
 * The request-driven serving simulator. Register models, choose an
 * arrival process, run(). run() may be called repeatedly; each call
 * re-seeds from the config and starts from an empty array.
 *
 * Service profiling reuses one cached MaiccSystem per model across
 * every (model, cores) probe and every run() — reset() between
 * probes restores the just-constructed state, so the profile is
 * bitwise identical to one from a fresh system (pinned by
 * tests/runtime/test_reset.cc) without paying LLC construction per
 * probe.
 */
class ServingSimulator : public SimComponent
{
  public:
    explicit ServingSimulator(ServingConfig cfg);

    /** Out-of-line: the FaultInjector is incomplete here. */
    ~ServingSimulator() override;

    /** Register a model; @return its model index. */
    size_t addModel(ServedModel m);

    /**
     * Load explicit arrivals for ArrivalProcess::Trace. Each line
     * is `<cycle> <model-name>`, the cycle unsigned decimal digits
     * that fit in Cycles; '#' starts a comment. Arrivals must be
     * sorted by cycle. @return false on parse failure (a sign,
     * a third token, an out-of-range cycle, an unknown model).
     */
    bool loadTrace(std::istream &in);
    bool loadTraceFile(const std::string &path);

    /** Simulate the whole request stream. */
    ServingResult run();

    /** Drop cached systems and service profiles; keep the models. */
    void reset() override;

    /**
     * Memoize profiles in @p cache instead of the process-wide
     * TimingResultCache::global(); nullptr restores the global.
     * Either way the cache is consulted only when
     * cfg.system.simCacheEntries > 0 (DESIGN.md §13). Meant for
     * tests that need an isolated cache to observe counters on.
     */
    void setTimingCache(TimingResultCache *cache);

    /**
     * The (model, cores) service profile, simulating one isolated
     * inference on first sight and memoizing it (optionally through
     * the TimingResultCache). Public so a ClusterSimulator can
     * drive every shard from one shared profiler — the shards are
     * identical hardware, so the profile is shard-independent.
     */
    const ServiceProfile &profile(size_t model, unsigned cores);

    /** Registered models, in registration order. */
    const std::vector<ServedModel> &servedModels() const
    {
        return models;
    }

    /** Minimum node group per model, parallel to servedModels(). */
    const std::vector<unsigned> &minCoresTable() const
    {
        return minCoresCache;
    }

    /**
     * The arrival stream run() would serve: the seeded Poisson
     * draw, or the loaded trace, horizon applied. Deterministic for
     * a fixed config, so the cluster dispatcher replays the exact
     * stream a single chip would see.
     */
    std::vector<ServingArrival> arrivals() const
    {
        return generateArrivals();
    }

    /**
     * The fault schedule resolved from cfg.faults; nullptr when
     * faults are inactive (the injector then does not exist, so a
     * fault-free stats dump carries no extra component). The
     * cluster tier drives every shard from this one injector.
     */
    FaultInjector *faultInjector() { return injector.get(); }

  protected:
    /** Attaches the fault injector (when one exists). */
    void onAttach() override;

  private:
    std::vector<ServingArrival> generateArrivals() const;

    /** The cached (lazily built) profiling system for @p model. */
    MaiccSystem &systemFor(size_t model);

    /** Derive latency/interval from a run's timing breakdown. */
    static ServiceProfile
    profileFrom(Cycles total,
                const std::vector<SegmentRunStats> &segments);

    /**
     * The timing-result cache to consult, with its capacity synced
     * to cfg.system.simCacheEntries — nullptr when memoization is
     * disabled (simCacheEntries == 0).
     */
    TimingResultCache *timingCache();

    ServingConfig cfg;
    std::unique_ptr<FaultInjector> injector; ///< null = no faults
    TimingResultCache *injectedCache = nullptr;
    std::vector<ServedModel> models;
    std::vector<ServingArrival> traceArrivals;
    std::vector<unsigned> minCoresCache;
    std::map<std::pair<size_t, unsigned>, ServiceProfile> profiles;
    /** One profiling system per model, reset() between probes. */
    std::map<size_t, std::unique_ptr<MaiccSystem>> systems;
};

} // namespace maicc

#endif // MAICC_RUNTIME_SERVING_HH
