/**
 * @file
 * Pluggable admission/scheduling policies for the request-driven
 * serving loop (serving.hh).
 *
 * The paper's multi-DNN claim is about *parallel* serving; real
 * inference stacks are judged by how their scheduler trades
 * latency, fairness, and SLO attainment under load. The serving
 * simulator therefore exposes the admission decision — "given the
 * waiting queue and the free-core budget, which request (if any)
 * starts next?" — as an AdmissionPolicy object. The event loop owns
 * everything else (region carving, batching, completion), so every
 * policy inherits the serving determinism contract for free: a
 * policy is a pure function of the queue snapshot it is handed, and
 * the snapshot is built from deterministic quantities.
 *
 * Built-in policies (SchedPolicy, `--policy=fifo|sjf|priority`):
 *
 *  - **fifo**: strict arrival order with head-of-line blocking —
 *    the request at the front is admitted as soon as its minimum
 *    node group fits; later requests never jump it.
 *  - **sjf**: shortest-job-first over the *fitting* queued
 *    requests, using the memoized per-(model, cores) service
 *    profiles (ServingSimulator::profile, optionally backed by the
 *    TimingResultCache, DESIGN.md §13) as cost estimates; ties
 *    break toward arrival order. Inherently work-conserving.
 *  - **priority**: lowest ServedModel::priorityClass first (class 0
 *    is the most urgent), arrival order within a class, with
 *    head-of-line blocking on the chosen class order.
 *
 * The `backfill` knob makes fifo and priority work-conserving: when
 * the blocked head does not fit, the first *fitting* request in the
 * policy's order is admitted instead ("EASY"-style backfill without
 * reservations — the head can be delayed by backfilled work).
 */

#ifndef MAICC_RUNTIME_ADMISSION_HH
#define MAICC_RUNTIME_ADMISSION_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace maicc
{

/** Which admission/scheduling policy the serving loop runs. */
enum class SchedPolicy
{
    Fifo,     ///< strict arrival order, head-of-line blocking
    Sjf,      ///< shortest estimated service time first
    Priority, ///< lowest priority class first, FIFO within a class
};

/**
 * Canonical flag spelling of @p p ("fifo", "sjf", "priority").
 * Inline so the config/CLI binding in maicc_common can use it
 * without linking against maicc_runtime.
 */
inline const char *
policyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::Fifo:
        return "fifo";
      case SchedPolicy::Sjf:
        return "sjf";
      case SchedPolicy::Priority:
        return "priority";
    }
    return "fifo";
}

/** Parse a policyName spelling; false (out untouched) otherwise. */
inline bool
parsePolicy(const std::string &s, SchedPolicy &out)
{
    if (s == "fifo") {
        out = SchedPolicy::Fifo;
    } else if (s == "sjf") {
        out = SchedPolicy::Sjf;
    } else if (s == "priority") {
        out = SchedPolicy::Priority;
    } else {
        return false;
    }
    return true;
}

/**
 * Which shard-selection policy the cross-chip dispatcher runs
 * (cluster.hh, `--shard-policy=`). Dispatch happens once, at
 * arrival time: the dispatcher picks among the shards that have the
 * request's model registered and waiting-room space, and the
 * request then lives on that shard until it completes. Like
 * AdmissionPolicy::pick, every selection rule is a pure function of
 * deterministic dispatcher state, so sharded runs keep the bitwise
 * determinism contract.
 */
enum class ShardPolicy
{
    RoundRobin,    ///< cyclic scan over eligible shards
    LeastLoaded,   ///< most free cores, then shortest queue
    ModelAffinity, ///< prefer shards that served the model before
};

/**
 * Canonical flag spelling of @p p ("round-robin", "least-loaded",
 * "model-affinity"). Inline for the same reason as policyName: the
 * config/CLI binding in maicc_common uses it without linking
 * against maicc_runtime.
 */
inline const char *
shardPolicyName(ShardPolicy p)
{
    switch (p) {
      case ShardPolicy::RoundRobin:
        return "round-robin";
      case ShardPolicy::LeastLoaded:
        return "least-loaded";
      case ShardPolicy::ModelAffinity:
        return "model-affinity";
    }
    return "round-robin";
}

/** Parse a shardPolicyName spelling; false (out untouched) else. */
inline bool
parseShardPolicy(const std::string &s, ShardPolicy &out)
{
    if (s == "round-robin") {
        out = ShardPolicy::RoundRobin;
    } else if (s == "least-loaded") {
        out = ShardPolicy::LeastLoaded;
    } else if (s == "model-affinity") {
        out = ShardPolicy::ModelAffinity;
    } else {
        return false;
    }
    return true;
}

/**
 * What a policy may look at about one queued request. Snapshots are
 * listed in queue (arrival) order, so an index into the snapshot is
 * also the request's queue position.
 */
struct QueuedRequest
{
    uint64_t id = 0;            ///< arrival order, 0-based
    size_t model = 0;           ///< registered model index
    Cycles arrival = 0;         ///< arrival cycle
    unsigned priorityClass = 0; ///< ServedModel::priorityClass
    unsigned minCores = 0;      ///< densest node group that serves it

    /**
     * Estimated isolated service latency at minCores — the SJF cost
     * metric. Filled only when the policy asks for it
     * (wantsCostEstimates); the densest-region estimate is used so
     * the ordering is stable and independent of the instantaneous
     * free-core count.
     */
    Cycles costEstimate = 0;
};

/**
 * The admission decision, pluggable. pick() must be a pure function
 * of its arguments (no hidden state, no randomness) — that is what
 * keeps fixed-seed serving runs bitwise identical from one
 * simulator to the next and lets run() be called repeatedly.
 */
class AdmissionPolicy
{
  public:
    /** pick()'s "admit nothing at this event" result. */
    static constexpr size_t npos =
        std::numeric_limits<size_t>::max();

    virtual ~AdmissionPolicy() = default;

    /** The policyName spelling (for tables and logs). */
    virtual const char *name() const = 0;

    /** True when QueuedRequest::costEstimate must be filled. */
    virtual bool wantsCostEstimates() const { return false; }

    /**
     * Queue position of the request to admit next, or npos when the
     * policy admits nothing at this event. A returned position must
     * fit: queue[pos].minCores <= freeCores (the caller asserts).
     * Strict (non-work-conserving) policies return npos when their
     * first choice does not fit, even if a later request would.
     */
    virtual size_t pick(const std::vector<QueuedRequest> &queue,
                        unsigned freeCores) const = 0;
};

/**
 * Build the policy object for @p kind. @p backfill makes fifo and
 * priority work-conserving (sjf already is; the knob is accepted
 * and ignored there).
 */
std::unique_ptr<AdmissionPolicy> makePolicy(SchedPolicy kind,
                                            bool backfill);

} // namespace maicc

#endif // MAICC_RUNTIME_ADMISSION_HH
