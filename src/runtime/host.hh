/**
 * @file
 * Host-CPU resource management and multi-DNN scheduling (paper
 * §3.1: "the host multi-core CPU ... is responsible for resource
 * management and task allocation of the many-core array"; §8: the
 * MIMD execution mode supports parallel inference of multiple DNN
 * models, whose scheduling is the paper's stated future work).
 *
 * The HostScheduler partitions the 210-core array into regions,
 * admits inference requests per model, and simulates steady-state
 * operation: each region runs its model back-to-back (MIMD — no
 * cross-region synchronization), so per-model latency and
 * aggregate throughput follow directly. A greedy partitioner
 * assigns each admitted model the smallest region that fits its
 * densest mapping, then grows the busiest region while cores
 * remain (the same min-max idea as Eq. (1), one level up).
 */

#ifndef MAICC_RUNTIME_HOST_HH
#define MAICC_RUNTIME_HOST_HH

#include <string>
#include <vector>

#include "runtime/system.hh"

namespace maicc
{

/** One model registered with the host. */
struct ModelTask
{
    std::string name;
    const Network *net = nullptr;
    const std::vector<Weights4> *weights = nullptr;
    const Tensor3 *input = nullptr;
    /** Relative request rate (for throughput weighting). */
    double demand = 1.0;
};

/** Placement decision for one model. */
struct RegionAssignment
{
    size_t taskIdx = 0;
    unsigned cores = 0;       ///< region size
    MappingPlan plan;
    double latencyMs = 0.0;   ///< one inference in this region
    double throughput = 0.0;  ///< inferences/s, region saturated
};

/** Outcome of a host scheduling decision + simulation. */
struct HostScheduleResult
{
    std::vector<RegionAssignment> regions;
    std::vector<size_t> rejected; ///< tasks that do not fit
    double aggregateThroughput = 0.0;

    unsigned
    coresUsed() const
    {
        unsigned total = 0;
        for (const auto &r : regions)
            total += r.cores;
        return total;
    }
};

/**
 * The host's admission + partitioning policy over one array of
 * @p array_cores compute cores, each region simulated under @p cfg.
 */
class HostScheduler
{
  public:
    explicit HostScheduler(unsigned array_cores = 210,
                           SystemConfig cfg = SystemConfig{})
        : arrayCores(array_cores), cfg(cfg)
    {
    }

    /** Register a model; @return its task index. */
    size_t addTask(ModelTask task);

    /** Minimum cores a model needs (densest packing, max layer). */
    static unsigned minCores(const Network &net);

    /**
     * Partition the array and simulate every admitted model once.
     * Models are admitted in registration order while their
     * minimum region fits; leftover cores go to the region with
     * the worst demand-weighted latency.
     */
    HostScheduleResult schedule();

  private:
    unsigned arrayCores;
    SystemConfig cfg;
    std::vector<ModelTask> tasks;
};

} // namespace maicc

#endif // MAICC_RUNTIME_HOST_HH
