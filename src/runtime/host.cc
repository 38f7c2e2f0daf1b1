#include "runtime/host.hh"

#include <algorithm>

#include "common/logging.hh"

namespace maicc
{

size_t
HostScheduler::addTask(ModelTask task)
{
    maicc_assert(task.net && task.weights && task.input);
    maicc_assert(task.demand > 0.0);
    tasks.push_back(std::move(task));
    return tasks.size() - 1;
}

unsigned
HostScheduler::minCores(const Network &net)
{
    unsigned worst = 0;
    for (size_t li : net.computeLayers()) {
        worst = std::max(worst,
                         minAllocation(net.layer(li)).totalCores());
    }
    return worst;
}

namespace
{

double
simulateLatencyMs(const ModelTask &task, unsigned cores)
{
    MaiccSystem sys(*task.net, *task.weights);
    MappingPlan plan =
        planMapping(*task.net, Strategy::Heuristic, cores);
    return sys.run(plan, *task.input).latencyMs();
}

} // namespace

HostScheduleResult
HostScheduler::schedule()
{
    HostScheduleResult result;
    unsigned free_cores = arrayCores;

    // Admission: registration order, minimum regions first.
    std::vector<unsigned> region(tasks.size(), 0);
    for (size_t i = 0; i < tasks.size(); ++i) {
        unsigned need = minCores(*tasks[i].net);
        if (need <= free_cores) {
            region[i] = need;
            free_cores -= need;
        } else {
            result.rejected.push_back(i);
        }
    }

    // Initial per-region simulation.
    std::vector<double> latency(tasks.size(), 0.0);
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (region[i])
            latency[i] = simulateLatencyMs(tasks[i], region[i]);
    }

    // Growth: hand leftover cores to the worst demand-weighted
    // region, in chunks, re-simulating as we go.
    const unsigned chunk = 8;
    while (free_cores >= chunk) {
        int worst = -1;
        double worst_cost = 0;
        for (size_t i = 0; i < tasks.size(); ++i) {
            if (!region[i])
                continue;
            double cost = latency[i] * tasks[i].demand;
            if (worst < 0 || cost > worst_cost) {
                worst = static_cast<int>(i);
                worst_cost = cost;
            }
        }
        if (worst < 0)
            break;
        unsigned grown = region[worst] + chunk;
        double lat = simulateLatencyMs(tasks[worst], grown);
        free_cores -= chunk;
        if (lat < latency[worst]) {
            region[worst] = grown;
            latency[worst] = lat;
        }
        // If growth did not help, the cores are simply left
        // unused for this model but still consumed from the pool,
        // mirroring a host that reserves headroom.
    }

    for (size_t i = 0; i < tasks.size(); ++i) {
        if (!region[i])
            continue;
        RegionAssignment ra;
        ra.taskIdx = i;
        ra.cores = region[i];
        ra.plan = planMapping(*tasks[i].net, Strategy::Heuristic,
                              region[i]);
        ra.latencyMs = latency[i];
        ra.throughput = 1e3 / ra.latencyMs;
        result.aggregateThroughput += ra.throughput;
        result.regions.push_back(std::move(ra));
    }
    return result;
}

} // namespace maicc
