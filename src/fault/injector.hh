/**
 * @file
 * Seeded fault-event scheduler for the serving tier.
 *
 * The FaultInjector turns a FaultConfig into a concrete, sorted
 * fault schedule at construction time: explicit events verbatim,
 * plus a random schedule drawn from Rng(seed) when rate > 0. The
 * resolution is a pure function of its constructor arguments — no
 * host state, no clocks — which is what makes a fixed-fault-seed
 * serving run bitwise reproducible from one simulator to the next.
 *
 * The injector does not mutate anything itself: the serving loop
 * (runtime/serving_loop.cc) walks schedule() and applies each
 * event to the victim ShardEngine at its cycle, in the dedicated
 * fault priority lane (DESIGN.md §16). As a SimComponent it publishes
 * the per-kind scheduled counts so a stats dump records what a run
 * was configured to endure alongside what it survived.
 */

#ifndef MAICC_FAULT_INJECTOR_HH
#define MAICC_FAULT_INJECTOR_HH

#include <vector>

#include "common/sim_component.hh"
#include "fault/fault_model.hh"

namespace maicc
{

/** Resolves a FaultConfig into a sorted, deterministic schedule. */
class FaultInjector : public SimComponent
{
  public:
    /**
     * Resolve @p cfg for a run with @p chips shards and
     * @p dram_channels channels per shard. @p default_window is
     * the random-schedule horizon used when cfg.window is 0
     * (callers pass ServingConfig::arrivalSpan()). Exits through
     * maicc_fatal with validateFaultConfig()'s message unless the
     * config is valid — callers validate first for a recoverable
     * error.
     */
    FaultInjector(const FaultConfig &cfg, unsigned chips,
                  unsigned dram_channels, Cycles default_window);

    /** The resolved schedule, sorted by cycle (stable). */
    const std::vector<FaultEvent> &schedule() const { return events; }

    /** Schedule unchanged across runs; stats zeroed by base. */
    void reset() override { SimComponent::reset(); }

    void recordStats() override;

  private:
    FaultConfig config;
    std::vector<FaultEvent> events;
};

} // namespace maicc

#endif // MAICC_FAULT_INJECTOR_HH
