/**
 * @file
 * The serving event loop (DESIGN.md §11, §14, §16): the one loop
 * behind ServingSimulator::run and ClusterSimulator::run. A single
 * chip is its 1-shard case, and a fault-free run is the case in
 * which no fault, timeout or retry event is ever scheduled. It
 * runs on the shared EventQueue kernel whatever
 * SystemConfig::engine says; the engine selects only how the
 * service profiles are simulated.
 *
 * Event ordering at one cycle, by ascending priority lane:
 *
 *   kLaneFault (-3)    faults strike first — a batch finishing at
 *                      the very cycle its chip dies is killed, not
 *                      completed (the fault hits at the start of
 *                      the cycle);
 *   kLaneTimeout (-2)  queueing timeouts pull waiting requests out
 *                      before completions free cores — a request
 *                      that waited its full timeout is retried
 *                      even if capacity opens the same cycle;
 *   0..nChips-1        per-shard completion wakes, ascending shard
 *                      index (the cross-shard tie-break: every
 *                      completion retires before the cycle's
 *                      arrival is considered);
 *   nChips             fresh arrivals;
 *   nChips+1           retry re-dispatches — behind the cycle's
 *                      fresh arrivals, so backoff never lets a
 *                      retried request jump a simultaneous fresh
 *                      one.
 *
 * Dispatch: a request goes to one shard that has its model in the
 * shard mask, is alive, could ever hold the model's minimum group,
 * and has waiting-room space. When no shard qualifies the request
 * is rejected at dispatch, so a request that no shard can ever
 * hold is rejected rather than queued forever.
 *
 * Determinism: the loop is serial, every draw comes from seeded
 * state resolved before the first event, and the ordering key is a
 * pure function of the schedule() stream — a fixed (seed, config)
 * run is bitwise identical from one simulator to the next and at
 * any sim-cache setting.
 */

#ifndef MAICC_RUNTIME_SERVING_LOOP_HH
#define MAICC_RUNTIME_SERVING_LOOP_HH

#include <vector>

#include "runtime/shard.hh"

namespace maicc
{

class FaultInjector;

/**
 * Serve @p arrivals over @p n_chips shards and summarize the run.
 *
 * @p shard_masks is per model (bit i = shard i may serve it);
 * @p injector may be null (no faults). @return the aggregate over
 * every offered request, in arrival order, finalized against
 * n_chips × coreBudget cores; ServingResult::recovery is
 * recoveryActive(cfg). When @p slices is non-null it receives one
 * finalized result per shard, ascending shard index: the requests
 * dispatched there, the shard's own timeline, and the aggregate's
 * endCycle. The caller owns stats publishing.
 */
ServingResult
runServingLoop(const ServingConfig &cfg,
               const std::vector<ServedModel> &models,
               const std::vector<unsigned> &min_cores,
               const std::vector<ServingArrival> &arrivals,
               const std::vector<uint64_t> &shard_masks,
               unsigned n_chips, const ShardEngine::ProfileFn &profile,
               const FaultInjector *injector,
               std::vector<ServingResult> *slices = nullptr);

} // namespace maicc

#endif // MAICC_RUNTIME_SERVING_LOOP_HH
