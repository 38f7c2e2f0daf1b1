/**
 * @file
 * Cycle-level timing model of the MAICC node pipeline.
 *
 * The model wraps the functional rv32::Executor in an
 * execute-at-issue style: architectural values are always exact,
 * while issue/execute/write-back times are computed from the
 * scoreboard and resource-availability state below.
 *
 * Modelled mechanisms (all measured by Table 5):
 *  - in-order issue, one instruction per cycle from the I-cache;
 *  - scoreboard RAW/WAW interlocks with a bypass network for
 *    single-cycle units (CMem results return through the register
 *    file, so dependants wait for their write-back);
 *  - a FIFO issue queue of configurable depth in front of the CMem
 *    (depth 0 = block in ID while the CMem is busy);
 *  - per-slice CMem occupancy: slices execute in parallel, Move.C
 *    occupies both source and destination slices;
 *  - 1 or 2 register-file write-back ports arbitrated per cycle;
 *  - an unpipelined divider and a single local memory port;
 *  - scoreboard-managed (non-blocking) remote accesses with a
 *    configurable round-trip latency when no NoC is attached.
 *
 * A CoreTimingModel is *node-private* state: every mutable field
 * lives in the instance and it holds no references to mesh-shared
 * structures (its CMem, memory, and row port belong to the same
 * node).
 */

#ifndef MAICC_CORE_TIMING_HH
#define MAICC_CORE_TIMING_HH

#include <deque>
#include <vector>

#include "common/sim_component.hh"
#include "core/core_config.hh"
#include "rv32/executor.hh"

namespace maicc
{

/**
 * Timing simulation of one node program. Construct with the same
 * collaborators as rv32::Executor plus a CoreConfig, then run().
 */
class CoreTimingModel : public SimComponent
{
  public:
    CoreTimingModel(const rv32::Program &program, rv32::MemIf &mem,
                    CMem *cmem, rv32::RowPortIf *rows,
                    const CoreConfig &cfg);

    /** Run to ecall/ebreak; @return the cycle-level statistics. */
    CoreRunStats run(uint64_t max_insts = 200'000'000);

    /** Architectural state after (or during) the run. */
    const rv32::Executor &executor() const { return exec; }

    // The commit-trace sink is inherited: SimComponent::setTrace;
    // run() emits one InstRecord per retired instruction when set.

    /**
     * Clear the scoreboard / resource-availability state so the
     * next run() sees a cold pipeline (the executor's
     * architectural state is NOT touched — rebuild or reload the
     * program for a fully fresh run).
     */
    void reset() override;

    /** Publish the last run's CoreRunStats into stats(). */
    void recordStats() override;

  private:
    /** Book a write-back port at or after @p ready; @return slot. */
    Cycles bookWbPort(Cycles ready);

    const CoreConfig cfg;
    rv32::Executor exec;
    CMem *cmem;

    // Resource availability state, all in absolute cycles.
    std::vector<Cycles> regReady;     ///< bypass-ready time
    std::vector<Cycles> regWbDone;    ///< write-back retired (WAW)
    std::vector<Cycles> sliceFree;    ///< per-CMem-slice busy-until
    /**
     * Per-slice time at which remotely loaded rows have landed
     * (LoadRow.RC round trip). LoadRow.RC itself only occupies the
     * slice port for a cycle, so row fetches pipeline; any later
     * compute op on the slice waits for the data.
     */
    std::vector<Cycles> sliceDataReady;
    /** Results booked on one write-back cycle. */
    struct WbBooking
    {
        Cycles cycle;
        unsigned count;
    };
    /**
     * Write-back port occupancy per cycle, sorted by cycle from
     * wbHead on; a cycle without an entry is free. Ports are
     * arbitrated at completion time (not issue time), so a
     * long-latency CMem result does not block earlier-completing
     * ALU write-backs.
     */
    std::vector<WbBooking> wbBookings;
    size_t wbHead = 0; ///< first booking not yet pruned
    std::deque<Cycles> cmemDispatch;  ///< recent CMem dispatch times
    Cycles lastCMemDispatch = 0;
    Cycles divFree = 0;
    Cycles memPortFree = 0;
    Cycles fetchReady = 0;

    CoreRunStats runStats;
};

} // namespace maicc

#endif // MAICC_CORE_TIMING_HH
