/**
 * @file
 * Banked DRAM channel timing model (the DRAMsim3 substitute,
 * paper §5). Each of the 32 channels serves 64-byte accesses from
 * an FR-FCFS queue over per-bank row buffers:
 *
 *   row hit      : tCAS + burst
 *   row closed   : tRCD + tCAS + burst
 *   row conflict : tRP + tRCD + tCAS + burst  (respecting tRAS)
 *
 * Requests complete asynchronously; callers poll collect(). The
 * model also counts activates / reads / writes for the energy
 * model.
 */

#ifndef MAICC_DRAM_DRAM_HH
#define MAICC_DRAM_DRAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_component.hh"
#include "common/types.hh"

namespace maicc
{

class EventQueue;

/** Timing and geometry of one DRAM channel (1 GHz core cycles). */
struct DramConfig
{
    unsigned numBanks = 8;
    unsigned rowBytes = 2048;  ///< row-buffer size
    unsigned accessBytes = 64; ///< transaction granularity
    Cycles tRCD = 14;
    Cycles tCAS = 14;
    Cycles tRP = 14;
    Cycles tRAS = 33;
    Cycles burst = 4;          ///< data-bus cycles per access
};

/** Event counters for the energy model. */
struct DramStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t activates = 0;  ///< row misses + conflicts
    uint64_t rowHits = 0;
    Cycles busyCycles = 0;   ///< data-bus occupancy
};

/** A completed request handed back to the caller. */
struct DramCompletion
{
    uint64_t tag = 0;
    Cycles finishedAt = 0;
    bool write = false;
};

/** One DRAM channel with FR-FCFS scheduling. */
class DramChannel : public SimComponent
{
  public:
    explicit DramChannel(const DramConfig &cfg = DramConfig{});

    /** Queue a 64-byte access; @p tag is returned on completion. */
    void enqueue(Addr addr, bool write, uint64_t tag, Cycles now);

    /**
     * Advance internal scheduling to cycle @p now and move any
     * finished requests to the completion list.
     */
    void tick(Cycles now);

    /**
     * Append the completions whose finish time is <= @p now to
     * @p out, in finish order, and drop them from the channel.
     */
    void collect(Cycles now, std::vector<DramCompletion> &out);

    /** True when no requests are queued or in flight. */
    bool idle() const;

    /** Earliest cycle at which new work could complete. */
    Cycles nextEventAt() const;

    /** Close every row, drop queued work, zero the stats. */
    void reset() override;

    /** Publish reads/writes/activates/... into stats(). */
    void recordStats() override;

    const DramStats &dramStats() const { return st; }
    const DramConfig &config() const { return cfg; }

  private:
    /** A queued access, its bank and row resolved at enqueue. */
    struct Request
    {
        uint64_t row;
        uint64_t tag;
        Cycles arrival;
        unsigned bank;
        bool write;
    };

    struct Bank
    {
        bool open = false;
        uint64_t openRow = 0;
        Cycles readyAt = 0;     ///< bank free for next command
        Cycles activatedAt = 0; ///< for tRAS
    };

    /** Service one request starting no earlier than its arrival;
     * @return its finish cycle. */
    Cycles service(const Request &req);

    DramConfig cfg;
    std::vector<Bank> banks;
    /**
     * Pending requests in arrival order from queueHead on. Issued
     * entries before queueHead are dropped in one move once they
     * are half the vector.
     */
    std::vector<Request> queue;
    size_t queueHead = 0;
    /**
     * Issued requests from doneHead on. Their finish times rise
     * strictly in issue order (each one ends at least a burst after
     * the previous one on the shared data bus), so the finished
     * ones are always a prefix: a FIFO, compacted like the queue.
     */
    std::vector<DramCompletion> done;
    size_t doneHead = 0;
    Cycles busFreeAt = 0;
    Cycles lastTick = 0;
    DramStats st;
};

/**
 * The many-core DRAM: 32 channels striped by 64-byte blocks
 * (Table 1), each behind one LLC node.
 */
class ManyCoreDram : public SimComponent
{
  public:
    explicit ManyCoreDram(unsigned channels = 32,
                          const DramConfig &cfg = DramConfig{});

    DramChannel &channel(unsigned idx);
    unsigned numChannels() const { return chans.size(); }

    /** Route an access to its channel by address. */
    void enqueue(Addr addr, bool write, uint64_t tag, Cycles now);

    /**
     * Advance scheduling on every channel holding work. Channels
     * with nothing queued or in flight are skipped (a tick on an
     * idle channel is a no-op but for its private clock, which is
     * unobservable until work arrives).
     */
    void tick(Cycles now);
    bool idle() const;

    /** Earliest pending event across channels; DramChannel's
     * ~Cycles(0) sentinel when everything is idle. */
    Cycles nextEventAt() const;

    /**
     * Event-kernel drain (DESIGN.md §15): instead of polling every
     * channel every cycle, each busy channel schedules one wake-up
     * on @p eq at its own nextEventAt() (priority = channel index,
     * so same-cycle completions collect in ascending channel
     * order, exactly like a per-cycle polling sweep), collects its
     * finished requests, and re-arms until idle. All wake-ups go
     * to one payload handler (payload = channel index), which is
     * registered on @p eq for this call only and removed before it
     * returns. Completions are appended to @p out when given, in
     * (cycle, channel) order.
     * @return the last completion cycle (0 when nothing drained).
     */
    Cycles drainVia(EventQueue &eq,
                    std::vector<DramCompletion> *out = nullptr);

    /** Aggregate stats across channels. */
    DramStats totalStats() const;

    /** reset() every channel. */
    void reset() override;

    /** Publish the channel-aggregate stats into stats(). */
    void recordStats() override;

  protected:
    /** Attach each channel as "<name>.chN". */
    void onAttach() override;

  private:
    // unique_ptr because SimComponent is pinned in memory (the
    // registry holds raw pointers), so channels cannot live in a
    // reallocating vector by value.
    std::vector<std::unique_ptr<DramChannel>> chans;
};

} // namespace maicc

#endif // MAICC_DRAM_DRAM_HH
