/**
 * @file
 * The shared discrete-event kernel (DESIGN.md §15). One EventQueue
 * drives one simulation clock: components schedule wake-up events
 * at absolute cycles and the pump executes them in deterministic
 * (cycle, priority, sequence) order — cycle first, then the
 * caller-chosen priority lane (e.g. "completions before arrivals",
 * "shard 0 before shard 1"), then insertion order as the final
 * tie-break. Execution is strictly single-threaded and the
 * ordering key is a pure function of the schedule() call stream,
 * so a run is bitwise reproducible regardless of host load,
 * pointer values, or hash seeds.
 *
 * Skip-ahead falls out of the representation: between events no
 * simulated time is modeled at all, so an idle stretch costs
 * nothing. Components that cannot know their
 * next interesting cycle exactly may schedule a conservative
 * earlier wake-up and re-check state when it fires; stale wake-ups
 * must be no-ops (the "stale events are harmless" rule in §15).
 */

#ifndef MAICC_EVENT_QUEUE_HH
#define MAICC_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace maicc
{

/**
 * Deterministic discrete-event queue. See the file comment for the
 * ordering contract. Not thread-safe: one queue belongs to one
 * simulation loop on one thread.
 *
 * Storage: the heap holds plain (when, priority, seq, ref, payload)
 * keys, so a sift moves 32 bytes. A one-shot handler lives in a
 * slab slot that is recycled once the handler has run. A persistent
 * handler (gem5's member-event style) is registered once with
 * addHandler() and fired by any number of payload events, which
 * allocate nothing.
 */
class EventQueue
{
  public:
    /** One-shot callback invoked with the event's cycle. */
    using Handler = std::function<void(Cycles)>;

    /** Persistent callback invoked with the cycle and the payload
     * of each event scheduled on it. */
    using PayloadHandler = std::function<void(Cycles, uint64_t)>;

    /** Names a PayloadHandler registered with addHandler(). */
    using HandlerId = uint32_t;

    /** "No event" sentinel returned by nextAt(). */
    static constexpr Cycles kNever = ~Cycles(0);

    /**
     * Schedule @p fn at absolute cycle @p when. Events at one
     * cycle run in ascending @p priority, then schedule() order.
     * Scheduling at or before the cycle currently being executed
     * is allowed (the event runs before the pump returns to an
     * older cycle only if none exists — i.e. it is simply ordered
     * by its key like any other event); scheduling strictly in the
     * past of an already-executed event is a contract violation
     * the caller must avoid.
     */
    void schedule(Cycles when, int priority, Handler fn);

    /**
     * Register @p fn for payload events; it lives as long as the
     * queue (clear() keeps it) or until removeHandler().
     */
    HandlerId addHandler(PayloadHandler fn);

    /**
     * Unregister @p h, for a handler whose captures die before the
     * queue does; a later addHandler() may reuse its id. No event
     * may still be scheduled on it, and it must not be running.
     */
    void removeHandler(HandlerId h);

    /**
     * Schedule handler @p h with @p payload at cycle @p when; the
     * same ordering as the one-shot schedule() above, which shares
     * its sequence counter.
     */
    void
    schedule(Cycles when, int priority, HandlerId h,
             uint64_t payload)
    {
        push(Key{when, nextSeq++, payload, priority,
                 h | kPersistent});
    }

    bool empty() const { return heap.empty(); }
    size_t size() const { return heap.size(); }

    /** Cycle of the next event, or kNever when empty. */
    Cycles
    nextAt() const
    {
        return heap.empty() ? kNever : heap.front().when;
    }

    /** Cycle of the most recently executed event (0 initially). */
    Cycles now() const { return current; }

    /** Events executed so far (for budget checks / stats). */
    uint64_t eventsRun() const { return executed; }

    /**
     * Pop and run the single next event. No-op on an empty queue.
     * @return true when an event ran.
     */
    bool step();

    /**
     * Run events while the next one is at or before @p limit.
     * @return events executed.
     */
    uint64_t runUntil(Cycles limit);

    /** Run until the queue is empty. @return events executed. */
    uint64_t drain();

    /**
     * Drop all pending events and their one-shot handlers;
     * registered handlers stay, and now()/eventsRun() keep
     * counting.
     */
    void clear();

  private:
    /** Marks a Key::ref naming a registered handler, not a slot. */
    static constexpr uint32_t kPersistent = 1u << 31;

    struct Key
    {
        Cycles when;
        uint64_t seq;
        uint64_t payload;
        int priority;
        uint32_t ref; ///< slab slot, or handler id | kPersistent
    };

    /** Min-first over (when, priority, seq). */
    static bool
    later(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }

    void push(const Key &k);

    std::vector<Key> heap; ///< binary min-heap under later()
    std::vector<Handler> slab;
    std::vector<uint32_t> freeSlots;
    std::deque<PayloadHandler> handlers; ///< stable addresses
    std::vector<HandlerId> freeHandlers; ///< removed, reusable ids
    uint64_t nextSeq = 0;
    uint64_t executed = 0;
    Cycles current = 0;
};

} // namespace maicc

#endif // MAICC_EVENT_QUEUE_HH
