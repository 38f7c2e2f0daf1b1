#include "engine/event_queue.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace maicc
{

void
EventQueue::push(const Key &k)
{
    heap.push_back(k);
    std::push_heap(heap.begin(), heap.end(), later);
}

void
EventQueue::schedule(Cycles when, int priority, Handler fn)
{
    uint32_t slot;
    if (freeSlots.empty()) {
        slot = uint32_t(slab.size());
        maicc_assert(slot < kPersistent);
        slab.push_back(std::move(fn));
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
        slab[slot] = std::move(fn);
    }
    push(Key{when, nextSeq++, 0, priority, slot});
}

EventQueue::HandlerId
EventQueue::addHandler(PayloadHandler fn)
{
    if (!freeHandlers.empty()) {
        HandlerId h = freeHandlers.back();
        freeHandlers.pop_back();
        handlers[h] = std::move(fn);
        return h;
    }
    maicc_assert(handlers.size() < kPersistent);
    handlers.push_back(std::move(fn));
    return HandlerId(handlers.size() - 1);
}

void
EventQueue::removeHandler(HandlerId h)
{
    maicc_assert(h < handlers.size() && handlers[h]);
    maicc_assert(std::none_of(heap.begin(), heap.end(),
                              [h](const Key &k) {
                                  return k.ref == (h | kPersistent);
                              }));
    handlers[h] = nullptr;
    freeHandlers.push_back(h);
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;
    std::pop_heap(heap.begin(), heap.end(), later);
    Key k = heap.back();
    heap.pop_back();
    current = k.when;
    ++executed;
    if (k.ref & kPersistent) {
        // deque elements never move, so the handler may register
        // more handlers while it runs.
        handlers[k.ref & ~kPersistent](k.when, k.payload);
        return true;
    }
    // Move the handler out and free its slot first: the handler
    // may schedule new events, which can reuse the slot or grow the
    // slab. Its captures are released when it returns.
    Handler fn = std::move(slab[k.ref]);
    slab[k.ref] = nullptr;
    freeSlots.push_back(k.ref);
    fn(k.when);
    return true;
}

uint64_t
EventQueue::runUntil(Cycles limit)
{
    uint64_t n = 0;
    while (!heap.empty() && heap.front().when <= limit) {
        step();
        ++n;
    }
    return n;
}

uint64_t
EventQueue::drain()
{
    uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

void
EventQueue::clear()
{
    heap.clear();
    slab.clear();
    freeSlots.clear();
}

} // namespace maicc
