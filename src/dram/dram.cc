#include "dram/dram.hh"

#include <algorithm>

#include "common/logging.hh"
#include "engine/event_queue.hh"
#include "mem/address_map.hh"

namespace maicc
{

namespace
{

/** Drop the consumed entries before @p head once they are at
 * least half of @p v. */
template <typename T>
void
compact(std::vector<T> &v, size_t &head)
{
    if (head * 2 < v.size())
        return;
    v.erase(v.begin(), v.begin() + head);
    head = 0;
}

} // namespace

DramChannel::DramChannel(const DramConfig &config)
    : SimComponent("dram_channel"), cfg(config), banks(config.numBanks)
{
    maicc_assert(cfg.numBanks >= 1 && cfg.rowBytes >= 1);
    // A zero burst would let two accesses finish on one cycle, and
    // the completion FIFO relies on strictly rising finish times.
    maicc_assert(cfg.burst >= 1);
}

void
DramChannel::enqueue(Addr addr, bool write, uint64_t tag, Cycles now)
{
    // Channel striping already consumed low block bits; interleave
    // banks on the next bits above the row offset.
    Addr row_index = addr / cfg.rowBytes;
    queue.push_back({row_index / cfg.numBanks, tag, now,
                     unsigned(row_index % cfg.numBanks), write});
    tick(now);
}

Cycles
DramChannel::service(const Request &req)
{
    Bank &bank = banks[req.bank];
    // Bank preparation (precharge/activate/CAS) overlaps with other
    // banks' bus transfers; only the data burst occupies the bus.
    Cycles start = std::max(req.arrival, bank.readyAt);

    Cycles data_ready;
    if (bank.open && bank.openRow == req.row) {
        ++st.rowHits;
        data_ready = start + cfg.tCAS;
    } else if (!bank.open) {
        ++st.activates;
        bank.activatedAt = start;
        data_ready = start + cfg.tRCD + cfg.tCAS;
    } else {
        // Conflict: precharge (respecting tRAS), activate, access.
        ++st.activates;
        Cycles pre_at =
            std::max(start, bank.activatedAt + cfg.tRAS);
        bank.activatedAt = pre_at + cfg.tRP;
        data_ready = pre_at + cfg.tRP + cfg.tRCD + cfg.tCAS;
    }
    Cycles access_done = std::max(data_ready, busFreeAt) + cfg.burst;
    bank.open = true;
    bank.openRow = req.row;
    bank.readyAt = access_done;
    busFreeAt = access_done;
    st.busyCycles += cfg.burst;
    if (req.write)
        ++st.writes;
    else
        ++st.reads;
    return access_done;
}

void
DramChannel::tick(Cycles now)
{
    lastTick = std::max(lastTick, now);
    // FR-FCFS: among queued requests, prefer the oldest row hit;
    // otherwise the oldest request. Issue as long as the data bus
    // can start work at or before `now`.
    while (queueHead < queue.size() && busFreeAt <= lastTick) {
        // The scheduler considers a bounded reorder window, like a
        // real controller's transaction queue.
        size_t end = std::min<size_t>(queue.size(), queueHead + 32);
        size_t pick = queueHead;
        for (size_t i = queueHead; i < end; ++i) {
            const Bank &b = banks[queue[i].bank];
            if (b.open && b.openRow == queue[i].row) {
                pick = i;
                break;
            }
        }
        Request req = queue[pick];
        // Close the gap by moving the older entries up one slot.
        std::move_backward(queue.begin() + queueHead,
                           queue.begin() + pick,
                           queue.begin() + pick + 1);
        ++queueHead;
        done.push_back({req.tag, service(req), req.write});
    }
    compact(queue, queueHead);
}

void
DramChannel::collect(Cycles now, std::vector<DramCompletion> &out)
{
    tick(now);
    size_t end = doneHead;
    while (end < done.size() && done[end].finishedAt <= now)
        ++end;
    out.insert(out.end(), done.begin() + doneHead,
               done.begin() + end);
    doneHead = end;
    compact(done, doneHead);
}

bool
DramChannel::idle() const
{
    return queueHead == queue.size() && doneHead == done.size();
}

Cycles
DramChannel::nextEventAt() const
{
    Cycles t = ~Cycles(0);
    if (doneHead < done.size())
        t = done[doneHead].finishedAt;
    if (queueHead < queue.size())
        t = std::min(t, busFreeAt);
    return t;
}

void
DramChannel::reset()
{
    banks.assign(cfg.numBanks, Bank{});
    queue.clear();
    queueHead = 0;
    done.clear();
    doneHead = 0;
    busFreeAt = 0;
    lastTick = 0;
    st = DramStats{};
    SimComponent::reset();
}

void
DramChannel::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("reads", st.reads);
    publish("writes", st.writes);
    publish("activates", st.activates);
    publish("rowHits", st.rowHits);
    publish("busyCycles", st.busyCycles);
}

ManyCoreDram::ManyCoreDram(unsigned channels, const DramConfig &cfg)
    : SimComponent("dram")
{
    maicc_assert(channels >= 1);
    chans.reserve(channels);
    for (unsigned i = 0; i < channels; ++i)
        chans.push_back(std::make_unique<DramChannel>(cfg));
}

DramChannel &
ManyCoreDram::channel(unsigned idx)
{
    maicc_assert(idx < chans.size());
    return *chans[idx];
}

void
ManyCoreDram::enqueue(Addr addr, bool write, uint64_t tag, Cycles now)
{
    chans[amap::dramChannel(addr, chans.size())]->enqueue(addr, write,
                                                          tag, now);
}

void
ManyCoreDram::tick(Cycles now)
{
    // Only channels with queued or in-flight work can change
    // observable state; an idle channel's tick merely advances its
    // private clock, which re-synchronizes on the next enqueue
    // anyway.
    for (auto &c : chans) {
        if (!c->idle())
            c->tick(now);
    }
}

bool
ManyCoreDram::idle() const
{
    for (const auto &c : chans) {
        if (!c->idle())
            return false;
    }
    return true;
}

Cycles
ManyCoreDram::nextEventAt() const
{
    Cycles t = ~Cycles(0);
    for (const auto &c : chans)
        t = std::min(t, c->nextEventAt());
    return t;
}

Cycles
ManyCoreDram::drainVia(EventQueue &eq,
                       std::vector<DramCompletion> *out)
{
    ScopedHostTimer host_timer(*this);
    constexpr Cycles never = ~Cycles(0);
    Cycles last = 0;
    std::vector<DramCompletion> scratch;
    std::vector<DramCompletion> &fin = out ? *out : scratch;
    // One wake-up handler for every channel (payload = channel
    // index): it services exactly the work that becomes actionable
    // at its cycle, then re-arms at the channel's next event.
    // Priority = channel index keeps same-cycle collections in
    // ascending channel order — the same order a per-cycle polling
    // sweep would observe them in.
    EventQueue::HandlerId wake = 0;
    wake = eq.addHandler([&](Cycles now, uint64_t i) {
        DramChannel &c = *chans[i];
        size_t before = fin.size();
        c.collect(now, fin);
        if (fin.size() > before)
            last = std::max(last, fin.back().finishedAt);
        if (!out)
            scratch.clear();
        Cycles next = c.nextEventAt();
        if (next != never)
            eq.schedule(next, int(i), wake, i);
    });
    for (unsigned i = 0; i < chans.size(); ++i) {
        Cycles next = chans[i]->nextEventAt();
        if (next != never)
            eq.schedule(next, int(i), wake, i);
    }
    eq.drain();
    eq.removeHandler(wake);
    return last;
}

DramStats
ManyCoreDram::totalStats() const
{
    DramStats t;
    for (const auto &c : chans) {
        t.reads += c->dramStats().reads;
        t.writes += c->dramStats().writes;
        t.activates += c->dramStats().activates;
        t.rowHits += c->dramStats().rowHits;
        t.busyCycles += c->dramStats().busyCycles;
    }
    return t;
}

void
ManyCoreDram::reset()
{
    for (auto &c : chans)
        c->reset();
    SimComponent::reset();
}

void
ManyCoreDram::recordStats()
{
    DramStats t = totalStats();
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("reads", t.reads);
    publish("writes", t.writes);
    publish("activates", t.activates);
    publish("rowHits", t.rowHits);
    publish("busyCycles", t.busyCycles);
}

void
ManyCoreDram::onAttach()
{
    for (size_t i = 0; i < chans.size(); ++i) {
        chans[i]->attachTo(*context(),
                           name() + ".ch" + std::to_string(i));
    }
}

} // namespace maicc
