#include "noc/noc.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/trace.hh"

namespace maicc
{

// The trace layer names ports without including this header; keep
// the two numberings locked together.
static_assert(MeshNoc::dirLocal == trace::kDirLocal);
static_assert(MeshNoc::dirEast == trace::kDirEast);
static_assert(MeshNoc::dirWest == trace::kDirWest);
static_assert(MeshNoc::dirSouth == trace::kDirSouth);
static_assert(MeshNoc::dirNorth == trace::kDirNorth);
static_assert(MeshNoc::numDirs == trace::kDirInject);

namespace
{

/** The input port a flit leaving through each output enters by. */
constexpr int kOpposite[MeshNoc::numDirs] = {
    -1, MeshNoc::dirWest, MeshNoc::dirEast, MeshNoc::dirNorth,
    MeshNoc::dirSouth};

void
setBit(std::vector<uint64_t> &words, NodeId n)
{
    words[size_t(n) >> 6] |= uint64_t(1) << (n & 63);
}

void
clearBit(std::vector<uint64_t> &words, NodeId n)
{
    words[size_t(n) >> 6] &= ~(uint64_t(1) << (n & 63));
}

/**
 * Call @p fn for every set bit in ascending node id. Each word is
 * copied before its bits are visited, so @p fn may clear the bit
 * it is called for.
 */
template <typename Fn>
void
forEachBit(const std::vector<uint64_t> &words, Fn fn)
{
    for (size_t w = 0; w < words.size(); ++w) {
        for (uint64_t bits = words[w]; bits; bits &= bits - 1)
            fn(NodeId(w * 64 + std::countr_zero(bits)));
    }
}

} // namespace

MeshNoc::MeshNoc(const NocConfig &config)
    : SimComponent("noc"), cfg(config),
      step{0, 1, -1, config.width, -config.width},
      routers(cfg.width * cfg.height),
      slots(size_t(cfg.width) * cfg.height * numDirs
            * cfg.queueDepth),
      injectQueues(cfg.width * cfg.height),
      deliverQueues(cfg.width * cfg.height),
      injProgress(cfg.width * cfg.height, 0),
      frontPacketIdx(cfg.width * cfg.height, 0),
      routerFlits(cfg.width * cfg.height, 0),
      activeRouters((cfg.width * cfg.height + 63) / 64, 0),
      activeInjectors((cfg.width * cfg.height + 63) / 64, 0)
{
    maicc_assert(cfg.width >= 1 && cfg.height >= 1);
    maicc_assert(cfg.queueDepth >= 1
                 && cfg.queueDepth <= kMaxQueueDepth);
}

void
MeshNoc::reset()
{
    cycle = 0;
    std::fill(routers.begin(), routers.end(), Router{});
    for (auto &q : injectQueues)
        q.clear();
    for (auto &q : deliverQueues)
        q.clear();
    inFlight.clear();
    freeSlots.clear();
    std::fill(injProgress.begin(), injProgress.end(), 0u);
    std::fill(frontPacketIdx.begin(), frontPacketIdx.end(), 0u);
    nextPacketId = 1;
    flitHopCount = 0;
    deliveredCount = 0;
    latencySum = 0.0;
    std::fill(routerFlits.begin(), routerFlits.end(), 0u);
    queuedFlits = 0;
    pendingInjectPackets = 0;
    std::fill(activeRouters.begin(), activeRouters.end(), 0);
    std::fill(activeInjectors.begin(), activeInjectors.end(), 0);
    lastTickProgress = false;
    SimComponent::reset();
}

void
MeshNoc::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("flitHops", flitHopCount);
    publish("packetsDelivered", deliveredCount);
    publish("cycles", cycle);
    auto &lat = stats().summary("packetLatency");
    lat.reset();
    if (deliveredCount)
        lat.sample(latencySum / double(deliveredCount));
}

unsigned
MeshNoc::hops(NodeId a, NodeId b) const
{
    NodeCoord ca = coord(a), cb = coord(b);
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

int
MeshNoc::route(NodeId at, NodeId dst) const
{
    NodeCoord ca = coord(at), cd = coord(dst);
    if (ca.x < cd.x)
        return dirEast;
    if (ca.x > cd.x)
        return dirWest;
    if (ca.y < cd.y)
        return dirSouth;
    if (ca.y > cd.y)
        return dirNorth;
    return dirLocal;
}

void
MeshNoc::inject(Packet pkt)
{
    maicc_assert(pkt.src >= 0
                 && pkt.src < cfg.width * cfg.height);
    maicc_assert(pkt.dst >= 0
                 && pkt.dst < cfg.width * cfg.height);
    maicc_assert(pkt.sizeFlits >= 1);
    pkt.id = nextPacketId++;
    pkt.injectTime = cycle;
    if (trace::kEnabled && sink) {
        sink->packets.push_back({pkt.id, pkt.src, pkt.dst,
                                 pkt.sizeFlits, pkt.injectTime});
    }
    ++pendingInjectPackets;
    setBit(activeInjectors, pkt.src);
    injectQueues[pkt.src].push_back(pkt);
}

void
MeshNoc::pushRouterFlit(NodeId n, int in_dir, const Flit &f)
{
    Router &r = routers[n];
    unsigned i = r.qHead[in_dir] + r.qSize[in_dir]++;
    if (i >= cfg.queueDepth)
        i -= cfg.queueDepth;
    slot(n, in_dir, i) = f;
    ++queuedFlits;
    if (routerFlits[n]++ == 0)
        setBit(activeRouters, n);
}

void
MeshNoc::popRouterFlit(NodeId n, int in_dir)
{
    Router &r = routers[n];
    if (++r.qHead[in_dir] == cfg.queueDepth)
        r.qHead[in_dir] = 0;
    --r.qSize[in_dir];
    --queuedFlits;
    if (--routerFlits[n] == 0)
        clearBit(activeRouters, n);
}

Cycles
MeshNoc::nextFrontReadyAtOrAfter(Cycles from)
{
    Cycles best = kNeverReady;
    forEachBit(activeRouters, [&](NodeId n) {
        for (int d = 0; d < numDirs; ++d) {
            if (routers[n].qSize[d] == 0)
                continue;
            Cycles r = front(n, d).readyAt;
            if (r >= from && r < best)
                best = r;
        }
    });
    return best;
}

std::deque<Packet> &
MeshNoc::delivered(NodeId id)
{
    return deliverQueues[id];
}

bool
MeshNoc::idle() const
{
    // Maintained counters; formerly an O(routers x ports) scan
    // that ran once per drained cycle.
    return pendingInjectPackets == 0 && queuedFlits == 0;
}

double
MeshNoc::avgPacketLatency() const
{
    return deliveredCount ? latencySum / deliveredCount : 0.0;
}

void
MeshNoc::arbitrate(NodeId n)
{
    // Each output port picks at most one eligible input, based on
    // start-of-cycle queue state. One pass over the inputs sorts
    // every ready head flit into the request mask of the output it
    // routes to; a locked output takes only its owner's next flit.
    Router &r = routers[n];
    unsigned ready = 0;
    unsigned requests[numDirs] = {};
    for (int i = 0; i < numDirs; ++i) {
        if (r.qSize[i] == 0)
            continue;
        const Flit &f = front(n, i);
        if (f.readyAt > cycle)
            continue;
        ready |= 1u << i;
        if (f.head)
            requests[f.out] |= 1u << i;
    }
    if (ready == 0)
        return;
    for (int o = 0; o < numDirs; ++o) {
        int candidate;
        bool fresh_grant = false;
        if (r.outLockedTo[o] >= 0) {
            candidate = r.outLockedTo[o];
            if (!(ready >> candidate & 1))
                continue;
        } else {
            // Round robin: the first requester at or after the
            // pointer, wrapping around to the lowest.
            unsigned m = requests[o];
            if (m == 0)
                continue;
            unsigned from_rr = m & (~0u << r.rrNext[o]);
            candidate = std::countr_zero(from_rr ? from_rr : m);
            fresh_grant = true;
        }
        // Credit check: space downstream (ejection is free).
        if (o != dirLocal) {
            NodeId next = n + step[o];
            if (routers[next].qSize[kOpposite[o]] >= cfg.queueDepth)
                continue;
        }
        // The round-robin pointer advances only when the grant
        // commits: a winner dropped by the credit check keeps
        // its priority next cycle instead of losing the slot to
        // whoever the pointer lands on (starvation under
        // sustained backpressure).
        if (fresh_grant)
            r.rrNext[o] = uint8_t((candidate + 1) % numDirs);
        moves.push_back({n, int8_t(candidate), int8_t(o)});
    }
}

bool
MeshNoc::injectFlit(NodeId n)
{
    if (routers[n].qSize[dirLocal] >= cfg.queueDepth)
        return false;
    auto &q = injectQueues[n];
    Packet &pkt = q.front();
    unsigned &progress = injProgress[n];
    if (progress == 0) {
        // Allocate an in-flight table slot on the head flit.
        uint32_t idx;
        if (!freeSlots.empty()) {
            idx = freeSlots.back();
            freeSlots.pop_back();
            inFlight[idx] = pkt;
        } else {
            idx = static_cast<uint32_t>(inFlight.size());
            inFlight.push_back(pkt);
        }
        frontPacketIdx[n] = idx;
    }
    Flit flit;
    flit.dst = pkt.dst;
    flit.packetIdx = frontPacketIdx[n];
    flit.readyAt = cycle + 1 + cfg.routerLatency;
    flit.out = int8_t(route(n, pkt.dst));
    flit.head = (progress == 0);
    flit.tail = (progress == pkt.sizeFlits - 1);
    if (trace::kEnabled && sink) {
        sink->flits.push_back(
            {pkt.id, n, trace::kDirInject,
             static_cast<int8_t>(dirLocal), flit.head, flit.tail,
             cycle});
    }
    pushRouterFlit(n, dirLocal, flit);
    ++progress;
    if (progress == pkt.sizeFlits) {
        progress = 0;
        q.pop_front();
        --pendingInjectPackets;
        if (q.empty())
            clearBit(activeInjectors, n);
    }
    return true;
}

void
MeshNoc::tick()
{
    // Phase 1: arbitration. Only routers holding flits are walked,
    // in ascending router id — a flit-less router can produce no
    // candidate, so the move list is the one a sweep over every
    // router would build.
    moves.clear();
    forEachBit(activeRouters, [&](NodeId n) { arbitrate(n); });

    // Phase 2: commit the moves simultaneously.
    for (const Move &m : moves) {
        Router &r = routers[m.router];
        Flit flit = front(m.router, m.in);
        popRouterFlit(m.router, m.in);
        if (flit.head)
            r.outLockedTo[m.out] = m.in;
        if (flit.tail)
            r.outLockedTo[m.out] = -1;
        if (trace::kEnabled && sink) {
            sink->flits.push_back(
                {inFlight[flit.packetIdx].id, m.router, m.in, m.out,
                 flit.head, flit.tail, cycle});
        }
        if (m.out == dirLocal) {
            if (flit.tail) {
                Packet &pkt = inFlight[flit.packetIdx];
                latencySum +=
                    static_cast<double>(cycle - pkt.injectTime);
                ++deliveredCount;
                if (trace::kEnabled && sink)
                    sink->ejects.push_back(
                        {pkt.id, m.router, cycle});
                deliverQueues[m.router].push_back(pkt);
                freeSlots.push_back(flit.packetIdx);
            }
        } else {
            NodeId next = m.router + step[m.out];
            flit.readyAt = cycle + 1 + cfg.routerLatency;
            flit.out = int8_t(route(next, flit.dst));
            pushRouterFlit(next, kOpposite[m.out], flit);
            ++flitHopCount;
        }
    }

    // Phase 3: injection, one flit per node per cycle. As in
    // phase 1, only nodes with a non-empty inject queue are walked,
    // in ascending node id — every skipped node is one a full
    // sweep would `continue` past anyway.
    bool injected = false;
    forEachBit(activeInjectors,
               [&](NodeId n) { injected |= injectFlit(n); });

    lastTickProgress = !moves.empty() || injected;
    ++cycle;
}

void
MeshNoc::drain(Cycles max_cycles)
{
    ScopedHostTimer host_timer(*this);
    // Tick only productive cycles. After a tick in
    // which nothing moved and nothing injected, the mesh state is
    // static except for time — arbitration inputs (queues, locks,
    // round-robin pointers, credits) change only through moves and
    // injections — so every cycle before the next front-flit
    // pipeline-eligibility boundary is a provable no-op and the
    // clock jumps there directly. Zero progress with no future
    // eligibility is a genuine deadlock (all fronts already
    // eligible, none can move), which no amount of ticking fixes.
    Cycles start = cycle;
    while (!idle()) {
        if (cycle - start >= max_cycles)
            maicc_fatal("NoC failed to drain in %llu cycles",
                        (unsigned long long)max_cycles);
        tick();
        if (!lastTickProgress && !idle()) {
            Cycles next = nextFrontReadyAtOrAfter(cycle);
            if (next == kNeverReady)
                maicc_fatal("NoC deadlock: no flit moved and none "
                            "will become eligible");
            cycle = next;
        }
    }
}

} // namespace maicc
