#include "noc/noc.hh"

#include <algorithm>

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

MeshNoc::MeshNoc(const NocConfig &config)
    : SimComponent("noc"), cfg(config),
      routers(cfg.width * cfg.height),
      injectQueues(cfg.width * cfg.height),
      deliverQueues(cfg.width * cfg.height),
      injProgress(cfg.width * cfg.height, 0),
      frontPacketIdx(cfg.width * cfg.height, 0),
      routerFlits(cfg.width * cfg.height, 0)
{
    maicc_assert(cfg.width >= 1 && cfg.height >= 1);
    maicc_assert(cfg.queueDepth >= 1);
    for (auto &r : routers) {
        for (int d = 0; d < numDirs; ++d) {
            r.outLockedTo[d] = -1;
            r.rrNext[d] = 0;
        }
    }
}

void
MeshNoc::reset()
{
    cycle = 0;
    for (auto &r : routers) {
        for (int d = 0; d < numDirs; ++d) {
            r.in[d].q.clear();
            r.outLockedTo[d] = -1;
            r.rrNext[d] = 0;
        }
    }
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
    activeRouters.clear();
    activeInjectors.clear();
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
MeshNoc::downstream(NodeId at, int out_dir, NodeId &next,
                    int &in_dir) const
{
    NodeCoord c = coord(at);
    switch (out_dir) {
      case dirEast:
        next = nodeId(c.x + 1, c.y);
        in_dir = dirWest;
        return;
      case dirWest:
        next = nodeId(c.x - 1, c.y);
        in_dir = dirEast;
        return;
      case dirSouth:
        next = nodeId(c.x, c.y + 1);
        in_dir = dirNorth;
        return;
      case dirNorth:
        next = nodeId(c.x, c.y - 1);
        in_dir = dirSouth;
        return;
      default:
        maicc_panic("no downstream for local port");
    }
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
    activeInjectors.insert(pkt.src);
    injectQueues[pkt.src].push_back(pkt);
}

void
MeshNoc::pushRouterFlit(NodeId n, int in_dir, const Flit &f)
{
    routers[n].in[in_dir].q.push_back(f);
    ++queuedFlits;
    if (routerFlits[n]++ == 0)
        activeRouters.insert(n);
}

void
MeshNoc::popRouterFlit(NodeId n, int in_dir)
{
    routers[n].in[in_dir].q.pop_front();
    --queuedFlits;
    if (--routerFlits[n] == 0)
        activeRouters.erase(n);
}

Cycles
MeshNoc::nextFrontReadyAtOrAfter(Cycles from) const
{
    Cycles best = kNeverReady;
    for (NodeId n : activeRouters) {
        for (const auto &in : routers[n].in) {
            if (in.q.empty())
                continue;
            Cycles r = in.q.front().readyAt;
            if (r >= from && r < best)
                best = r;
        }
    }
    return best;
}

std::deque<Packet> &
MeshNoc::delivered(NodeId id)
{
    return deliverQueues[id];
}

ShardedInjector::ShardedInjector(size_t num_shards)
    : staged(num_shards)
{
    maicc_assert(num_shards > 0);
}

void
ShardedInjector::stage(size_t shard, Packet pkt)
{
    maicc_assert(shard < staged.size());
    staged[shard].push_back(pkt);
}

size_t
ShardedInjector::commit(MeshNoc &noc)
{
    size_t n = 0;
    for (auto &q : staged) {
        for (const Packet &pkt : q)
            noc.inject(pkt);
        n += q.size();
        q.clear();
    }
    return n;
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
MeshNoc::tick()
{
    struct Move
    {
        NodeId router;
        int in_dir;
        int out_dir;
    };
    std::vector<Move> moves;

    // Phase 1: each output port picks at most one eligible input,
    // based on start-of-cycle queue state. Only routers holding
    // flits are walked, in ascending router id — a flit-less
    // router can produce no candidate, so the move list is the
    // one a sweep over every router would build.
    auto arbitrate = [&](NodeId n) {
        Router &r = routers[n];
        for (int o = 0; o < numDirs; ++o) {
            int candidate = -1;
            bool fresh_grant = false;
            if (r.outLockedTo[o] >= 0) {
                int i = r.outLockedTo[o];
                if (!r.in[i].q.empty()
                    && r.in[i].q.front().readyAt <= cycle)
                    candidate = i;
            } else {
                for (int k = 0; k < numDirs; ++k) {
                    int i = (r.rrNext[o] + k) % numDirs;
                    const auto &q = r.in[i].q;
                    if (q.empty() || !q.front().head
                        || q.front().readyAt > cycle)
                        continue;
                    if (route(n, q.front().dst) != o)
                        continue;
                    candidate = i;
                    fresh_grant = true;
                    break;
                }
            }
            if (candidate < 0)
                continue;
            // Credit check: space downstream (ejection is free).
            if (o != dirLocal) {
                NodeId next;
                int in_dir;
                downstream(n, o, next, in_dir);
                if (routers[next].in[in_dir].q.size()
                    >= cfg.queueDepth)
                    continue;
            }
            // The round-robin pointer advances only when the grant
            // commits: a winner dropped by the credit check keeps
            // its priority next cycle instead of losing the slot to
            // whoever the pointer lands on (starvation under
            // sustained backpressure).
            if (fresh_grant)
                r.rrNext[o] = (candidate + 1) % numDirs;
            moves.push_back({n, candidate, o});
        }
    };
    for (NodeId n : activeRouters)
        arbitrate(n);

    // Phase 2: commit the moves simultaneously.
    for (const Move &m : moves) {
        Router &r = routers[m.router];
        Flit flit = r.in[m.in_dir].q.front();
        popRouterFlit(m.router, m.in_dir);
        if (flit.head)
            r.outLockedTo[m.out_dir] = m.in_dir;
        if (flit.tail)
            r.outLockedTo[m.out_dir] = -1;
        if (trace::kEnabled && sink) {
            sink->flits.push_back(
                {inFlight[flit.packetIdx].id, m.router,
                 static_cast<int8_t>(m.in_dir),
                 static_cast<int8_t>(m.out_dir), flit.head,
                 flit.tail, cycle});
        }
        if (m.out_dir == dirLocal) {
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
            NodeId next;
            int in_dir;
            downstream(m.router, m.out_dir, next, in_dir);
            flit.readyAt = cycle + 1 + cfg.routerLatency;
            pushRouterFlit(next, in_dir, flit);
            ++flitHopCount;
        }
    }

    // Phase 3: injection, one flit per node per cycle. As in
    // phase 1, only nodes with a non-empty inject queue are walked
    // (in ascending node id, via the ordered set) — every skipped
    // node is one a full sweep would `continue` past anyway.
    bool injected = false;
    auto inject_one = [&](NodeId n) {
        auto &q = injectQueues[n];
        if (q.empty())
            return;
        auto &local = routers[n].in[dirLocal].q;
        if (local.size() >= cfg.queueDepth)
            return;
        Packet &pkt = q.front();
        unsigned &progress = injProgress[n];
        if (progress == 0) {
            // Allocate an in-flight table slot on the head flit.
            uint32_t slot;
            if (!freeSlots.empty()) {
                slot = freeSlots.back();
                freeSlots.pop_back();
                inFlight[slot] = pkt;
            } else {
                slot = static_cast<uint32_t>(inFlight.size());
                inFlight.push_back(pkt);
            }
            frontPacketIdx[n] = slot;
        }
        Flit flit;
        flit.head = (progress == 0);
        flit.tail = (progress == pkt.sizeFlits - 1);
        flit.dst = pkt.dst;
        flit.packetIdx = frontPacketIdx[n];
        flit.readyAt = cycle + 1 + cfg.routerLatency;
        if (trace::kEnabled && sink) {
            sink->flits.push_back(
                {pkt.id, n, trace::kDirInject,
                 static_cast<int8_t>(dirLocal), flit.head,
                 flit.tail, cycle});
        }
        pushRouterFlit(n, dirLocal, flit);
        injected = true;
        ++progress;
        if (progress == pkt.sizeFlits) {
            progress = 0;
            q.pop_front();
            --pendingInjectPackets;
            if (q.empty())
                activeInjectors.erase(n);
        }
    };
    // Snapshot: inject_one erases a drained node from the set.
    std::vector<NodeId> injectors(activeInjectors.begin(),
                                  activeInjectors.end());
    for (NodeId n : injectors)
        inject_one(n);

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
