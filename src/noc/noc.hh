/**
 * @file
 * Cycle-level 2D-mesh network-on-chip (the booksim2 substitute,
 * paper §3.1/§5): input-queued wormhole routers, dimension-order
 * (X-Y) routing, credit-based flow control, one flit per link per
 * cycle. Remote load/store packets carry 32-bit payloads (§3.1);
 * a CMem row transfer is one head flit plus eight payload flits.
 *
 * The model counts flit-hops so the energy model can charge the
 * paper's 5.4 pJ per flit per hop.
 */

#ifndef MAICC_NOC_NOC_HH
#define MAICC_NOC_NOC_HH

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "common/sim_component.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace maicc
{

/** Topology and router parameters. */
struct NocConfig
{
    int width = 16;              ///< mesh columns
    int height = 16;             ///< mesh rows
    unsigned routerLatency = 2;  ///< per-hop pipeline cycles
    unsigned queueDepth = 4;     ///< flits per input queue
};

/** An in-flight packet. Payload words ride with the head flit. */
struct Packet
{
    NodeId src = 0;
    NodeId dst = 0;
    unsigned sizeFlits = 1; ///< head + payload flits
    uint64_t id = 0;
    uint64_t tag = 0;       ///< user cookie (message handle)
    Cycles injectTime = 0;
};

/**
 * The mesh. Drive with tick(); packets appear on per-node delivery
 * queues once their tail flit ejects.
 *
 * Concurrency model (DESIGN.md): the mesh is *mesh-shared* state
 * with a single owner — all routers advance together in tick(), so
 * the router pass runs on one thread, between the barriers that
 * end the parallel node-stepping shards. Shard workers must not
 * call inject()/tick()/delivered() directly; they stage traffic in
 * a ShardedInjector, which the owner commits in shard order at the
 * barrier.
 */
class MeshNoc : public SimComponent
{
  public:
    /**
     * Router port numbering, public so traces (common/trace.hh)
     * and the invariant checkers (src/check) can name ports.
     */
    static constexpr int dirLocal = 0;
    static constexpr int dirEast = 1;
    static constexpr int dirWest = 2;
    static constexpr int dirSouth = 3;
    static constexpr int dirNorth = 4;
    static constexpr int numDirs = 5;

    explicit MeshNoc(const NocConfig &cfg = NocConfig{});

    const NocConfig &config() const { return cfg; }

    NodeId
    nodeId(int x, int y) const
    {
        return y * cfg.width + x;
    }

    NodeCoord
    coord(NodeId id) const
    {
        return {id % cfg.width, id / cfg.width};
    }

    /** Manhattan distance between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /**
     * Zero-load latency from injection to full delivery: every
     * traversed router (hops + 1 of them) costs routerLatency
     * pipeline cycles plus one link cycle; the tail trails the
     * head by sizeFlits - 1 cycles.
     */
    Cycles
    zeroLoadLatency(unsigned hop_count, unsigned size_flits) const
    {
        return Cycles(hop_count + 1) * (cfg.routerLatency + 1)
            + (size_flits - 1);
    }

    /** Queue @p pkt for injection at the current cycle. */
    void inject(Packet pkt);

    /** Advance one cycle. */
    void tick();

    /**
     * Run until nothing is in flight (or @p max_cycles). Cycles
     * in which no flit can move (all queued flits still in router
     * pipelines) are skipped in one jump to the next eligibility
     * cycle — the observable end state, final cycle count, and
     * every counter are those of calling tick() every cycle (the
     * skipped ticks are provably no-ops).
     */
    void drain(Cycles max_cycles = 10'000'000);

    Cycles now() const { return cycle; }

    /**
     * True when no flits are queued or in flight anywhere.
     * O(1): maintained packet/flit counters, not a mesh scan.
     */
    bool idle() const;

    /** Packets fully delivered at node @p id, in arrival order. */
    std::deque<Packet> &delivered(NodeId id);

    uint64_t flitHops() const { return flitHopCount; }
    uint64_t packetsDelivered() const { return deliveredCount; }

    /** Mean packet latency (inject -> tail ejected). */
    double avgPacketLatency() const;

    /**
     * Return to cycle 0 with empty queues and zeroed counters;
     * the trace sink (SimComponent::setTrace) stays attached.
     */
    void reset() override;

    /** Publish flit-hop/delivery/latency counters into stats(). */
    void recordStats() override;

  private:
    struct Flit
    {
        bool head = false;
        bool tail = false;
        NodeId dst = 0;
        uint32_t packetIdx = 0; ///< index into inFlight
        Cycles readyAt = 0;     ///< router-pipeline eligibility
    };

    struct InputQueue
    {
        std::deque<Flit> q;
    };

    struct Router
    {
        InputQueue in[numDirs];
        int outLockedTo[numDirs]; ///< input dir owning output, -1
        unsigned rrNext[numDirs]; ///< round-robin pointer
    };

    /** X-Y route: output direction at router @p at for @p dst. */
    int route(NodeId at, NodeId dst) const;

    /** Router/direction the given output port feeds into. */
    void downstream(NodeId at, int out_dir, NodeId &next,
                    int &in_dir) const;

    /** Queue-maintenance helpers keeping the active sets and the
     * O(1) idle() counters consistent with every push/pop. */
    void pushRouterFlit(NodeId n, int in_dir, const Flit &f);
    void popRouterFlit(NodeId n, int in_dir);

    /**
     * Earliest front-flit pipeline eligibility at or after
     * @p from, over the active routers only; kNeverReady when no
     * front can ever become newly eligible (the deadlock test in
     * the event drain).
     */
    static constexpr Cycles kNeverReady = ~Cycles(0);
    Cycles nextFrontReadyAtOrAfter(Cycles from) const;

    NocConfig cfg;
    Cycles cycle = 0;
    std::vector<Router> routers;
    std::vector<std::deque<Packet>> injectQueues;
    std::vector<std::deque<Packet>> deliverQueues;
    std::vector<Packet> inFlight;     ///< packet table slots
    std::vector<uint32_t> freeSlots;  ///< recycled table slots
    std::vector<unsigned> injProgress;    ///< per-node flit count
    std::vector<uint32_t> frontPacketIdx; ///< per-node table slot
    uint64_t nextPacketId = 1;
    uint64_t flitHopCount = 0;
    uint64_t deliveredCount = 0;
    double latencySum = 0.0;

    // Active-set / O(1)-idle bookkeeping (kept consistent by
    // pushRouterFlit/popRouterFlit and the injection path).
    // activeRouters/activeInjectors are ordered sets: tick()
    // iterates them in ascending node id, the same relative order
    // as a sweep over every node — that is what keeps the move
    // list (and thus every commit, stat update, and
    // floating-point accumulation) identical to that sweep.
    std::vector<uint32_t> routerFlits; ///< flits queued per router
    uint64_t queuedFlits = 0;          ///< total router-queued flits
    uint64_t pendingInjectPackets = 0; ///< packets not fully injected
    std::set<NodeId> activeRouters;    ///< routers with >=1 flit
    std::set<NodeId> activeInjectors;  ///< nodes with inject backlog
    bool lastTickProgress = false; ///< last tick moved/injected
};

/**
 * Deterministic injection staging for parallel node stepping.
 * Packet ids and inject-queue order are assigned by the mesh at
 * inject() time, so concurrent inject() calls would make them
 * depend on thread scheduling. Instead each shard stages its
 * packets into a shard-private queue (no synchronization, no
 * false sharing on the id counter) and the mesh owner commits all
 * staged traffic in shard-index order at the barrier — the same
 * ids and ordering as a serial run that visits shards in order.
 */
class ShardedInjector
{
  public:
    explicit ShardedInjector(size_t num_shards);

    size_t shards() const { return staged.size(); }

    /** Stage @p pkt from @p shard. Safe concurrently per shard. */
    void stage(size_t shard, Packet pkt);

    /**
     * Inject every staged packet into @p noc, shard 0 first, each
     * shard's packets in staging order; clears the stage.
     * @return packets committed. Owner-thread only.
     */
    size_t commit(MeshNoc &noc);

  private:
    std::vector<std::vector<Packet>> staged;
};

} // namespace maicc

#endif // MAICC_NOC_NOC_HH
