#include "runtime/sim_cache.hh"

#include <utility>

#include "common/config.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "mapping/placement.hh"

namespace maicc
{

namespace
{

/** FNV-1a 64-bit over @p s. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

void
append(std::string &m, uint64_t v)
{
    m += std::to_string(v);
    m += ',';
}

void
append(std::string &m, int v)
{
    m += std::to_string(v);
    m += ',';
}

} // namespace

TimingKey
makeTimingKey(const Network &net, const MappingPlan &plan,
              unsigned batch, const SystemConfig &sys,
              const std::string &fault_sig)
{
    std::string m;
    m.reserve(2048);

    // Network structure: every LayerSpec field that feeds the
    // functional or timing model. The name alone would under-key
    // (two builds could share a name but differ in shape).
    m += "net=";
    m += net.name;
    m += ';';
    for (const LayerSpec &l : net.layers) {
        m += l.name;
        m += ':';
        append(m, int(l.kind));
        append(m, l.inputFrom);
        append(m, l.addFrom);
        append(m, l.inC);
        append(m, l.inH);
        append(m, l.inW);
        append(m, l.outC);
        append(m, l.R);
        append(m, l.S);
        append(m, l.stride);
        append(m, l.pad);
        append(m, int(l.relu));
        append(m, uint64_t(l.shift));
        append(m, uint64_t(l.nBits));
        m += ';';
    }

    // Mapping plan: strategy, budget, and the per-layer node
    // allocation of every segment.
    m += "plan=";
    append(m, int(plan.strategy));
    append(m, uint64_t(plan.coreBudget));
    for (const Segment &seg : plan.segments) {
        m += '[';
        for (const LayerMapping &lm : seg.layers) {
            append(m, uint64_t(lm.layerIdx));
            append(m, uint64_t(lm.alloc.channelSplits));
            append(m, uint64_t(lm.alloc.unitsPerNode));
            append(m, uint64_t(lm.alloc.computeCores));
            append(m, uint64_t(lm.alloc.auxCores));
            m += '/';
        }
        m += ']';
    }
    m += ';';

    // Placement shape of every segment under this geometry —
    // congruent shapes time identically (hop latency is per-edge),
    // so the canonical placeSegment shape stands in for whatever
    // slots a RegionAllocator hands out at serving time.
    m += "place=";
    for (const Segment &seg : plan.segments) {
        m += placementSignature(placeSegment(seg, sys.geometry));
        m += '|';
    }
    m += ';';

    m += "batch=";
    append(m, uint64_t(batch));
    m += ';';

    // SystemConfig subtree via its canonical JSON dump (Json::dump
    // is deterministic: sorted keys, fixed number formatting). The
    // host-side knobs are pinned to 0 first: numThreads and
    // simCacheEntries change the simulator's wall-clock, never its
    // results (the PR 1 determinism contract), so they must not
    // fragment the key space.
    SystemConfig pinned = sys;
    pinned.numThreads = 0;
    pinned.simCacheEntries = 0;
    m += "sys=";
    m += toJson(pinned).dump();

    // Fault-configuration signature, appended only when non-empty:
    // fault-free keys stay byte-identical to the pre-fault format
    // (warm caches keep hitting), while profiles probed under an
    // active schedule can never replay across topologies.
    if (!fault_sig.empty()) {
        m += ";faults=";
        m += fault_sig;
    }

    TimingKey key;
    key.material = std::move(m);
    key.hash = fnv1a(key.material);
    return key;
}

TimingResultCache::TimingResultCache(unsigned capacity)
    : SimComponent("simCache"), cap(capacity)
{}

TimingResultCache &
TimingResultCache::global()
{
    static TimingResultCache instance;
    return instance;
}

void
TimingResultCache::setCapacity(unsigned entries)
{
    cap = entries;
    while (lru.size() > cap) {
        index.erase(lru.back().key.material);
        lru.pop_back();
        ++nEvictions;
    }
}

const CachedRun *
TimingResultCache::lookup(const TimingKey &key)
{
    auto it = index.find(key.material);
    if (it == index.end()) {
        ++nMisses;
        return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second);
    ++nHits;
    return &lru.front().run;
}

void
TimingResultCache::insert(const TimingKey &key, CachedRun run)
{
    if (cap == 0)
        return;
    auto it = index.find(key.material);
    if (it != index.end()) {
        lru.erase(it->second);
        index.erase(it);
    }
    lru.push_front(Entry{key, std::move(run)});
    index[key.material] = lru.begin();
    ++nInsertions;
    while (lru.size() > cap) {
        index.erase(lru.back().key.material);
        lru.pop_back();
        ++nEvictions;
    }
}

void
TimingResultCache::clear()
{
    lru.clear();
    index.clear();
}

void
TimingResultCache::reset()
{
    clear();
    nHits = nMisses = nInsertions = nEvictions = 0;
    SimComponent::reset();
}

void
TimingResultCache::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("hits", nHits);
    publish("misses", nMisses);
    publish("insertions", nInsertions);
    publish("evictions", nEvictions);
    publish("entries", lru.size());
}

} // namespace maicc
