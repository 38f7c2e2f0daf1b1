#include "runtime/cluster.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/serving_loop.hh"

namespace maicc
{

ClusterSimulator::ClusterSimulator(ServingConfig config)
    : SimComponent("cluster"), cfg(std::move(config)),
      nChips(std::max(1u, cfg.chips)), inner(cfg)
{
    maicc_assert(nChips <= 64); // shard masks are uint64_t
    chipStats.reserve(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        chipStats.push_back(std::make_unique<SimComponent>(
            "chip" + std::to_string(i)));
    }
}

size_t
ClusterSimulator::addModel(ServedModel m, uint64_t shard_mask)
{
    uint64_t all = nChips == 64 ? ~0ull : (1ull << nChips) - 1;
    uint64_t mask = shard_mask & all;
    maicc_assert(mask != 0); // must cover >= 1 configured shard
    size_t idx = inner.addModel(std::move(m));
    shardMasks.push_back(mask);
    return idx;
}

bool
ClusterSimulator::loadTrace(std::istream &in)
{
    return inner.loadTrace(in);
}

bool
ClusterSimulator::loadTraceFile(const std::string &path)
{
    return inner.loadTraceFile(path);
}

void
ClusterSimulator::setTimingCache(TimingResultCache *cache)
{
    inner.setTimingCache(cache);
}

void
ClusterSimulator::reset()
{
    inner.reset();
    for (auto &c : chipStats)
        c->reset();
    SimComponent::reset();
}

void
ClusterSimulator::attach(SimContext &ctx, const std::string &name,
                         const std::string &single_name)
{
    if (nChips == 1) {
        // The legacy layout: one component, the single-chip
        // simulator itself — byte-identical stats dumps to the
        // pre-cluster path by construction.
        inner.attachTo(ctx, single_name);
        return;
    }
    attachTo(ctx, name);
}

void
ClusterSimulator::onAttach()
{
    inner.attachTo(*context(), name() + ".profiler");
    for (auto &c : chipStats)
        c->attachTo(*this);
}

void
ClusterSimulator::publishStats(const ClusterResult &out)
{
    stats().resetAll();
    out.aggregate.dumpStats(stats());
    stats().counter("chips").inc(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        chipStats[i]->stats().resetAll();
        out.shards[i].dumpStats(chipStats[i]->stats());
    }
}

ClusterResult
ClusterSimulator::run()
{
    ScopedHostTimer host_timer(*this);
    ClusterResult out;
    if (nChips == 1) {
        // The single-chip simulator publishes into the legacy
        // component attach() registered.
        out.aggregate = inner.run();
        out.shards.push_back(out.aggregate);
    } else {
        // One shared profiler and fault injector drive every shard.
        out.aggregate = runServingLoop(
            cfg, inner.servedModels(), inner.minCoresTable(),
            inner.arrivals(), shardMasks, nChips,
            [this](size_t model,
                   unsigned cores) -> const ServiceProfile & {
                return inner.profile(model, cores);
            },
            inner.faultInjector(), &out.shards);
    }
    publishStats(out);
    return out;
}

} // namespace maicc
