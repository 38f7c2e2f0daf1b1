#include "runtime/cluster.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "engine/event_queue.hh"
#include "runtime/recovery.hh"
#include "runtime/shard.hh"

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
        // Delegate outright: the single-chip path, untouched.
        out.aggregate = inner.run();
        out.shards.push_back(out.aggregate);
        publishStats(out);
        return out;
    }

    constexpr Cycles kNever = ShardEngine::kNever;
    const std::vector<ServedModel> &models = inner.servedModels();
    const std::vector<unsigned> &min_cores = inner.minCoresTable();
    maicc_assert(shardMasks.size() == models.size());

    ServingResult &agg = out.aggregate;
    std::vector<ServingArrival> arrivals = inner.arrivals();
    agg.offered = arrivals.size();
    agg.sloCycles = cfg.sloCycles;
    agg.requests.resize(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
        agg.requests[i].id = i;
        agg.requests[i].model = arrivals[i].model;
        agg.requests[i].priorityClass =
            models[arrivals[i].model].priorityClass;
        agg.requests[i].arrival = arrivals[i].cycle;
    }

    if (recoveryActive(cfg)) {
        // Recovery semantics requested: the unified recovery loop
        // (recovery.cc) replaces the fast path below, driving
        // every shard off the inner simulator's fault injector.
        auto shard_out = runRecoveryLoop(
            cfg, models, min_cores, arrivals, shardMasks, nChips,
            [this](size_t model,
                   unsigned cores) -> const ServiceProfile & {
                return inner.profile(model, cores);
            },
            inner.faultInjector(), agg);
        agg.minServiceLatency = 0;
        std::vector<std::vector<UtilizationSample>> timelines;
        timelines.reserve(nChips);
        for (unsigned i = 0; i < nChips; ++i) {
            Cycles m = shard_out[i].minServiceLatency;
            if (m && (agg.minServiceLatency == 0
                      || m < agg.minServiceLatency))
                agg.minServiceLatency = m;
            timelines.push_back(std::move(shard_out[i].timeline));
        }
        agg.coreTimeline = mergeShardTimelines(timelines);
        finalizeServingResult(agg, cfg.sloCycles,
                              nChips * cfg.system.coreBudget);
        for (unsigned i = 0; i < nChips; ++i) {
            ServingResult slice;
            slice.recovery = true;
            slice.endCycle = agg.endCycle;
            slice.sloCycles = cfg.sloCycles;
            slice.minServiceLatency = shard_out[i].minServiceLatency;
            slice.coreTimeline = std::move(timelines[i]);
            // Rejections and sheds belong to the dispatcher, not a
            // shard; timed-out requests were dispatched somewhere
            // and report in that shard's slice.
            for (const RequestRecord &r : agg.requests) {
                if (!r.rejected && !r.shed && r.shard == i)
                    slice.requests.push_back(r);
            }
            slice.offered = slice.requests.size();
            finalizeServingResult(slice, cfg.sloCycles,
                                  cfg.system.coreBudget);
            out.shards.push_back(std::move(slice));
        }
        publishStats(out);
        return out;
    }

    // One independent chip per shard; all pull profiles from the
    // shared profiler (identical hardware, so a (model, cores)
    // profile is simulated at most once per run).
    std::vector<std::unique_ptr<ShardEngine>> shards;
    shards.reserve(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        shards.push_back(std::make_unique<ShardEngine>(
            cfg, models, min_cores, agg.requests,
            [this](size_t model,
                   unsigned cores) -> const ServiceProfile & {
                return inner.profile(model, cores);
            },
            i));
    }

    // Dispatcher state. Model-affinity "warmth" is which shard
    // dispatched which model before — a pure function of the seeded
    // stream, never of TimingResultCache occupancy, so dispatch is
    // identical with the sim cache on or off.
    unsigned rr_next = 0;
    std::vector<std::vector<char>> served(
        nChips, std::vector<char>(models.size(), 0));

    auto eligible = [&](unsigned s, size_t model) {
        return ((shardMasks[model] >> s) & 1)
            && !shards[s]->queueFull();
    };
    // Least-loaded rule: most free cores, then shortest waiting
    // queue, then lowest index — all deterministic tie-breaks.
    auto better = [&](unsigned a, unsigned b) {
        if (shards[a]->freeCores() != shards[b]->freeCores())
            return shards[a]->freeCores() > shards[b]->freeCores();
        return shards[a]->queueDepth() < shards[b]->queueDepth();
    };
    auto pick_shard = [&](size_t model) -> int {
        switch (cfg.shardPolicy) {
          case ShardPolicy::RoundRobin: {
            for (unsigned k = 0; k < nChips; ++k) {
                unsigned s = (rr_next + k) % nChips;
                if (eligible(s, model)) {
                    rr_next = (s + 1) % nChips;
                    return int(s);
                }
            }
            return -1;
          }
          case ShardPolicy::LeastLoaded:
          case ShardPolicy::ModelAffinity: {
            int best = -1, warm_best = -1;
            for (unsigned s = 0; s < nChips; ++s) {
                if (!eligible(s, model))
                    continue;
                if (best < 0 || better(s, unsigned(best)))
                    best = int(s);
                if (served[s][model]
                    && (warm_best < 0
                        || better(s, unsigned(warm_best))))
                    warm_best = int(s);
            }
            if (cfg.shardPolicy == ShardPolicy::ModelAffinity
                && warm_best >= 0)
                return warm_best;
            return best;
          }
        }
        return -1;
    };

    // The cross-shard event loop: same skeleton as the single-chip
    // one, with "next completion" minimized over every shard
    // (ties: lowest shard index) and arrivals routed through the
    // dispatcher. Completions before arrivals at equal cycles, per
    // shard and across shards — the single-chip tie-break, kept.
    size_t next_arrival = 0;
    Cycles now = 0;
    bool truncated = false;
    auto any_running = [&]() {
        for (const auto &s : shards)
            if (!s->idle())
                return true;
        return false;
    };
    auto dispatch = [&](Cycles t) {
        uint64_t id = next_arrival++;
        now = t;
        size_t model = arrivals[id].model;
        int target = pick_shard(model);
        if (target < 0) {
            // No shard has the model registered with room to
            // queue it: cluster-level admission control.
            agg.requests[id].rejected = true;
            ++agg.rejected;
            return -1;
        }
        served[target][model] = 1;
        bool ok = shards[target]->enqueue(id);
        maicc_assert(ok);
        shards[target]->tryAdmit(now);
        return target;
    };
    if (cfg.system.engine == EngineKind::Event) {
        // Skip-ahead variant: the same processing order, reached
        // by wake-up events instead of re-minimizing over every
        // shard per iteration. Priority = shard index for
        // completion wakes and nChips for arrivals encodes the
        // ticked loop's tie-breaks (lowest shard first, all
        // completions before any arrival at equal cycles).
        EventQueue eq;
        const int kPrioArrive = int(nChips);
        // Earliest outstanding completion wake per shard; a wake
        // whose finish was already drained by an earlier duplicate
        // fires as a harmless no-op (DESIGN.md §15 stale rule).
        // Both event kinds are handlers registered once; a wake's
        // payload is its shard.
        std::vector<Cycles> armed(nChips, kNever);
        EventQueue::HandlerId wake_h = 0, arrive_h = 0;
        auto arm = [&](unsigned s) {
            Cycles nf = shards[s]->nextFinish();
            if (nf == kNever || nf >= armed[s])
                return;
            armed[s] = nf;
            eq.schedule(nf, int(s), wake_h, s);
        };
        wake_h = eq.addHandler([&](Cycles t, uint64_t s) {
            if (armed[s] <= t)
                armed[s] = kNever;
            while (shards[s]->nextFinish() == t) {
                now = t;
                shards[s]->complete(t);
                shards[s]->tryAdmit(t);
            }
            arm(unsigned(s));
        });
        arrive_h = eq.addHandler([&](Cycles t, uint64_t) {
            if (next_arrival + 1 < arrivals.size()) {
                eq.schedule(arrivals[next_arrival + 1].cycle,
                            kPrioArrive, arrive_h, 0);
            }
            int target = dispatch(t);
            if (target >= 0)
                arm(unsigned(target));
        });
        if (!arrivals.empty())
            eq.schedule(arrivals[0].cycle, kPrioArrive, arrive_h, 0);
        while (!eq.empty()) {
            if (cfg.cutoff && eq.nextAt() > cfg.cutoff)
                break;
            eq.step();
        }
        // Any event left beyond the cutoff implies undone work
        // (arrivals still queued, or a batch still in flight) —
        // the ticked loop's exit predicate, evaluated on the end
        // state.
        truncated = cfg.cutoff != 0
            && (next_arrival < arrivals.size() || any_running());
    } else {
        while (next_arrival < arrivals.size() || any_running()) {
            Cycles t_arrive = next_arrival < arrivals.size()
                ? arrivals[next_arrival].cycle
                : kNever;
            Cycles t_finish = kNever;
            unsigned finish_shard = 0;
            for (unsigned s = 0; s < nChips; ++s) {
                if (shards[s]->nextFinish() < t_finish) {
                    t_finish = shards[s]->nextFinish();
                    finish_shard = s;
                }
            }
            Cycles t_next = std::min(t_arrive, t_finish);
            if (cfg.cutoff && t_next > cfg.cutoff) {
                truncated = true;
                break;
            }
            now = t_next;
            if (t_finish <= t_arrive) {
                shards[finish_shard]->complete(now);
                shards[finish_shard]->tryAdmit(now);
            } else {
                dispatch(now);
            }
        }
    }

    agg.endCycle = truncated ? cfg.cutoff : now;

    // Aggregate floor: smallest profile any shard actually admitted
    // with (shards that admitted nothing report 0 and are skipped).
    agg.minServiceLatency = 0;
    std::vector<std::vector<UtilizationSample>> timelines;
    timelines.reserve(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        Cycles m = shards[i]->minServiceLatencySeen();
        if (m && (agg.minServiceLatency == 0
                  || m < agg.minServiceLatency))
            agg.minServiceLatency = m;
        timelines.push_back(shards[i]->takeTimeline());
    }
    agg.coreTimeline = mergeShardTimelines(timelines);
    finalizeServingResult(agg, cfg.sloCycles,
                          nChips * cfg.system.coreBudget);

    // Per-shard slices: the shard's own dispatched requests and
    // timeline, summarized with the same arithmetic against the
    // shared clock. Rejections stay with the dispatcher.
    for (unsigned i = 0; i < nChips; ++i) {
        ServingResult slice;
        slice.endCycle = agg.endCycle;
        slice.sloCycles = cfg.sloCycles;
        slice.minServiceLatency =
            shards[i]->minServiceLatencySeen();
        slice.coreTimeline = std::move(timelines[i]);
        for (const RequestRecord &r : agg.requests) {
            if (!r.rejected && r.shard == i)
                slice.requests.push_back(r);
        }
        slice.offered = slice.requests.size();
        finalizeServingResult(slice, cfg.sloCycles,
                              cfg.system.coreBudget);
        out.shards.push_back(std::move(slice));
    }

    publishStats(out);
    return out;
}

} // namespace maicc
