#include "runtime/serving_loop.hh"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/logging.hh"
#include "engine/event_queue.hh"
#include "fault/injector.hh"

namespace maicc
{

namespace
{

// Sum per-shard used-core step functions into one cluster-wide
// timeline: one sample per distinct event cycle; within a shard
// the last sample at a cycle wins.
std::vector<UtilizationSample>
mergeShardTimelines(
    const std::vector<std::vector<UtilizationSample>> &per_shard)
{
    std::vector<size_t> idx(per_shard.size(), 0);
    std::vector<unsigned> cur(per_shard.size(), 0);
    std::vector<UtilizationSample> out;
    for (;;) {
        Cycles next = ShardEngine::kNever;
        for (size_t s = 0; s < per_shard.size(); ++s) {
            if (idx[s] < per_shard[s].size())
                next = std::min(next, per_shard[s][idx[s]].cycle);
        }
        if (next == ShardEngine::kNever)
            break;
        for (size_t s = 0; s < per_shard.size(); ++s) {
            while (idx[s] < per_shard[s].size()
                   && per_shard[s][idx[s]].cycle == next) {
                cur[s] = per_shard[s][idx[s]].usedCores;
                ++idx[s];
            }
        }
        unsigned total =
            std::accumulate(cur.begin(), cur.end(), 0u);
        out.push_back({next, total});
    }
    return out;
}

} // namespace

ServingResult
runServingLoop(const ServingConfig &cfg,
               const std::vector<ServedModel> &models,
               const std::vector<unsigned> &min_cores,
               const std::vector<ServingArrival> &arrivals,
               const std::vector<uint64_t> &shard_masks,
               unsigned n_chips, const ShardEngine::ProfileFn &profile,
               const FaultInjector *injector,
               std::vector<ServingResult> *slices)
{
    constexpr Cycles kNever = ShardEngine::kNever;
    constexpr int kLaneFault = -3;
    constexpr int kLaneTimeout = -2;
    const int kLaneArrive = int(n_chips);
    const int kLaneRetry = int(n_chips) + 1;

    maicc_assert(n_chips >= 1);
    maicc_assert(shard_masks.size() == models.size());

    ServingResult res;
    res.offered = arrivals.size();
    res.sloCycles = cfg.sloCycles;
    // Only selects the stats-dump schema (ServingResult::recovery).
    res.recovery = recoveryActive(cfg);
    res.requests.resize(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
        RequestRecord &r = res.requests[i];
        r.id = i;
        r.model = arrivals[i].model;
        r.priorityClass = models[r.model].priorityClass;
        r.arrival = arrivals[i].cycle;
    }

    std::vector<std::unique_ptr<ShardEngine>> shards;
    shards.reserve(n_chips);
    for (unsigned i = 0; i < n_chips; ++i) {
        shards.push_back(std::make_unique<ShardEngine>(
            cfg, models, min_cores, res.requests, profile, i));
    }

    EventQueue eq;
    size_t next_arrival = 0;
    Cycles now = 0;

    // Requests parked between a timeout and their retry event —
    // in-flight work the cutoff predicate must see.
    size_t limbo = 0;

    // Timeout staleness guard: every enqueue of a request bumps
    // its epoch, and a timeout armed under an older epoch fires as
    // a no-op (the §15 stale-event rule, applied to
    // requests instead of finish cycles).
    std::vector<unsigned> epoch(res.requests.size(), 0);

    // Dispatcher state. A shard is eligible when its mask has the
    // model, it could ever hold the model's minimum group (alive,
    // budget and surviving region large enough) and its waiting
    // room has space. Model-affinity "warmth" is which shard
    // dispatched which model before — a pure function of the
    // seeded stream, never of TimingResultCache occupancy, so
    // dispatch is identical with the sim cache on or off.
    unsigned rr_next = 0;
    std::vector<std::vector<char>> served(
        n_chips, std::vector<char>(models.size(), 0));
    auto eligible = [&](unsigned s, size_t model) {
        return ((shard_masks[model] >> s) & 1)
            && shards[s]->canServe(min_cores[model])
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
            for (unsigned k = 0; k < n_chips; ++k) {
                unsigned s = (rr_next + k) % n_chips;
                if (eligible(s, model)) {
                    rr_next = (s + 1) % n_chips;
                    return int(s);
                }
            }
            return -1;
          }
          case ShardPolicy::LeastLoaded:
          case ShardPolicy::ModelAffinity: {
            int best = -1, warm_best = -1;
            for (unsigned s = 0; s < n_chips; ++s) {
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

    // Every event kind is one handler registered once (gem5's
    // member-event style); an event carries only its payload — the
    // shard, request or fault index it concerns — so scheduling
    // allocates nothing. Ids are assigned before any handler runs,
    // which lets the handlers schedule one another.
    EventQueue::HandlerId wake_h = 0, timeout_h = 0, retry_h = 0,
                          arrive_h = 0, fault_h = 0;

    // Completion wake-up scheduling per shard: one wake armed at
    // the earliest pending finish whenever that moves earlier. A
    // wake whose batch already retired (or was killed by a
    // fail-stop) re-checks nextFinish()==t and fires as a no-op.
    std::vector<Cycles> armed(n_chips, kNever);
    auto arm = [&](unsigned s) {
        Cycles nf = shards[s]->nextFinish();
        if (nf == kNever || nf >= armed[s])
            return;
        armed[s] = nf;
        eq.schedule(nf, int(s), wake_h, s);
    };
    auto wake = [&](Cycles t, uint64_t s) {
        if (armed[s] <= t)
            armed[s] = kNever;
        while (shards[s]->nextFinish() == t) {
            now = t;
            shards[s]->complete(t);
            shards[s]->tryAdmit(t);
        }
        arm(unsigned(s));
    };

    auto resetRecord = [](RequestRecord &r) {
        r.start = 0;
        r.finish = 0;
        r.cores = 0;
        r.batchSize = 1;
        r.completed = false;
    };
    auto backoff = [&](unsigned k) -> Cycles {
        if (cfg.backoffCycles == 0)
            return 0;
        return cfg.backoffCycles << std::min(k - 1, 20u);
    };

    // Queueing timeouts. Each is armed timeoutCycles after the
    // event that enqueued its request, and events run in cycle
    // order, so deadlines come due in the order they were armed: a
    // FIFO holds them, and one event at the oldest deadline stands
    // for all of them. Timeouts due at one cycle then run in arming
    // order, which is the order their own events would have had in
    // the timeout lane. Nothing enqueues while the timeout event
    // runs, so "FIFO non-empty" is exactly "timeout event pending".
    struct PendingTimeout
    {
        Cycles due;
        uint64_t id;
        unsigned epoch;
    };
    std::deque<PendingTimeout> timeouts;
    auto scheduleTimeout = [&](uint64_t id, Cycles t) {
        if (cfg.timeoutCycles == 0)
            return;
        Cycles due = t + cfg.timeoutCycles;
        if (timeouts.empty())
            eq.schedule(due, kLaneTimeout, timeout_h, 0);
        timeouts.push_back({due, id, ++epoch[id]});
    };
    // A timeout that only fires as a no-op: its request left the
    // queue of that epoch for good, re-enqueued (new epoch) or
    // admitted (cores granted).
    auto stale = [&](const PendingTimeout &p) {
        return epoch[p.id] != p.epoch || res.requests[p.id].cores > 0;
    };
    auto expire = [&](const PendingTimeout &p, Cycles t) {
        if (epoch[p.id] != p.epoch)
            return; // re-enqueued since — stale
        RequestRecord &r = res.requests[p.id];
        if (!shards[r.shard]->removeQueued(p.id))
            return; // admitted meanwhile — never interrupt
        now = t;
        resetRecord(r);
        ++r.retries;
        if (r.retries > cfg.maxRetries) {
            r.timedOut = true;
            return;
        }
        ++limbo;
        eq.schedule(t + backoff(r.retries), kLaneRetry, retry_h,
                    p.id);
    };
    auto timeout = [&](Cycles t, uint64_t) {
        while (!timeouts.empty() && timeouts.front().due <= t) {
            expire(timeouts.front(), t);
            timeouts.pop_front();
        }
        while (!timeouts.empty() && stale(timeouts.front()))
            timeouts.pop_front();
        if (!timeouts.empty())
            eq.schedule(timeouts.front().due, kLaneTimeout, timeout_h,
                        0);
    };

    auto redispatch = [&](uint64_t id, Cycles t) -> bool {
        size_t model = res.requests[id].model;
        int target = pick_shard(model);
        if (target < 0)
            return false;
        served[target][model] = 1;
        bool ok = shards[target]->enqueue(id);
        maicc_assert(ok);
        scheduleTimeout(id, t);
        shards[target]->tryAdmit(t);
        arm(unsigned(target));
        return true;
    };

    auto retry = [&](Cycles t, uint64_t id) {
        --limbo;
        now = t;
        if (redispatch(id, t))
            return;
        // Nowhere to go right now: that consumes an attempt too,
        // so a request the cluster can never place again converges
        // to timed-out instead of retrying forever.
        RequestRecord &r = res.requests[id];
        ++r.retries;
        if (r.retries > cfg.maxRetries) {
            r.timedOut = true;
            return;
        }
        ++limbo;
        eq.schedule(t + backoff(r.retries), kLaneRetry, retry_h, id);
    };

    // Displaced requests (failover off a faulted shard) do not
    // consume retry budget — the request did nothing wrong.
    auto failover = [&](const std::vector<uint64_t> &displaced,
                        Cycles t) {
        if (!displaced.empty())
            now = t;
        for (uint64_t id : displaced) {
            RequestRecord &r = res.requests[id];
            resetRecord(r);
            ++epoch[id]; // cancel any pending queueing timeout
            if (redispatch(id, t)) {
                ++res.failovers;
            } else {
                r.rejected = true;
                ++res.rejected;
            }
        }
    };

    auto applyFault = [&](Cycles t, uint64_t index) {
        const FaultEvent &e = injector->schedule()[index];
        ShardEngine &sh = *shards[e.chip];
        if (sh.dead())
            return; // nothing left to break — not counted
        switch (e.kind) {
          case FaultKind::ChipFailStop:
            ++res.faultChipFailStop;
            failover(sh.failStop(t), t);
            break;
          case FaultKind::CoreLoss:
            ++res.faultCoreLoss;
            failover(sh.loseCores(e.count, t), t);
            break;
          case FaultKind::DramOutage: {
            ++res.faultDramOutage;
            unsigned ch = cfg.system.dramChannels;
            maicc_assert(e.count < ch);
            double f = double(ch) / double(ch - e.count);
            sh.pushSlowdown(t, e.until ? e.until : kNever, f);
            break;
          }
          case FaultKind::NocDegrade:
            ++res.faultNocDegrade;
            sh.pushSlowdown(t, e.until ? e.until : kNever,
                            e.factor);
            break;
        }
    };

    auto arrive = [&](Cycles t, uint64_t) {
        uint64_t id = next_arrival++;
        now = t;
        if (next_arrival < arrivals.size()) {
            eq.schedule(arrivals[next_arrival].cycle, kLaneArrive,
                        arrive_h, 0);
        }
        RequestRecord &r = res.requests[id];
        // Overload shedding gates *fresh* arrivals only: work the
        // cluster already accepted (retries, failovers) is never
        // shed.
        if (cfg.shedQueueDepth != 0) {
            size_t depth = 0;
            for (const auto &s : shards)
                depth += s->queueDepth();
            if (depth >= cfg.shedQueueDepth) {
                r.shed = true;
                return;
            }
        }
        if (!redispatch(id, t)) {
            r.rejected = true;
            ++res.rejected;
        }
    };

    wake_h = eq.addHandler(wake);
    timeout_h = eq.addHandler(timeout);
    retry_h = eq.addHandler(retry);
    arrive_h = eq.addHandler(arrive);
    fault_h = eq.addHandler(applyFault);

    if (injector) {
        const std::vector<FaultEvent> &faults = injector->schedule();
        for (size_t i = 0; i < faults.size(); ++i)
            eq.schedule(faults[i].cycle, kLaneFault, fault_h, i);
    }
    if (!arrivals.empty())
        eq.schedule(arrivals[0].cycle, kLaneArrive, arrive_h, 0);

    while (!eq.empty()) {
        if (cfg.cutoff && eq.nextAt() > cfg.cutoff)
            break;
        eq.step();
    }

    // Truncated iff request work remained past the cutoff: future
    // arrivals, running batches, queued requests, or retries
    // parked in limbo. Leftover fault events alone are not work.
    // The measured window ends at the cutoff only when it truncated
    // the run; a drained run ends at its last event (an unreached
    // cutoff would deflate throughput and utilization).
    bool work_left = next_arrival < arrivals.size() || limbo > 0;
    for (const auto &s : shards)
        work_left = work_left || !s->idle() || s->queueDepth() > 0;
    bool truncated = cfg.cutoff != 0 && work_left;
    res.endCycle = truncated ? cfg.cutoff : now;

    // Aggregate floor: the smallest profile any shard admitted
    // with (a shard that admitted nothing reports 0 and is
    // skipped).
    std::vector<std::vector<UtilizationSample>> timelines;
    timelines.reserve(n_chips);
    for (const auto &s : shards) {
        Cycles m = s->minServiceLatencySeen();
        if (m && (res.minServiceLatency == 0
                  || m < res.minServiceLatency))
            res.minServiceLatency = m;
        timelines.push_back(s->takeTimeline());
    }
    // One chip's timeline is the aggregate as recorded; merging
    // would fold its same-cycle samples.
    res.coreTimeline = n_chips == 1 ? timelines[0]
                                    : mergeShardTimelines(timelines);
    finalizeServingResult(res, cfg.sloCycles,
                          n_chips * cfg.system.coreBudget);
    if (!slices)
        return res;

    // Per-shard slices: the shard's own requests and timeline,
    // summarized with the same arithmetic against the shared
    // clock. Rejections and sheds belong to the dispatcher, not a
    // shard; a timed-out request reports in the shard it last
    // waited on.
    for (unsigned i = 0; i < n_chips; ++i) {
        ServingResult slice;
        slice.recovery = res.recovery;
        slice.endCycle = res.endCycle;
        slice.sloCycles = cfg.sloCycles;
        slice.minServiceLatency = shards[i]->minServiceLatencySeen();
        slice.coreTimeline = std::move(timelines[i]);
        for (const RequestRecord &r : res.requests) {
            if (!r.rejected && !r.shed && r.shard == i)
                slice.requests.push_back(r);
        }
        slice.offered = slice.requests.size();
        finalizeServingResult(slice, cfg.sloCycles,
                              cfg.system.coreBudget);
        slices->push_back(std::move(slice));
    }
    return res;
}

} // namespace maicc
