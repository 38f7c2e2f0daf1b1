#include "runtime/shard.hh"

#include <algorithm>

#include "common/logging.hh"

namespace maicc
{

namespace
{

/**
 * The cycle slowed-down service saturates at: a power of two, so
 * the double comparison below is exact, and half of kNever, which
 * stays the loop's "no event" mark.
 */
constexpr Cycles kEndOfTime = Cycles(1) << 63;

/**
 * @p c scaled by @p slow (>= 1, possibly inf: overlapping windows
 * multiply), saturating at kEndOfTime rather than taking an
 * out-of-range double-to-integer cast.
 */
Cycles
slowedCycles(Cycles c, double slow)
{
    if (c == 0)
        return 0;
    double x = static_cast<double>(c) * slow;
    return x < static_cast<double>(kEndOfTime) ? static_cast<Cycles>(x)
                                               : kEndOfTime;
}

/** now + lat + k * interval, saturating at kEndOfTime. */
Cycles
finishCycle(Cycles now, Cycles lat, Cycles interval, uint64_t k)
{
    Cycles room = now < kEndOfTime ? kEndOfTime - now : 0;
    if (lat >= room || (k && interval > (room - lat) / k))
        return std::max(now, kEndOfTime);
    return now + lat + k * interval;
}

} // namespace

ShardEngine::ShardEngine(const ServingConfig &config,
                         const std::vector<ServedModel> &models_,
                         const std::vector<unsigned> &min_cores,
                         std::vector<RequestRecord> &requests_,
                         ProfileFn profile, unsigned shard_index)
    : cfg(config), models(models_), minCores(min_cores),
      requests(requests_), profileFn(std::move(profile)),
      shardIndex(shard_index), ledger(cfg.system.coreBudget),
      region(cfg.system.geometry),
      queuedPerModel(models.size(), 0),
      policy(makePolicy(cfg.policy, cfg.backfill))
{
    timeline.push_back({0, 0});
}

// Test/debug invariants, asserted at every event when
// cfg.selfCheck is set: the core budget holds, and the ledger
// (budget) and region (physical slots) stay in lock-step with the
// sum of the running regions. The per-model queued counts that
// gate admission match a recount of the queue.
void
ShardEngine::checkInvariants() const
{
    if (!cfg.selfCheck)
        return;
    maicc_assert(ledger.used() <= ledger.total());
    maicc_assert(ledger.used() == coresInFlight);
    maicc_assert(region.totalNodes() - region.freeNodes()
                     - region.deadNodes()
                 == coresInFlight);
    std::vector<unsigned> recount(models.size(), 0);
    for (const QueuedRequest &q : queue)
        ++recount[q.model];
    maicc_assert(recount == queuedPerModel);
}

bool
ShardEngine::anyQueuedFits() const
{
    for (size_t m = 0; m < queuedPerModel.size(); ++m) {
        if (queuedPerModel[m] && minCores[m] <= ledger.freeCores())
            return true;
    }
    return false;
}

std::vector<QueuedRequest>::iterator
ShardEngine::dequeue(std::vector<QueuedRequest>::iterator it)
{
    --queuedPerModel[it->model];
    return queue.erase(it);
}

bool
ShardEngine::enqueue(uint64_t id)
{
    if (queue.size() >= cfg.queueCapacity)
        return false;
    RequestRecord &r = requests[id];
    r.shard = shardIndex;
    QueuedRequest q;
    q.id = id;
    q.model = r.model;
    q.arrival = r.arrival;
    q.priorityClass = r.priorityClass;
    q.minCores = minCores[r.model];
    // Cost estimates (SJF) come from the memoized per-(model,
    // minCores) service profiles; a model's first sight may run a
    // probe simulation. Every caller admits right after enqueueing,
    // so the probe runs at the same event as when admission read
    // it.
    if (policy->wantsCostEstimates())
        q.costEstimate = profileFn(r.model, q.minCores).latency;
    queue.push_back(q);
    ++queuedPerModel[r.model];
    return true;
}

void
ShardEngine::complete(Cycles now)
{
    // Completion bookkeeping: the batch's cores and serpentine
    // slots coalesce back before the caller considers the next
    // event (completion-first-on-ties is the caller's contract).
    maicc_assert(!running.empty());
    Running done = running.top();
    running.pop();
    ledger.release(done.cores);
    region.release(done.grant);
    maicc_assert(coresInFlight >= done.cores);
    coresInFlight -= done.cores;
    timeline.push_back({now, ledger.used()});
}

void
ShardEngine::tryAdmit(Cycles now)
{
    // The queue itself is the policy's snapshot: every field of a
    // QueuedRequest is fixed once the request is queued.
    while (!queue.empty()) {
        // Every policy picks only a request whose minimum group
        // fits the free budget, so when none fits the pick is npos
        // and the policy need not run.
        if (!anyQueuedFits())
            break;
        size_t pos = policy->pick(queue, ledger.freeCores());
        if (pos == AdmissionPolicy::npos)
            break; // nothing admissible at this event
        maicc_assert(pos < queue.size());

        const RequestRecord &head = requests[queue[pos].id];
        unsigned min_cores = minCores[head.model];
        maicc_assert(min_cores <= ledger.freeCores());
        unsigned want = models[head.model].preferredCores;
        // Graceful degradation: once core-loss faults have shrunk
        // the region, wide preferred grants fragment what is left
        // and starve admission — fall back to minimum-region
        // grants so every survivor keeps serving.
        if (region.deadNodes() > 0)
            want = min_cores;
        unsigned grant =
            std::clamp(want == 0 ? min_cores : want, min_cores,
                       ledger.freeCores());

        // Carve a contiguous serpentine region — the shape the
        // (model, cores) service profile was simulated on. Under
        // fragmentation the budget can have cores free with no run
        // long enough: degrade gracefully instead of aborting —
        // retry at the minimum region, else leave the request
        // queued until a completion re-coalesces the region (the
        // region is empty whenever nothing runs, so admission
        // cannot stall forever).
        Running r;
        r.grant = region.allocateContiguous(grant);
        if (r.grant.empty() && grant > min_cores) {
            grant = min_cores;
            r.grant = region.allocateContiguous(grant);
        }
        if (r.grant.empty())
            break;

        bool ok = ledger.tryAllocate(grant);
        maicc_assert(ok);
        coresInFlight += grant;

        // Collect the admitted request plus same-model companions
        // into one batch: only the contiguous same-model run
        // starting at the admitted position, so batching never
        // pulls a request past a different-model one (the
        // no-reordering contract).
        std::vector<uint64_t> &batch = r.members;
        unsigned max_batch = std::max(1u, cfg.maxBatch);
        auto it = queue.begin() + pos;
        while (it != queue.end() && batch.size() < max_batch
               && it->model == head.model) {
            batch.push_back(it->id);
            it = dequeue(it);
        }
        maicc_assert(!batch.empty());

        r.cores = grant;
        r.firstId = batch.front();

        const ServiceProfile &sp = profileFn(head.model, grant);
        Cycles lat = sp.latency;
        Cycles interval = sp.interval;
        // Transient DRAM-outage / NoC-degradation windows scale
        // the service profile at admission time. Applied only when
        // the product differs from 1.0, so a run without slowdowns
        // keeps the exact integer arithmetic.
        double slow = slowdownAt(now);
        if (slow != 1.0) {
            lat = slowedCycles(lat, slow);
            interval = slowedCycles(interval, slow);
        }
        minService = std::min(minService, lat);
        for (size_t k = 0; k < batch.size(); ++k) {
            RequestRecord &req = requests[batch[k]];
            req.start = now;
            req.cores = grant;
            req.batchSize = unsigned(batch.size());
            req.finish = finishCycle(now, lat, interval, k);
            r.finish = req.finish;
        }
        running.push(std::move(r));
        timeline.push_back({now, ledger.used()});
    }
    checkInvariants();
}

std::vector<uint64_t>
ShardEngine::failStop(Cycles now)
{
    // The serving loop retires completions strictly before the
    // fault cycle first, so every batch still running here is
    // genuinely in flight — its members are killed mid-service and
    // must be re-dispatched elsewhere.
    std::vector<uint64_t> displaced;
    while (!running.empty()) {
        const Running &r = running.top();
        displaced.insert(displaced.end(), r.members.begin(),
                         r.members.end());
        ledger.release(r.cores);
        region.release(r.grant);
        maicc_assert(coresInFlight >= r.cores);
        coresInFlight -= r.cores;
        running.pop();
    }
    for (const QueuedRequest &q : queue)
        displaced.push_back(q.id);
    queue.clear();
    std::fill(queuedPerModel.begin(), queuedPerModel.end(), 0u);

    for (unsigned s = 0; s < region.totalNodes(); ++s) {
        if (!region.dead(s))
            region.markDead(s);
    }
    ledger.retire(ledger.freeCores());
    isDead = true;
    slowdowns.clear();
    timeline.push_back({now, 0});
    std::sort(displaced.begin(), displaced.end());
    checkInvariants();
    return displaced;
}

std::vector<uint64_t>
ShardEngine::loseCores(unsigned count, Cycles now)
{
    // Victims: the highest-index live serpentine slots, clamped to
    // what is left. Highest-index keeps the low end — where
    // first-fit carves — coalescible for as long as possible.
    std::vector<unsigned> victims;
    for (unsigned s = region.totalNodes();
         s-- > 0 && victims.size() < count;) {
        if (!region.dead(s))
            victims.push_back(s);
    }
    if (victims.size() == region.totalNodes() - region.deadNodes())
        return failStop(now);


    // Kill every batch occupying a victim slot; survivors keep
    // running untouched.
    std::vector<uint64_t> displaced;
    std::vector<Running> keep;
    while (!running.empty()) {
        const Running &r = running.top();
        bool hit = std::any_of(victims.begin(), victims.end(),
                               [&](unsigned s) {
                                   return r.grant.contains(s);
                               });
        if (hit) {
            displaced.insert(displaced.end(), r.members.begin(),
                             r.members.end());
            ledger.release(r.cores);
            region.release(r.grant);
            maicc_assert(coresInFlight >= r.cores);
            coresInFlight -= r.cores;
        } else {
            keep.push_back(running.top());
        }
        running.pop();
    }
    for (Running &r : keep)
        running.push(std::move(r));

    for (unsigned s : victims)
        region.markDead(s);
    ledger.retire(std::min(unsigned(victims.size()),
                           ledger.freeCores()));

    // Queued requests whose minimum region no longer fits any
    // possible run on this shard would wait forever — displace
    // them for the dispatcher to fail over.
    for (auto it = queue.begin(); it != queue.end();) {
        if (!canServe(it->minCores)) {
            displaced.push_back(it->id);
            it = dequeue(it);
        } else {
            ++it;
        }
    }

    timeline.push_back({now, ledger.used()});
    std::sort(displaced.begin(), displaced.end());
    checkInvariants();
    return displaced;
}

void
ShardEngine::pushSlowdown(Cycles from, Cycles until, double factor)
{
    slowdowns.push_back({from, until, factor});
}

double
ShardEngine::slowdownAt(Cycles now) const
{
    double f = 1.0;
    for (const Slowdown &w : slowdowns) {
        if (now >= w.from && now < w.until)
            f *= w.factor;
    }
    return f;
}

bool
ShardEngine::removeQueued(uint64_t id)
{
    auto it = std::find_if(
        queue.begin(), queue.end(),
        [id](const QueuedRequest &q) { return q.id == id; });
    if (it == queue.end())
        return false;
    dequeue(it);
    checkInvariants();
    return true;
}

} // namespace maicc
