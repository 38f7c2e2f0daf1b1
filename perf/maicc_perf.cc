/**
 * @file
 * maicc_perf: the repository benchmark (perf/README.md).
 *
 *   maicc_perf --workload=W --seed=S (--seconds=T | --ops=N)
 *              --out=FILE [--traced --spans=FILE]
 *
 * One workload per process, one host thread. The run sets up the
 * workload several times (the median is `setup_s`; each set-up ends
 * with one untimed warm-up op), runs operations back to back for T
 * seconds or exactly N ops (a closed loop), and then verifies the
 * outputs against the reference models. Every layer is timed from
 * outside, around calls into its public functions, so the benchmark
 * compiles against any commit that keeps those functions.
 *
 * Untraced, the result carries the end-to-end metrics. With --traced
 * every other op runs inside spans, the per-layer metrics come from
 * those spans' self times, the untraced ops in between give the
 * tracing overhead, and the spans are written to the --spans file as
 * Chrome Trace Event JSON (it opens in Perfetto).
 *
 * Each op's simulated results are hashed into a digest. An op fails
 * when its outputs are wrong, when a serving invariant breaks, or when
 * its digest differs from the first op's; perf/run.py also compares
 * the digest against perf/expected/seed42.json at the default seed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/trace.hh"
#include "core/conv_kernel.hh"
#include "core/scheduler.hh"
#include "core/timing.hh"
#include "dram/dram.hh"
#include "energy/energy.hh"
#include "engine/event_queue.hh"
#include "mapping/segmentation.hh"
#include "mem/node_memory.hh"
#include "mem/row_store.hh"
#include "nn/network.hh"
#include "nn/reference.hh"
#include "noc/noc.hh"
#include "runtime/cluster.hh"
#include "runtime/serving.hh"
#include "runtime/sim_cache.hh"
#include "runtime/system.hh"

using namespace maicc;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---- Spans ------------------------------------------------------

/**
 * In-memory span recorder. A span has a name, a start and an end, the
 * span that encloses it, and the measured op it belongs to (-1 for
 * set-up and verification). Spans stay in memory until the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        int parent; ///< enclosing span index, -1 at top level
        int op;
    };

    bool on = false;
    int op = -1;

    int
    open(const char *name)
    {
        int parent = stack.empty() ? -1 : stack.back();
        all.push_back({name, nowUs(), 0.0, parent, op});
        stack.push_back(int(all.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        all[size_t(id)].endUs = nowUs();
        stack.pop_back();
    }

    const std::vector<Span> &spans() const { return all; }

    /** Per span: its duration minus what its child spans cover. */
    std::vector<double>
    selfUs() const
    {
        std::vector<double> self(all.size());
        for (size_t i = 0; i < all.size(); ++i)
            self[i] = all[i].endUs - all[i].startUs;
        for (const Span &s : all) {
            if (s.parent >= 0)
                self[size_t(s.parent)] -= s.endUs - s.startUs;
        }
        return self;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - origin)
            .count();
    }

    Clock::time_point origin = Clock::now();
    std::vector<Span> all;
    std::vector<int> stack;
};

Tracer tracer;

/** Records one span around its scope while the tracer is on. */
class Scope
{
  public:
    explicit Scope(const char *name)
        : id(tracer.on ? tracer.open(name) : -1)
    {
    }
    ~Scope()
    {
        if (id >= 0)
            tracer.close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id;
};

/**
 * Median over the traced ops of the per-op total self time, in ms, of
 * the spans named @p name (an op without such a span counts as 0).
 */
double
opSelfMs(const char *name)
{
    const auto &spans = tracer.spans();
    std::vector<double> self = tracer.selfUs();
    std::map<int, double> per_op;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].op < 0)
            continue;
        double &sum = per_op[spans[i].op];
        if (std::strcmp(spans[i].name, name) == 0)
            sum += self[i] / 1e3;
    }
    std::vector<double> v;
    for (const auto &[op, ms] : per_op)
        v.push_back(ms);
    return median(v);
}

/** Median self time, in ms, of the set-up/verify spans @p name. */
double
callSelfMs(const char *name)
{
    const auto &spans = tracer.spans();
    std::vector<double> self = tracer.selfUs();
    std::vector<double> v;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].op < 0 && std::strcmp(spans[i].name, name) == 0)
            v.push_back(self[i] / 1e3);
    }
    return median(v);
}

/** The spans as Chrome Trace Event JSON ("X" complete events). */
Json
chromeTrace()
{
    Json events = Json::array();
    const auto &spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        Json args = Json::object();
        args.set("id", uint64_t(i));
        args.set("parent", s.parent);
        args.set("op", s.op);
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", s.op < 0 ? "untimed" : "op");
        e.set("ph", "X");
        e.set("ts", s.startUs);
        e.set("dur", s.endUs - s.startUs);
        e.set("pid", 1);
        e.set("tid", 1);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

// ---- Digests and checks -----------------------------------------

/** FNV-1a 64 over the public result structs of one op. */
class Digest
{
  public:
    Digest &
    bytes(const void *p, size_t n)
    {
        const unsigned char *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
        return *this;
    }

    Digest &u(uint64_t v) { return bytes(&v, sizeof(v)); }

    Digest &
    d(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        return u(bits);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    uint64_t h = 1469598103934665603ull;
};

void
hashRun(Digest &d, const RunResult &r)
{
    d.u(r.totalCycles);
    for (const SegmentRunStats &s : r.segments) {
        d.u(s.start).u(s.filterLoadDone).u(s.end);
        for (const LayerRunStats &l : s.layers) {
            d.u(l.layerIdx).u(l.firstInput).u(l.lastOutput);
            d.u(l.alloc.channelSplits).u(l.alloc.unitsPerNode);
            d.u(l.alloc.computeCores).u(l.alloc.auxCores);
            d.d(l.midCore.compute).d(l.midCore.sendIfmap);
            d.d(l.midCore.sendOfmap).d(l.midCore.waitIfmap);
        }
    }
    const ActivityCounts &a = r.activity;
    d.u(a.runtime).u(a.activeCoreCycles).u(a.macActivations);
    d.u(a.moveRows).u(a.remoteRows).u(a.verticalWriteBytes);
    d.u(a.dmemAccesses).u(a.llcAccesses).u(a.nocFlitHops);
    d.u(a.dramAccesses);
    for (const Tensor3 &t : r.layerOutputs) {
        d.u(uint64_t(t.H)).u(uint64_t(t.W)).u(uint64_t(t.C));
        d.bytes(t.data.data(), t.data.size());
    }
}

/** The fields the serving tests compare (not the `recovery` flag). */
void
hashServing(Digest &d, const ServingResult &r)
{
    d.u(r.offered).u(r.completed).u(r.rejected).u(r.pending);
    d.u(r.shed).u(r.timedOut).u(r.retries).u(r.failovers);
    d.u(r.faultChipFailStop).u(r.faultCoreLoss);
    d.u(r.faultDramOutage).u(r.faultNocDegrade);
    d.u(r.endCycle).u(r.minServiceLatency).u(r.sloMet).u(r.sloMissed);
    d.d(r.p50).d(r.p95).d(r.p99).d(r.meanLatency);
    d.d(r.meanQueueing).d(r.utilization);
    for (const RequestRecord &q : r.requests) {
        d.u(q.id).u(q.model).u(q.priorityClass).u(q.arrival);
        d.u(q.start).u(q.finish).u(q.cores).u(q.batchSize);
        d.u(q.shard).u(q.rejected).u(q.completed).u(q.retries);
        d.u(q.shed).u(q.timedOut);
    }
}

/** Request conservation and causality over one serving result. */
bool
checkServing(const ServingResult &r)
{
    Scope s("check::checkServing");
    check::ServingCheckParams p;
    p.offered = r.offered;
    p.completed = r.completed;
    p.rejected = r.rejected;
    p.shed = r.shed;
    p.timedOut = r.timedOut;
    p.pending = r.pending;
    trace::TraceSink sink;
    appendServingTrace(r, sink);
    check::CheckResult cr = check::checkServingCounters(p);
    cr.merge(check::checkServingTrace(sink.serving, r.offered));
    if (!cr.ok())
        std::fprintf(stderr, "maicc_perf: %s\n", cr.summary().c_str());
    return cr.ok();
}

// ---- Workloads --------------------------------------------------

struct Metric
{
    double value;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** One benchmark workload; see README.md for what each measures. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build networks, inputs and models from @p seed. */
    virtual void setup(uint64_t seed) = 0;

    /** One operation (timed). @return simulated cycles advanced. */
    virtual double op() = 0;

    /**
     * Check the last op's outputs (untimed) and hash its simulated
     * results into @p d. @return false when a check fails.
     */
    virtual bool check(Digest &d) = 0;

    /** Checks after the measured phase. @return false on failure. */
    virtual bool verify() { return true; }

    /**
     * Per-layer metrics of a traced run, from the spans and the last
     * op's results. @return false when an extra check fails.
     */
    virtual bool report(Metrics &m) = 0;
};

/** Simulated cycles in simulated ms, at the default core clock. */
double
simMs(double cycles)
{
    return cycles / SystemConfig{}.clockHz * 1e3;
}

// resnet18-functional ---------------------------------------------

/**
 * Full functional ResNet18 inference on the heuristic plan, one
 * MaiccSystem reset between ops. The int8 MAC pass dominates it.
 */
class ResNetFunctional : public Workload
{
  public:
    void
    setup(uint64_t seed) override
    {
        net = buildResNet18();
        Rng rng(seed);
        weights = randomWeights(net, rng.next());
        input = Tensor3(56, 56, 64);
        input.randomize(rng);
        {
            Scope s("planMapping");
            plan = planMapping(net, Strategy::Heuristic, 210);
        }
        sys = std::make_unique<MaiccSystem>(net, weights);
    }

    double
    op() override
    {
        sys->reset();
        {
            Scope s("MaiccSystem::run");
            last = sys->run(plan, input);
        }
        {
            Scope s("computeEnergy");
            energy = computeEnergy(last.activity);
        }
        return double(last.totalCycles);
    }

    bool
    check(Digest &d) override
    {
        hashRun(d, last);
        return last.layerOutputs.size() == net.size();
    }

    bool
    verify() override
    {
        // Every op's digest covers its tensors, so checking the last
        // op against the reference checks them all.
        Scope s("referenceRun");
        ReferenceResult ref = referenceRun(net, weights, input);
        for (size_t i = 0; i < net.size(); ++i) {
            if (ref.outputs[i].data != last.layerOutputs[i].data) {
                std::fprintf(stderr,
                             "maicc_perf: layer %zu differs from "
                             "referenceRun\n",
                             i);
                return false;
            }
        }
        return true;
    }

    bool
    report(Metrics &m) override
    {
        double run_ms = opSelfMs("MaiccSystem::run");
        m["system.run_ms"] = {run_ms, "ms"};
        m["system.host_ns_per_mac"] = {
            run_ms * 1e6 / double(net.totalMacs()), "ns/mac"};
        m["system.sim_cycles"] = {double(last.totalCycles), "cycles"};
        CoreBreakdown sum;
        for (size_t k = 0; k < last.segments.size(); ++k) {
            const SegmentRunStats &seg = last.segments[k];
            m["system.seg" + std::to_string(k) + ".cycles"] = {
                double(seg.end - seg.start), "cycles"};
            for (const LayerRunStats &l : seg.layers) {
                sum.compute += l.midCore.compute;
                sum.sendIfmap += l.midCore.sendIfmap;
                sum.sendOfmap += l.midCore.sendOfmap;
                sum.waitIfmap += l.midCore.waitIfmap;
            }
        }
        m["system.compute_frac"] = {ratio(sum.compute, sum.total()),
                                    "ratio"};
        m["system.send_frac"] = {
            ratio(sum.sendIfmap + sum.sendOfmap, sum.total()), "ratio"};
        m["system.wait_frac"] = {ratio(sum.waitIfmap, sum.total()),
                                 "ratio"};
        m["mapping.plan_ms"] = {callSelfMs("planMapping"), "ms"};
        m["nn.reference_ms"] = {callSelfMs("referenceRun"), "ms"};

        // Absolute error against Table 7 (MAICC column): 24.67 W,
        // 5.13 ms. The energy model was calibrated on these figures,
        // so the error shows drift, not an independent validation.
        double power = energy.averagePowerW(last.totalCycles);
        m["energy.power_w"] = {power, "W"};
        m["energy.dram_share"] = {ratio(energy.dram, energy.total()),
                                  "ratio"};
        m["energy.power_err_pct"] = {std::abs(power / 24.67 - 1) * 100,
                                     "%"};
        m["energy.latency_err_pct"] = {
            std::abs(last.latencyMs() / 5.13 - 1) * 100, "%"};
        return true;
    }

  private:
    Network net;
    std::vector<Weights4> weights;
    Tensor3 input;
    MappingPlan plan;
    std::unique_ptr<MaiccSystem> sys;
    RunResult last;
    EnergyBreakdown energy;
};

// Serving workloads -----------------------------------------------

/**
 * The served mix, camera-hd : camera : radar = 1 : 2 : 1, with the
 * radar as the most urgent priority class.
 */
class ServedMix
{
  public:
    explicit ServedMix(uint64_t seed)
    {
        struct Spec
        {
            const char *name;
            int side;
            double mix;
            unsigned cls;
        };
        const Spec specs[kModels] = {{"camera-hd", 32, 1.0, 2},
                                     {"camera", 16, 2.0, 1},
                                     {"radar", 8, 1.0, 0}};
        Rng rng(seed);
        for (size_t i = 0; i < kModels; ++i) {
            Model &m = models[i];
            m.spec.name = specs[i].name;
            m.spec.mixWeight = specs[i].mix;
            m.spec.priorityClass = specs[i].cls;
            m.net = buildSmallCnn(specs[i].side, specs[i].side, 64);
            m.weights = randomWeights(m.net, rng.next());
            m.input = Tensor3(specs[i].side, specs[i].side, 64);
            m.input.randomize(rng);
        }
    }

    ServedMix(const ServedMix &) = delete;
    ServedMix &operator=(const ServedMix &) = delete;

    /** Register every model (pointers into this mix) with @p sim. */
    template <class Sim>
    void
    addTo(Sim &sim) const
    {
        for (const Model &m : models) {
            ServedModel s = m.spec;
            s.net = &m.net;
            s.weights = &m.weights;
            s.input = &m.input;
            sim.addModel(s);
        }
    }

    static constexpr size_t kModels = 3;

  private:
    struct Model
    {
        ServedModel spec;
        Network net;
        std::vector<Weights4> weights;
        Tensor3 input;
    };
    Model models[kModels];
};

/** Per-layer metrics shared by the serving-tier workloads. */
void
reportServing(Metrics &m, const std::string &layer,
              const ServingResult &r)
{
    m[layer + ".sim_p50_ms"] = {simMs(r.p50), "sim_ms"};
    m[layer + ".sim_p99_ms"] = {simMs(r.p99), "sim_ms"};
    m[layer + ".sim_queue_ms"] = {simMs(r.meanQueueing), "sim_ms"};
    m[layer + ".util"] = {r.utilization, "ratio"};
    m["check.serving_ms"] = {callSelfMs("check::checkServing"), "ms"};
}

/**
 * A fresh single-chip ServingSimulator per op with the sim-cache off,
 * so every op simulates its three service profiles: a sweep point
 * whose cost is almost all profile simulation.
 */
class ServingProfileCold : public Workload
{
  public:
    void
    setup(uint64_t seed) override
    {
        mix = std::make_unique<ServedMix>(seed);
        cfg.seed = seed;
        cfg.offeredRequests = 64;
        cfg.meanInterarrival = 100'000;
    }

    double
    op() override
    {
        ServingSimulator sim(cfg);
        mix->addTo(sim);
        // run() would probe the same (model, minimum region)
        // profiles; probing them first times them separately.
        double cycles = 0;
        for (size_t i = 0; i < ServedMix::kModels; ++i) {
            Scope s("ServingSimulator::profile");
            cycles +=
                double(sim.profile(i, sim.minCoresTable()[i]).latency);
        }
        Scope s("ServingSimulator::run");
        last = sim.run();
        return cycles;
    }

    bool
    check(Digest &d) override
    {
        hashServing(d, last);
        return checkServing(last) && last.completed == last.offered;
    }

    bool
    report(Metrics &m) override
    {
        double profile_ms = opSelfMs("ServingSimulator::profile");
        m["serving.profile_ms"] = {profile_ms, "ms"};
        m["serving.profiles"] = {double(ServedMix::kModels), "count"};
        m["serving.profile_share"] = {
            ratio(profile_ms, opSelfMs("op") + profile_ms
                                  + opSelfMs("ServingSimulator::run")),
            "ratio"};
        m["serving.loop_ms"] = {opSelfMs("ServingSimulator::run"), "ms"};
        reportServing(m, "serving", last);
        return true;
    }

  private:
    std::unique_ptr<ServedMix> mix;
    ServingConfig cfg;
    ServingResult last;
};

/**
 * A 4-chip cluster serving 20,000 requests at saturation with the
 * sim-cache warmed in set-up: host time is the dispatch, admission
 * and event loop.
 */
class ClusterSaturated : public Workload
{
  public:
    void
    setup(uint64_t seed) override
    {
        mix = std::make_unique<ServedMix>(seed);
        cfg.seed = seed;
        cfg.offeredRequests = 20'000;
        cfg.meanInterarrival = 16'000;
        cfg.chips = 4;
        cfg.shardPolicy = ShardPolicy::LeastLoaded;
        cfg.policy = SchedPolicy::Priority;
        cfg.backfill = true;
        cfg.maxBatch = 4;
        cfg.sloCycles = 3'000'000;
        cfg.queueCapacity = 256;
        cfg.system.simCacheEntries = 64;
        // Each set-up starts cold, so its warm-up op fills the cache.
        TimingResultCache::global().reset();
    }

    double
    op() override
    {
        const TimingResultCache &cache = TimingResultCache::global();
        uint64_t hits = cache.hits(), misses = cache.misses();
        last = runOnce(cfg);
        lastHits = cache.hits() - hits;
        lastMisses = cache.misses() - misses;
        return double(last.aggregate.endCycle);
    }

    bool
    check(Digest &d) override
    {
        hashServing(d, last.aggregate);
        return checkServing(last.aggregate);
    }

    bool
    report(Metrics &m) override
    {
        const ServingResult &a = last.aggregate;
        m["cluster.host_us_per_request"] = {
            opSelfMs("ClusterSimulator::run") * 1e3 / double(a.offered),
            "us/request"};
        reportServing(m, "cluster", a);
        for (size_t k = 0; k < last.shards.size(); ++k) {
            m["cluster.chip" + std::to_string(k) + ".util"] = {
                last.shards[k].utilization, "ratio"};
        }
        m["cluster.slo_attain"] = {
            ratio(double(a.sloMet), double(a.sloMet + a.sloMissed)),
            "ratio"};
        double batched = 0, done = 0;
        for (const RequestRecord &q : a.requests) {
            if (q.completed) {
                batched += q.batchSize;
                ++done;
            }
        }
        m["cluster.batch_mean"] = {ratio(batched, done), "requests"};
        m["cluster.rejected_ratio"] = {
            ratio(double(a.rejected), double(a.offered)), "ratio"};
        m["sim_cache.hits"] = {double(lastHits), "count/op"};
        m["sim_cache.misses"] = {double(lastMisses), "count/op"};
        m["sim_cache.hit_ratio"] = {
            ratio(double(lastHits), double(lastHits + lastMisses)),
            "ratio"};

        // The same op through the recovery loop: a timeout no request
        // can reach turns the loop on without changing any result.
        ServingConfig slow_cfg = cfg;
        slow_cfg.timeoutCycles = Cycles(1) << 50;
        std::vector<double> fast_ms, slow_ms;
        Digest fast_d, slow_d;
        for (int i = 0; i < 5; ++i) {
            auto t0 = Clock::now();
            ClusterResult fast = runOnce(cfg);
            fast_ms.push_back(secondsSince(t0));
            t0 = Clock::now();
            ClusterResult slow = runOnce(slow_cfg);
            slow_ms.push_back(secondsSince(t0));
            if (i == 0) {
                hashServing(fast_d, fast.aggregate);
                hashServing(slow_d, slow.aggregate);
            }
        }
        m["cluster.recovery_loop_ratio"] = {
            ratio(median(slow_ms), median(fast_ms)), "ratio"};
        if (fast_d.hex() != slow_d.hex()) {
            std::fprintf(stderr, "maicc_perf: the recovery loop "
                                 "changed the results\n");
            return false;
        }
        return true;
    }

  private:
    ClusterResult
    runOnce(const ServingConfig &c)
    {
        ClusterSimulator sim(c);
        mix->addTo(sim);
        Scope s("ClusterSimulator::run");
        return sim.run();
    }

    std::unique_ptr<ServedMix> mix;
    ServingConfig cfg;
    ClusterResult last;
    uint64_t lastHits = 0;
    uint64_t lastMisses = 0;
};

/**
 * The same mix on 4 chips through the recovery loop, under an
 * explicit fault schedule placed at fractions of the arrival horizon.
 */
class ClusterFaults : public Workload
{
  public:
    void
    setup(uint64_t seed) override
    {
        mix = std::make_unique<ServedMix>(seed);
        cfg.seed = seed;
        cfg.offeredRequests = 20'000;
        cfg.meanInterarrival = 24'000;
        cfg.chips = 4;
        cfg.timeoutCycles = 1'500'000;
        cfg.maxRetries = 2;
        cfg.backoffCycles = 20'000;
        cfg.shedQueueDepth = 64;
        cfg.system.simCacheEntries = 64;

        double h = double(cfg.offeredRequests) * cfg.meanInterarrival;
        auto at = [h](double f) { return Cycles(f * h); };
        FaultEvent core;
        core.kind = FaultKind::CoreLoss;
        core.chip = 0;
        core.count = 8;
        core.cycle = at(0.1);
        FaultEvent dram;
        dram.kind = FaultKind::DramOutage;
        dram.chip = 1;
        dram.count = 16;
        dram.cycle = at(0.2);
        dram.until = at(0.4);
        FaultEvent chip;
        chip.kind = FaultKind::ChipFailStop;
        chip.chip = 3;
        chip.cycle = at(0.33);
        FaultEvent noc;
        noc.kind = FaultKind::NocDegrade;
        noc.chip = 2;
        noc.factor = 3.0;
        noc.cycle = at(0.5);
        noc.until = at(0.7);
        cfg.faults.events = {core, dram, chip, noc};
        TimingResultCache::global().reset();
    }

    double
    op() override
    {
        ClusterSimulator sim(cfg);
        mix->addTo(sim);
        Scope s("ClusterSimulator::run");
        last = sim.run();
        return double(last.aggregate.endCycle);
    }

    bool
    check(Digest &d) override
    {
        hashServing(d, last.aggregate);
        return checkServing(last.aggregate);
    }

    bool
    report(Metrics &m) override
    {
        const ServingResult &a = last.aggregate;
        m["recovery.host_us_per_request"] = {
            opSelfMs("ClusterSimulator::run") * 1e3 / double(a.offered),
            "us/request"};
        m["recovery.avail"] = {ratio(double(a.completed),
                                     double(a.offered)),
                               "ratio"};
        m["recovery.retries"] = {double(a.retries), "count"};
        m["recovery.failovers"] = {double(a.failovers), "count"};
        m["recovery.shed"] = {double(a.shed), "count"};
        m["recovery.timed_out"] = {double(a.timedOut), "count"};
        m["recovery.useful_ratio"] = {
            ratio(double(a.completed),
                  double(a.completed + a.retries + a.failovers)),
            "ratio"};
        m["fault.applied.chip_fail_stop"] = {
            double(a.faultChipFailStop), "count"};
        m["fault.applied.core_loss"] = {double(a.faultCoreLoss),
                                        "count"};
        m["fault.applied.dram_outage"] = {double(a.faultDramOutage),
                                          "count"};
        m["fault.applied.noc_degrade"] = {double(a.faultNocDegrade),
                                          "count"};
        m["check.serving_ms"] = {callSelfMs("check::checkServing"),
                                 "ms"};
        return true;
    }

  private:
    std::unique_ptr<ServedMix> mix;
    ServingConfig cfg;
    ClusterResult last;
};

// node-cycle ------------------------------------------------------

/**
 * The cycle-level models no runtime workload reaches: the Table 4
 * node program on CoreTimingModel, random traffic through the 16x16
 * MeshNoc, and random accesses through 8-channel ManyCoreDram. The
 * repetition counts give the three parts similar host time.
 */
class NodeCycle : public Workload
{
  public:
    static constexpr unsigned kCoreReps = 3;
    static constexpr unsigned kWaves = 24;
    static constexpr unsigned kPacketsPerWave = 32;
    static constexpr unsigned kDramAccesses = 24576;
    static constexpr unsigned kDramBurst = 16;
    static constexpr unsigned kDramChannels = 8;

    void
    setup(uint64_t seed) override
    {
        Rng rng(seed);
        auto bytes = [&rng](size_t n) {
            std::vector<int8_t> v(n);
            for (int8_t &b : v)
                b = static_cast<int8_t>(rng.range(-5, 5));
            return v;
        };
        ifmap = bytes(size_t(w.H) * w.W * w.C);
        filters = bytes(size_t(w.numFilters) * w.R * w.S * w.C);
        expected = referenceConvNode(w, ifmap, filters);
        {
            Scope s("buildConvNodeProgram");
            prog = buildConvNodeProgram(w);
        }
        {
            Scope s("staticSchedule");
            staticSchedule(prog);
        }

        NocConfig noc_cfg;
        NodeId nodes = NodeId(noc_cfg.width * noc_cfg.height);
        packets.clear();
        for (unsigned i = 0; i < kWaves * kPacketsPerWave; ++i) {
            Packet p;
            p.src = NodeId(rng.below(nodes));
            p.dst = NodeId(rng.below(nodes));
            if (p.dst == p.src)
                p.dst = (p.src + 1) % nodes;
            p.sizeFlits = unsigned(1 + rng.below(9));
            packets.push_back(p);
        }
        // Bursts of consecutive 64-byte blocks from random bases, so
        // that some accesses hit an open row.
        accesses.clear();
        Addr base = 0;
        for (unsigned i = 0; i < kDramAccesses; ++i) {
            if (i % kDramBurst == 0)
                base = Addr(rng.below(1u << 26)) * 64;
            accesses.push_back({base + Addr(i % kDramBurst) * 64,
                                rng.below(2) != 0});
        }
    }

    double
    op() override
    {
        double cycles = 0;
        for (unsigned r = 0; r < kCoreReps; ++r) {
            CMem cmem;
            FlatMemory ext;
            RowStore rows;
            NodeMemory mem(cmem, &ext);
            stageConvNode(w, cmem, rows, ifmap, filters);
            CoreTimingModel model(prog, mem, &cmem, &rows, CoreConfig{});
            {
                Scope s("CoreTimingModel::run");
                core = model.run();
            }
            cmem_events = cmem.events();
            out.clear();
            for (unsigned f = 0; f < w.numFilters; ++f)
                for (unsigned ox = 0; ox < w.outH(); ++ox)
                    for (unsigned oy = 0; oy < w.outW(); ++oy)
                        out.push_back(static_cast<int8_t>(
                            mem.peekDmem(convOutOffset(w, f, ox, oy))));
            outputs_ok = outputs_ok && out == expected;
            cycles += double(core.cycles);
        }

        MeshNoc noc;
        for (unsigned wave = 0; wave < kWaves; ++wave) {
            for (unsigned i = 0; i < kPacketsPerWave; ++i)
                noc.inject(packets[wave * kPacketsPerWave + i]);
            Scope s("MeshNoc::drain");
            noc.drain();
        }
        noc_cycles = noc.now();
        noc_flit_hops = noc.flitHops();
        noc_packets = noc.packetsDelivered();
        noc_latency = noc.avgPacketLatency();

        ManyCoreDram dram(kDramChannels);
        for (size_t i = 0; i < accesses.size(); ++i)
            dram.enqueue(accesses[i].first, accesses[i].second, i, 0);
        EventQueue eq;
        dram_done.clear();
        {
            Scope s("ManyCoreDram::drainVia");
            dram_cycles = dram.drainVia(eq, &dram_done);
        }
        dram_stats = dram.totalStats();
        return cycles + double(noc_cycles) + double(dram_cycles);
    }

    bool
    check(Digest &d) override
    {
        d.u(core.cycles).u(core.insts).u(core.cmemInsts);
        d.u(core.cmemBusyCycles).u(core.stallRaw).u(core.stallWaw);
        d.u(core.stallQueueFull).u(core.stallStructural);
        d.u(core.branchPenaltyCycles).u(core.localMemOps);
        d.u(core.remoteOps);
        d.bytes(out.data(), out.size());
        d.u(noc_cycles).u(noc_flit_hops).u(noc_packets).d(noc_latency);
        for (const DramCompletion &c : dram_done)
            d.u(c.tag).u(c.finishedAt).u(c.write);
        d.u(dram_stats.reads).u(dram_stats.writes);
        d.u(dram_stats.activates).u(dram_stats.rowHits);
        d.u(dram_stats.busyCycles);

        bool ok = outputs_ok && noc_packets == packets.size()
            && dram_done.size() == accesses.size();
        outputs_ok = true;
        return ok;
    }

    bool
    report(Metrics &m) override
    {
        double run_ms = opSelfMs("CoreTimingModel::run");
        m["core.run_ms"] = {run_ms, "ms"};
        m["core.host_ns_per_inst"] = {
            run_ms * 1e6 / double(core.insts * kCoreReps), "ns/inst"};
        m["rv32.build_ms"] = {callSelfMs("buildConvNodeProgram"), "ms"};
        m["core.schedule_ms"] = {callSelfMs("staticSchedule"), "ms"};
        m["core.sim_cycles"] = {double(core.cycles), "cycles"};
        m["core.insts"] = {double(core.insts), "count"};
        m["core.ipc"] = {core.ipc(), "inst/cycle"};
        // cmemBusyCycles adds up every busy slice, so this is the
        // mean number of busy slices per cycle.
        m["core.cmem_occupancy"] = {
            ratio(double(core.cmemBusyCycles), double(core.cycles)),
            "slices"};
        m["core.stall_raw"] = {double(core.stallRaw), "cycles"};
        m["core.stall_waw"] = {double(core.stallWaw), "cycles"};
        m["core.stall_queue_full"] = {double(core.stallQueueFull),
                                      "cycles"};
        m["core.stall_structural"] = {double(core.stallStructural),
                                      "cycles"};
        m["cmem.mac_activations"] = {double(cmem_events.macActivations),
                                     "count"};
        m["cmem.move_rows"] = {double(cmem_events.moveRows), "count"};

        double noc_ms = opSelfMs("MeshNoc::drain");
        m["noc.drain_ms"] = {noc_ms, "ms"};
        m["noc.host_ns_per_flit_hop"] = {
            noc_ms * 1e6 / double(noc_flit_hops), "ns/flit_hop"};
        m["noc.flit_hops"] = {double(noc_flit_hops), "count"};
        m["noc.packets"] = {double(noc_packets), "count"};
        m["noc.sim_cycles"] = {double(noc_cycles), "cycles"};

        double dram_ms = opSelfMs("ManyCoreDram::drainVia");
        m["dram.drain_ms"] = {dram_ms, "ms"};
        m["dram.host_ns_per_access"] = {
            dram_ms * 1e6 / double(accesses.size()), "ns/access"};
        m["dram.sim_cycles"] = {double(dram_cycles), "cycles"};
        m["dram.row_hit_ratio"] = {
            ratio(double(dram_stats.rowHits),
                  double(dram_stats.reads + dram_stats.writes)),
            "ratio"};
        return true;
    }

  private:
    ConvNodeWorkload w; ///< the Table 4 workload
    std::vector<int8_t> ifmap, filters, expected;
    rv32::Program prog;
    std::vector<Packet> packets;
    std::vector<std::pair<Addr, bool>> accesses;

    CoreRunStats core;
    CMemEvents cmem_events;
    std::vector<int8_t> out;
    bool outputs_ok = true;
    Cycles noc_cycles = 0;
    uint64_t noc_flit_hops = 0;
    uint64_t noc_packets = 0;
    double noc_latency = 0;
    Cycles dram_cycles = 0;
    std::vector<DramCompletion> dram_done;
    DramStats dram_stats;
};

struct WorkloadInfo
{
    const char *name;
    unsigned setupReps;
    std::function<std::unique_ptr<Workload>()> make;
};

template <class W>
std::unique_ptr<Workload>
makeWorkload()
{
    return std::make_unique<W>();
}

const WorkloadInfo kWorkloads[] = {
    {"resnet18-functional", 3, makeWorkload<ResNetFunctional>},
    {"serving-profile-cold", 5, makeWorkload<ServingProfileCold>},
    {"cluster-saturated", 5, makeWorkload<ClusterSaturated>},
    {"cluster-faults", 5, makeWorkload<ClusterFaults>},
    {"node-cycle", 5, makeWorkload<NodeCycle>},
};

// ---- Run --------------------------------------------------------

struct Options
{
    const WorkloadInfo *workload = nullptr;
    uint64_t seed = 42;
    double seconds = 0;
    uint64_t ops = 0;
    bool traced = false;
    std::string out;
    std::string spans;
};

bool
parseUint(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 18
        || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

/** @return an error message, empty on success. */
std::string
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        size_t eq = arg.find('=');
        std::string key = arg.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        uint64_t n = 0;
        if (key == "--workload") {
            for (const WorkloadInfo &w : kWorkloads)
                if (val == w.name)
                    o.workload = &w;
            if (!o.workload)
                return "unknown workload '" + val + "'";
        } else if (key == "--seed") {
            if (!parseUint(val, o.seed))
                return "--seed expects a whole number";
        } else if (key == "--seconds") {
            if (!parseUint(val, n) || n < 1 || n > 3600)
                return "--seconds expects 1..3600";
            o.seconds = double(n);
        } else if (key == "--ops") {
            if (!parseUint(val, o.ops) || o.ops < 2 || o.ops > 100'000)
                return "--ops expects 2..100000";
        } else if (arg == "--traced") {
            o.traced = true;
        } else if (key == "--out" && !val.empty()) {
            o.out = val;
        } else if (key == "--spans" && !val.empty()) {
            o.spans = val;
        } else {
            return "unknown argument '" + arg + "'";
        }
    }
    if (!o.workload)
        return "--workload is required";
    if ((o.seconds > 0) == (o.ops > 0))
        return "give exactly one of --seconds and --ops";
    if (o.out.empty())
        return "--out is required";
    if (o.traced != !o.spans.empty())
        return "--traced and --spans go together";
    return "";
}

/**
 * Peak resident set of this process, in MB: VmHWM, because the
 * kernel carries a parent's pre-exec peak over into ru_maxrss, so a
 * large launcher would hide this program's own peak.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

bool
writeJson(const std::string &path, const Json &doc)
{
    std::ofstream f(path);
    f << doc.dump();
    f.close();
    if (!f) {
        std::fprintf(stderr, "maicc_perf: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

Json
metricsJson(const Metrics &m)
{
    Json out = Json::object();
    for (const auto &[name, metric] : m) {
        Json v = Json::object();
        v.set("value", metric.value);
        v.set("unit", metric.unit);
        out.set(name, std::move(v));
    }
    return out;
}

int
run(const Options &o)
{
    // Set-up, repeated; the last one's state is measured.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    uint64_t failed = 0;
    tracer.on = o.traced;
    for (unsigned k = 0; k < o.workload->setupReps; ++k) {
        w.reset();
        auto t0 = Clock::now();
        w = o.workload->make();
        {
            Scope s("setup");
            w->setup(o.seed);
            w->op(); // warm-up
        }
        setup_s.push_back(secondsSince(t0));
        Digest d;
        if (!w->check(d))
            ++failed;
    }

    // The measured phase: a closed loop of ops. When traced, every
    // other op runs inside spans and the ops between them measure
    // the tracing overhead.
    constexpr uint64_t kMinOps = 4;
    std::vector<double> op_ms, traced_ms, untraced_ms;
    std::vector<double> mcycles_per_s; ///< per op
    std::string first_digest;
    auto start = Clock::now();
    for (uint64_t i = 0;; ++i) {
        if (o.ops ? i >= o.ops
                  : i >= kMinOps && secondsSince(start) >= o.seconds)
            break;
        bool traced = o.traced && i % 2 == 0;
        tracer.on = traced;
        tracer.op = int(i);
        auto t0 = Clock::now();
        double cycles = 0;
        {
            Scope s("op");
            cycles = w->op();
        }
        double ms = secondsSince(t0) * 1e3;
        op_ms.push_back(ms);
        mcycles_per_s.push_back(cycles / ms / 1e3);
        (traced ? traced_ms : untraced_ms).push_back(ms);

        tracer.on = o.traced;
        tracer.op = -1;
        Digest d;
        bool ok = w->check(d);
        if (i == 0)
            first_digest = d.hex();
        if (!ok || d.hex() != first_digest)
            ++failed;
    }
    uint64_t attempted = op_ms.size();

    if (!w->verify())
        failed = attempted;

    Metrics m;
    if (o.traced) {
        tracer.on = false;
        if (!w->report(m))
            failed = attempted;
        m["trace.overhead_pct"] = {
            (ratio(median(traced_ms), median(untraced_ms)) - 1) * 100,
            "%"};
    } else {
        m["setup_s"] = {median(setup_s), "s"};
        m["op_p50_ms"] = {median(op_ms), "ms"};
        m["sim_mcycles_per_s"] = {median(mcycles_per_s), "Mcycles/s"};
        m["peak_rss_mb"] = {peakRssMb(), "MB"};
    }

    Json doc = Json::object();
    doc.set("workload", o.workload->name);
    doc.set("seed", o.seed);
    doc.set("traced", o.traced);
    doc.set("attempted", attempted);
    doc.set("failed", std::min(failed, attempted));
    doc.set("digest", first_digest);
    doc.set("metrics", metricsJson(m));
    bool ok = writeJson(o.out, doc);
    if (o.traced)
        ok = writeJson(o.spans, chromeTrace()) && ok;
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string err = parseArgs(argc, argv, o);
    if (!err.empty()) {
        std::fprintf(stderr,
                     "maicc_perf: %s\nusage: maicc_perf --workload=W "
                     "--seed=S (--seconds=T | --ops=N) --out=FILE "
                     "[--traced --spans=FILE]\n",
                     err.c_str());
        return 2;
    }
    return run(o);
}
