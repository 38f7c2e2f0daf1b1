#include "common/config.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace maicc
{

namespace
{

/**
 * Strict object reader: typed field extraction with "<path>.<key>"
 * error messages, plus an unknown-key check in finish() so typos
 * in a hand-written config file fail loudly instead of silently
 * keeping the default.
 */
class ObjectReader
{
  public:
    ObjectReader(const Json &j, std::string path, std::string *err)
        : j(j), path(std::move(path)), err(err)
    {
        if (!j.isObject())
            fail("", "expected an object");
    }

    bool ok() const { return good; }

    /**
     * Read an integer into @p out, rejecting values outside
     * [lo, hi] — by default the range @p T can hold (clamped to
     * what a JSON integer holds), so a negative count never wraps
     * to a huge unsigned one.
     */
    template <typename T>
    void
    integer(const char *key, T &out,
            int64_t lo = int64_t(std::numeric_limits<T>::min()),
            int64_t hi = int64_t(std::min<uint64_t>(
                std::numeric_limits<T>::max(),
                std::numeric_limits<int64_t>::max())))
    {
        const Json *v = get(key);
        if (!v)
            return;
        if (!v->isInt()) {
            fail(key, "expected an integer");
            return;
        }
        int64_t i = v->asInt();
        if (i < lo || i > hi) {
            std::string what = "expected an integer in ["
                + std::to_string(lo) + ", " + std::to_string(hi)
                + "]";
            fail(key, what.c_str());
            return;
        }
        out = static_cast<T>(i);
    }

    void
    number(const char *key, double &out)
    {
        const Json *v = get(key);
        if (!v)
            return;
        if (!v->isNumber()) {
            fail(key, "expected a number");
            return;
        }
        out = v->asDouble();
    }

    void
    boolean(const char *key, bool &out)
    {
        const Json *v = get(key);
        if (!v)
            return;
        if (!v->isBool()) {
            fail(key, "expected a boolean");
            return;
        }
        out = v->asBool();
    }

    void
    string(const char *key, std::string &out)
    {
        const Json *v = get(key);
        if (!v)
            return;
        if (!v->isString()) {
            fail(key, "expected a string");
            return;
        }
        out = v->asString();
    }

    template <typename T>
    void
    nested(const char *key, T &out)
    {
        const Json *v = get(key);
        if (!v)
            return;
        std::string sub =
            path.empty() ? key : path + "." + key;
        if (!fromJson(*v, out, err, sub))
            good = false;
    }

    /** Error on any member no accessor consumed. */
    bool
    finish()
    {
        if (good && j.isObject()) {
            for (const auto &m : j.members()) {
                if (!consumed.count(m.first)) {
                    fail(m.first.c_str(), "unknown key");
                    break;
                }
            }
        }
        return good;
    }

    void
    fail(const char *key, const char *what)
    {
        if (!good)
            return;
        good = false;
        if (err) {
            std::string where = path;
            if (key && *key)
                where += where.empty() ? key
                                       : "." + std::string(key);
            *err = where + ": " + what;
        }
    }

    /** Mark failed, keeping an error message already in *err. */
    void
    invalidate()
    {
        good = false;
    }

    /** Consume @p key and return it raw (nullptr when absent). */
    const Json *
    take(const char *key)
    {
        return get(key);
    }

  private:
    const Json *
    get(const char *key)
    {
        if (!good)
            return nullptr;
        consumed.insert(key);
        return j.find(key);
    }

    const Json &j;
    std::string path;
    std::string *err;
    std::set<std::string> consumed;
    bool good = true;
};

} // namespace

Json
toJson(const ArrayGeometry &g)
{
    Json j = Json::object();
    j.set("meshW", g.meshW);
    j.set("meshH", g.meshH);
    j.set("computeX0", g.computeX0);
    j.set("computeY0", g.computeY0);
    j.set("computeW", g.computeW);
    j.set("computeH", g.computeH);
    return j;
}

bool
fromJson(const Json &j, ArrayGeometry &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    r.integer("meshW", out.meshW);
    r.integer("meshH", out.meshH);
    r.integer("computeX0", out.computeX0);
    r.integer("computeY0", out.computeY0);
    r.integer("computeW", out.computeW);
    r.integer("computeH", out.computeH);
    return r.finish();
}

Json
toJson(const NocConfig &c)
{
    Json j = Json::object();
    j.set("width", c.width);
    j.set("height", c.height);
    j.set("routerLatency", c.routerLatency);
    j.set("queueDepth", c.queueDepth);
    return j;
}

bool
fromJson(const Json &j, NocConfig &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    r.integer("width", out.width);
    r.integer("height", out.height);
    r.integer("routerLatency", out.routerLatency);
    r.integer("queueDepth", out.queueDepth);
    return r.finish();
}

Json
toJson(const DramConfig &c)
{
    Json j = Json::object();
    j.set("numBanks", c.numBanks);
    j.set("rowBytes", c.rowBytes);
    j.set("accessBytes", c.accessBytes);
    j.set("tRCD", c.tRCD);
    j.set("tCAS", c.tCAS);
    j.set("tRP", c.tRP);
    j.set("tRAS", c.tRAS);
    j.set("burst", c.burst);
    return j;
}

bool
fromJson(const Json &j, DramConfig &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    r.integer("numBanks", out.numBanks);
    r.integer("rowBytes", out.rowBytes);
    r.integer("accessBytes", out.accessBytes);
    r.integer("tRCD", out.tRCD);
    r.integer("tCAS", out.tCAS);
    r.integer("tRP", out.tRP);
    r.integer("tRAS", out.tRAS);
    r.integer("burst", out.burst);
    return r.finish();
}

Json
toJson(const CacheConfig &c)
{
    Json j = Json::object();
    j.set("sizeBytes", c.sizeBytes);
    j.set("lineBytes", c.lineBytes);
    j.set("ways", c.ways);
    j.set("hitLatency", c.hitLatency);
    return j;
}

bool
fromJson(const Json &j, CacheConfig &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    r.integer("sizeBytes", out.sizeBytes);
    r.integer("lineBytes", out.lineBytes);
    r.integer("ways", out.ways);
    r.integer("hitLatency", out.hitLatency);
    return r.finish();
}

Json
toJson(const CoreConfig &c)
{
    Json j = Json::object();
    j.set("cmemQueueSize", c.cmemQueueSize);
    j.set("wbPorts", c.wbPorts);
    j.set("mulLatency", c.mulLatency);
    j.set("divLatency", c.divLatency);
    j.set("loadLatency", c.loadLatency);
    j.set("remoteLatency", c.remoteLatency);
    j.set("branchPenalty", c.branchPenalty);
    return j;
}

bool
fromJson(const Json &j, CoreConfig &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    r.integer("cmemQueueSize", out.cmemQueueSize);
    r.integer("wbPorts", out.wbPorts);
    r.integer("mulLatency", out.mulLatency);
    r.integer("divLatency", out.divLatency);
    r.integer("loadLatency", out.loadLatency);
    r.integer("remoteLatency", out.remoteLatency);
    r.integer("branchPenalty", out.branchPenalty);
    return r.finish();
}

Json
toJson(const SystemConfig &c)
{
    Json j = Json::object();
    j.set("coreBudget", c.coreBudget);
    j.set("dramChannels", c.dramChannels);
    j.set("clockHz", c.clockHz);
    j.set("numThreads", c.numThreads);
    j.set("simCacheEntries", c.simCacheEntries);
    j.set("geometry", toJson(c.geometry));
    j.set("noc", toJson(c.noc));
    j.set("dram", toJson(c.dram));
    j.set("llc", toJson(c.llc));
    return j;
}

bool
fromJson(const Json &j, SystemConfig &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    int64_t budget = out.coreBudget; // range-checked below
    r.integer("coreBudget", budget);
    r.integer("dramChannels", out.dramChannels);
    r.number("clockHz", out.clockHz);
    r.integer("numThreads", out.numThreads, 0,
              SystemConfig::kMaxNumThreads);
    r.integer("simCacheEntries", out.simCacheEntries);
    // Deprecated: the event engine is the only one left, so its
    // name still loads (with a warning) and anything else fails.
    if (const Json *engine = r.take("engine")) {
        if (engine->isString() && engine->asString() == "event") {
            maicc_warn("%s.engine: deprecated key, ignored (the "
                       "event engine is the only engine)",
                       path.c_str());
        } else {
            r.fail("engine", "the ticked engine was removed; only "
                             "\"event\" is accepted");
        }
    }
    r.nested("geometry", out.geometry);
    r.nested("noc", out.noc);
    r.nested("dram", out.dram);
    r.nested("llc", out.llc);
    // Checked after the geometry is read: the budget is carved
    // from its compute nodes.
    unsigned nodes = out.geometry.computeNodes();
    if (budget < 1 || budget > int64_t(nodes)) {
        std::string what = "expected an integer in [1, "
            + std::to_string(nodes) + "]";
        r.fail("coreBudget", what.c_str());
    } else {
        out.coreBudget = unsigned(budget);
    }
    return r.finish();
}

Json
toJson(const FaultEvent &e)
{
    Json j = Json::object();
    j.set("kind", faultKindName(e.kind));
    j.set("cycle", e.cycle);
    j.set("chip", e.chip);
    j.set("count", e.count);
    j.set("until", e.until);
    j.set("factor", e.factor);
    return j;
}

bool
fromJson(const Json &j, FaultEvent &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    std::string kind = faultKindName(out.kind);
    r.string("kind", kind);
    if (!parseFaultKind(kind, out.kind)) {
        r.fail("kind",
               "expected \"chip-fail-stop\", \"core-loss\", "
               "\"dram-outage\", or \"noc-degrade\"");
    }
    r.integer("cycle", out.cycle);
    r.integer("chip", out.chip);
    r.integer("count", out.count);
    r.integer("until", out.until);
    r.number("factor", out.factor);
    return r.finish();
}

Json
toJson(const FaultConfig &c)
{
    Json j = Json::object();
    Json events = Json::array();
    for (const FaultEvent &e : c.events)
        events.push(toJson(e));
    j.set("events", std::move(events));
    j.set("seed", c.seed);
    j.set("rate", c.rate);
    j.set("window", c.window);
    return j;
}

bool
fromJson(const Json &j, FaultConfig &out, std::string *err,
         const std::string &path)
{
    ObjectReader r(j, path, err);
    if (const Json *ev = r.take("events")) {
        if (!ev->isArray()) {
            r.fail("events", "expected an array");
        } else {
            out.events.clear();
            for (size_t i = 0; i < ev->size(); ++i) {
                FaultEvent e;
                std::string sub =
                    path + ".events[" + std::to_string(i) + "]";
                if (!fromJson(ev->at(i), e, err, sub)) {
                    r.invalidate();
                    break;
                }
                out.events.push_back(e);
            }
        }
    }
    r.integer("seed", out.seed);
    r.number("rate", out.rate);
    if (out.rate < 0.0)
        r.fail("rate", "expected a non-negative rate");
    r.integer("window", out.window);
    return r.finish();
}

namespace
{

const char *
arrivalsName(ArrivalProcess p)
{
    return p == ArrivalProcess::Trace ? "trace" : "poisson";
}

Json
servingToJson(const ServingConfig &c)
{
    Json j = Json::object();
    j.set("arrivals", arrivalsName(c.arrivals));
    j.set("seed", c.seed);
    j.set("meanInterarrival", c.meanInterarrival);
    j.set("offeredRequests", c.offeredRequests);
    j.set("horizon", c.horizon);
    j.set("queueCapacity", c.queueCapacity);
    j.set("maxBatch", c.maxBatch);
    j.set("policy", policyName(c.policy));
    j.set("backfill", c.backfill);
    j.set("sloCycles", c.sloCycles);
    j.set("cutoff", c.cutoff);
    j.set("selfCheck", c.selfCheck);
    j.set("chips", c.chips);
    j.set("shardPolicy", shardPolicyName(c.shardPolicy));
    j.set("faults", toJson(c.faults));
    j.set("timeoutCycles", c.timeoutCycles);
    j.set("maxRetries", c.maxRetries);
    j.set("backoffCycles", c.backoffCycles);
    j.set("shedQueueDepth", c.shedQueueDepth);
    return j;
}

bool
servingFromJson(const Json &j, ServingConfig &out,
                std::string *err)
{
    ObjectReader r(j, "serving", err);
    std::string arrivals = arrivalsName(out.arrivals);
    r.string("arrivals", arrivals);
    if (arrivals == "poisson") {
        out.arrivals = ArrivalProcess::Poisson;
    } else if (arrivals == "trace") {
        out.arrivals = ArrivalProcess::Trace;
    } else {
        r.fail("arrivals", "expected \"poisson\" or \"trace\"");
    }
    r.integer("seed", out.seed);
    r.integer("meanInterarrival", out.meanInterarrival);
    r.integer("offeredRequests", out.offeredRequests);
    r.integer("horizon", out.horizon);
    r.integer("queueCapacity", out.queueCapacity);
    r.integer("maxBatch", out.maxBatch);
    std::string policy = policyName(out.policy);
    r.string("policy", policy);
    if (!parsePolicy(policy, out.policy))
        r.fail("policy",
               "expected \"fifo\", \"sjf\", or \"priority\"");
    r.boolean("backfill", out.backfill);
    r.integer("sloCycles", out.sloCycles);
    r.integer("cutoff", out.cutoff);
    r.boolean("selfCheck", out.selfCheck);
    // Shard masks are uint64_t, so 64 chips is the ceiling (the
    // same bound as --chips).
    r.integer("chips", out.chips, 1, 64);
    std::string shard_policy = shardPolicyName(out.shardPolicy);
    r.string("shardPolicy", shard_policy);
    if (!parseShardPolicy(shard_policy, out.shardPolicy))
        r.fail("shardPolicy",
               "expected \"round-robin\", \"least-loaded\", or "
               "\"model-affinity\"");
    r.nested("faults", out.faults);
    r.integer("timeoutCycles", out.timeoutCycles);
    r.integer("maxRetries", out.maxRetries);
    r.integer("backoffCycles", out.backoffCycles);
    r.integer("shedQueueDepth", out.shedQueueDepth);
    return r.finish();
}

} // namespace

Json
toJson(const SimConfig &c)
{
    Json j = Json::object();
    j.set("system", toJson(c.system));
    j.set("core", toJson(c.core));
    j.set("serving", servingToJson(c.serving));
    return j;
}

bool
fromJson(const Json &j, SimConfig &out, std::string *err)
{
    ObjectReader r(j, "", err);
    r.nested("system", out.system);
    r.nested("core", out.core);
    if (const Json *s = r.take("serving")) {
        if (!servingFromJson(*s, out.serving, err))
            r.invalidate();
    }
    bool ok = r.finish();
    // Cross-field fault validation needs both subtrees: chip range
    // from serving.chips, channel count from system.dramChannels.
    // (The CLI re-validates after --chips, which can change the
    // range after this file was read.)
    if (ok
        && !validateFaultConfig(out.serving.faults,
                                std::max(1u, out.serving.chips),
                                out.system.dramChannels, err)) {
        ok = false;
    }
    // One system tree: the serving layer always runs under the
    // top-level system config.
    out.serving.system = out.system;
    return ok;
}

bool
loadConfig(std::istream &in, SimConfig &out, std::string *err)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    Json j;
    if (!Json::parse(buf.str(), j, err))
        return false;
    return fromJson(j, out, err);
}

bool
loadFaultsFile(const std::string &path, FaultConfig &out,
               std::string *err)
{
    std::ostringstream buf;
    if (path == "-") {
        buf << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in) {
            if (err)
                *err = "cannot open faults file: " + path;
            return false;
        }
        buf << in.rdbuf();
    }
    Json j;
    if (!Json::parse(buf.str(), j, err))
        return false;
    return fromJson(j, out, err, "faults");
}

bool
loadConfigFile(const std::string &path, SimConfig &out,
               std::string *err)
{
    if (path == "-")
        return loadConfig(std::cin, out, err);
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open config file: " + path;
        return false;
    }
    return loadConfig(in, out, err);
}

void
dumpConfig(std::ostream &os, const SimConfig &cfg)
{
    toJson(cfg).write(os);
}

} // namespace maicc
