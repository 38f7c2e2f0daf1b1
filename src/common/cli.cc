#include "common/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include "common/sim_component.hh"

namespace maicc
{
namespace cli
{

namespace
{

bool
parseUint(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

/** parseUint() that also rejects values above @p hi. */
bool
parseUintAtMost(const std::string &s, uint64_t hi, uint64_t &out)
{
    uint64_t v = 0;
    if (!parseUint(s, v) || v > hi)
        return false;
    out = v;
    return true;
}

std::string
rangeError(const char *what, uint64_t hi)
{
    return std::string(what) + ": expected an integer in [0, "
        + std::to_string(hi) + "]";
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

} // namespace

std::string
Options::take(int &argc, char **argv, const char *name)
{
    std::string prefix = std::string("--") + name + "=";
    std::string bare = std::string("--") + name;
    std::string value;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], prefix.c_str(),
                          prefix.size())) {
            value = argv[i] + prefix.size();
        } else if (bare == argv[i]) {
            value = "1"; // flag form: --dump-config
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return value;
}

Options::Options(std::string tool_name, int &argc, char **argv)
    : tool(std::move(tool_name)), argcp(&argc), argv(argv)
{
    // Environment first (lowest precedence above the defaults).
    if (const char *env = std::getenv("MAICC_TRACE"))
        trace = env;

    // Config file overlays the defaults.
    configPath = take(argc, argv, "config");
    if (!configPath.empty()) {
        std::string err;
        if (!loadConfigFile(configPath, config, &err)
            && error.empty())
            error = err;
    }

    // Explicit flags win over everything.
    std::string seed_s = take(argc, argv, "seed");
    if (!seed_s.empty()) {
        if (parseUint(seed_s, seedVal))
            seedSet = true;
        else if (error.empty())
            error = "--seed: expected an unsigned integer";
    }
    std::string trace_s = take(argc, argv, "trace");
    if (!trace_s.empty())
        trace = trace_s;
    std::string sim_cache_s = take(argc, argv, "sim-cache");
    if (!sim_cache_s.empty()) {
        uint64_t v = 0;
        const uint64_t max_entries =
            std::numeric_limits<unsigned>::max();
        if (parseUintAtMost(sim_cache_s, max_entries, v))
            config.system.simCacheEntries = unsigned(v);
        else if (error.empty())
            error = rangeError("--sim-cache", max_entries);
    }
    std::string policy_s = take(argc, argv, "policy");
    if (!policy_s.empty()
        && !parsePolicy(policy_s, config.serving.policy)
        && error.empty()) {
        error = "--policy: expected fifo, sjf, or priority";
    }
    std::string slo_s = take(argc, argv, "slo-cycles");
    if (!slo_s.empty()) {
        uint64_t v = 0;
        if (parseUint(slo_s, v))
            config.serving.sloCycles = v;
        else if (error.empty())
            error = "--slo-cycles: expected an unsigned integer";
    }
    std::string chips_s = take(argc, argv, "chips");
    if (!chips_s.empty()) {
        uint64_t v = 0;
        if (parseUint(chips_s, v) && v >= 1 && v <= 64)
            config.serving.chips = unsigned(v);
        else if (error.empty())
            error = "--chips: expected an integer in [1, 64]";
    }
    std::string shard_policy_s = take(argc, argv, "shard-policy");
    if (!shard_policy_s.empty()
        && !parseShardPolicy(shard_policy_s,
                             config.serving.shardPolicy)
        && error.empty()) {
        error = "--shard-policy: expected round-robin, "
                "least-loaded, or model-affinity";
    }
    std::string faults_s = take(argc, argv, "faults");
    if (!faults_s.empty()) {
        std::string err;
        if (!loadFaultsFile(faults_s, config.serving.faults, &err)
            && error.empty()) {
            error = "--faults: " + err;
        }
    }
    std::string fault_seed_s = take(argc, argv, "fault-seed");
    if (!fault_seed_s.empty()) {
        uint64_t v = 0;
        if (parseUint(fault_seed_s, v))
            config.serving.faults.seed = v;
        else if (error.empty())
            error = "--fault-seed: expected an unsigned integer";
    }
    std::string fault_rate_s = take(argc, argv, "fault-rate");
    if (!fault_rate_s.empty()) {
        double v = 0.0;
        if (parseDouble(fault_rate_s, v) && v >= 0.0)
            config.serving.faults.rate = v;
        else if (error.empty())
            error = "--fault-rate: expected a non-negative number "
                    "(faults per million cycles)";
    }
    std::string timeout_s = take(argc, argv, "timeout-cycles");
    if (!timeout_s.empty()) {
        uint64_t v = 0;
        if (parseUint(timeout_s, v))
            config.serving.timeoutCycles = v;
        else if (error.empty())
            error = "--timeout-cycles: expected an unsigned "
                    "integer";
    }
    std::string retries_s = take(argc, argv, "max-retries");
    if (!retries_s.empty()) {
        uint64_t v = 0;
        if (parseUint(retries_s, v))
            config.serving.maxRetries = unsigned(v);
        else if (error.empty())
            error = "--max-retries: expected an unsigned integer";
    }
    std::string backoff_s = take(argc, argv, "backoff-cycles");
    if (!backoff_s.empty()) {
        uint64_t v = 0;
        if (parseUint(backoff_s, v))
            config.serving.backoffCycles = v;
        else if (error.empty())
            error = "--backoff-cycles: expected an unsigned "
                    "integer";
    }
    std::string shed_s = take(argc, argv, "shed-queue-depth");
    if (!shed_s.empty()) {
        uint64_t v = 0;
        if (parseUint(shed_s, v))
            config.serving.shedQueueDepth = unsigned(v);
        else if (error.empty())
            error = "--shed-queue-depth: expected an unsigned "
                    "integer";
    }
    hostTimers = !take(argc, argv, "host-timers").empty();
    statsJson = take(argc, argv, "stats-json");
    dumpConfig = !take(argc, argv, "dump-config").empty();

    // Re-validate the fault spec against the *final* serving shape:
    // --chips (above) and --faults can each arrive after the other
    // precedence layers, so the config-file-time check in
    // fromJson(SimConfig) may have seen a different chip range.
    if (error.empty()) {
        std::string err;
        if (!validateFaultConfig(
                config.serving.faults,
                std::max(1u, config.serving.chips),
                config.system.dramChannels,
                config.serving.arrivalSpan(), &err)) {
            error = err;
        }
    }

    // Keep the one system tree consistent (serving runs under it).
    config.serving.system = config.system;
    if (seedSet)
        config.serving.seed = seedVal;
}

uint64_t
Options::seed(uint64_t def) const
{
    if (seedSet)
        return seedVal;
    // A config file's serving.seed overrides the binary default.
    if (!configPath.empty())
        return config.serving.seed;
    return def;
}

std::string
Options::flag(const char *name, const std::string &def)
{
    std::string v = take(*argcp, argv, name);
    return v.empty() ? def : v;
}

uint64_t
Options::flagUint(const char *name, uint64_t def)
{
    std::string v = take(*argcp, argv, name);
    if (v.empty())
        return def;
    uint64_t out = 0;
    if (!parseUint(v, out)) {
        if (error.empty())
            error = std::string("--") + name
                + ": expected an unsigned integer";
        return def;
    }
    return out;
}

bool
Options::finish(bool allow_extra)
{
    if (error.empty() && !allow_extra) {
        for (int i = 1; i < *argcp; ++i) {
            if (!std::strncmp(argv[i], "--", 2)) {
                error = std::string("unrecognized option: ")
                    + argv[i];
                break;
            }
        }
    }
    if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", tool.c_str(),
                     error.c_str());
        std::fprintf(
            stderr,
            "common flags: --config=FILE --dump-config "
            "--stats-json=FILE --seed=S "
            "--trace=FILE --sim-cache=N --host-timers "
            "--policy=fifo|sjf|priority --slo-cycles=N "
            "--chips=N "
            "--shard-policy=round-robin|least-loaded|"
            "model-affinity "
            "--faults=FILE --fault-seed=S --fault-rate=R "
            "--timeout-cycles=N --max-retries=N "
            "--backoff-cycles=N --shed-queue-depth=N\n");
        return false;
    }
    return true;
}

bool
Options::dumpConfigOnly()
{
    if (!dumpConfig)
        return false;
    dumpConfig = false; // print once
    maicc::dumpConfig(std::cout, config);
    return true;
}

bool
Options::writeStats(SimContext &ctx) const
{
    // --host-timers opts the nondeterministic wall-clock counters
    // into the dump (SimContext::enableHostTimers).
    ctx.enableHostTimers(hostTimers);
    if (statsJson.empty())
        return true;
    if (!ctx.writeStatsJsonFile(statsJson)) {
        std::fprintf(stderr, "%s: cannot write stats to %s\n",
                     tool.c_str(), statsJson.c_str());
        return false;
    }
    return true;
}

} // namespace cli
} // namespace maicc
