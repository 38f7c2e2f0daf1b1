/**
 * @file
 * The one command-line front end shared by every bench and example
 * binary: one implementation of the `--trace` / `--seed` parsing
 * and the uniform run plumbing:
 *
 *   --config=FILE     overlay a JSON config file ("-" = stdin) on
 *                     the defaults (schema: DESIGN.md §12)
 *   --dump-config     print the effective config JSON and exit
 *   --stats-json=FILE dump the SimContext stat registry as JSON
 *                     after the run ("-" = stdout)
 *   --seed=S          RNG seed where the binary uses one
 *   --trace=FILE      commit-trace JSONL (also MAICC_TRACE)
 *   --sim-cache=N     timing-result cache capacity in entries
 *                     (runtime/sim_cache.hh; 0 = off)
 *   --policy=P        serving admission policy: fifo, sjf, or
 *                     priority (runtime/admission.hh)
 *   --slo-cycles=N    serving per-request latency SLO in cycles
 *                     (0 = SLO accounting off)
 *   --chips=N         serving chip shards in [1, 64]
 *                     (runtime/cluster.hh; 1 = single chip)
 *   --shard-policy=P  cross-chip dispatch: round-robin,
 *                     least-loaded, or model-affinity
 *   --faults=FILE     load a fault-schedule JSON document
 *                     (fault/fault_model.hh; "-" = stdin) into
 *                     serving.faults
 *   --fault-seed=S    seed of the random fault schedule
 *   --fault-rate=R    random faults per million cycles (0 = none)
 *   --timeout-cycles=N per-request serving timeout before a retry
 *                     (0 = timeouts off)
 *   --max-retries=N   retry budget per request before it is
 *                     dropped as timed out
 *   --backoff-cycles=N base of the exponential retry backoff
 *   --shed-queue-depth=N shed fresh arrivals when the total queued
 *                     depth reaches N (0 = shedding off)
 *   --host-timers     include per-component host wall-clock
 *                     attribution (hostSeconds) in --stats-json
 *
 * Precedence: defaults < MAICC_TRACE environment < --config file
 * < explicit flags. Binaries fetch their own extra flags with
 * flag()/flagUint() and then call finish(), which rejects any
 * unrecognized --option so typos fail loudly.
 *
 * Canonical usage:
 *
 *   cli::Options opt("bench_foo", argc, argv);
 *   unsigned reqs = unsigned(opt.flagUint("requests", 48));
 *   if (!opt.finish())        return opt.exitCode();
 *   if (opt.dumpConfigOnly()) return 0;
 *   ... run with opt.config ...
 *   if (!opt.writeStats(ctx)) return 1;
 */

#ifndef MAICC_COMMON_CLI_HH
#define MAICC_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"

namespace maicc
{

class SimContext;

namespace cli
{

/**
 * Parsed common command-line flags plus the effective SimConfig
 * they produce. One instance per binary; see the file comment for
 * the flag set, precedence rules, and canonical usage.
 */
class Options
{
  public:
    /**
     * Parse and strip every common flag from @p argv. Errors
     * (malformed value, unreadable config file) are recorded, not
     * thrown: check ok()/finish().
     */
    Options(std::string tool, int &argc, char **argv);

    /** The effective configuration tree. */
    SimConfig config;

    /** --seed=S, or @p def when absent (config file's serving.seed
     * acts as an intermediate default). */
    uint64_t seed(uint64_t def) const;

    /** --trace=FILE / MAICC_TRACE; empty = tracing off. */
    const std::string &tracePath() const { return trace; }

    /** --stats-json=FILE; empty = no stats dump. */
    const std::string &statsPath() const { return statsJson; }

    /** True when a --config file overlaid the defaults. */
    bool hasConfigFile() const { return !configPath.empty(); }

    /** Parse and strip a binary-specific `--name=value`. */
    std::string flag(const char *name, const std::string &def = "");

    /** flag() parsed as an unsigned integer. */
    uint64_t flagUint(const char *name, uint64_t def);

    /**
     * Call after all flag()/flagUint() fetches: reports the first
     * error or leftover unrecognized --option to stderr.
     * @param allow_extra leave unknown --options in argv instead
     *        of rejecting them (for binaries that hand the rest to
     *        another parser, e.g. google-benchmark).
     * @return true when the binary should proceed.
     */
    bool finish(bool allow_extra = false);

    /** Process exit code after a failed finish(). */
    int exitCode() const { return ok() ? 0 : 2; }

    bool ok() const { return error.empty(); }

    /**
     * True when --dump-config was given; prints the effective
     * config to stdout (once) so the caller can exit 0.
     */
    bool dumpConfigOnly();

    /**
     * When --stats-json was given, record every component of
     * @p ctx and write the registry dump. @return false (with a
     * message on stderr) only on an I/O failure.
     */
    bool writeStats(SimContext &ctx) const;

  private:
    std::string take(int &argc, char **argv, const char *name);

    std::string tool;
    int *argcp = nullptr;
    char **argv = nullptr;
    std::string trace;
    std::string statsJson;
    std::string configPath;
    uint64_t seedVal = 0;
    bool seedSet = false;
    bool dumpConfig = false;
    bool hostTimers = false;
    std::string error;
};

} // namespace cli
} // namespace maicc

#endif // MAICC_COMMON_CLI_HH
