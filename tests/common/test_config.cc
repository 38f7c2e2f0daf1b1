/**
 * @file
 * The JSON config binding (common/config.hh): lossless round
 * trips, partial overlays, and strict unknown-key / type-mismatch
 * / range errors with usable paths; plus the range checks of the
 * shared command-line front end (common/cli.hh). No case
 * constructs a system with a rejected value.
 */

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/json.hh"

using namespace maicc;

namespace
{

std::string
dumpToString(const SimConfig &cfg)
{
    std::ostringstream os;
    dumpConfig(os, cfg);
    return os.str();
}

/** loadConfig() on @p text; the error message, "" on success. */
std::string
loadError(const std::string &text, SimConfig &cfg)
{
    std::istringstream in(text);
    std::string err;
    return loadConfig(in, cfg, &err) ? "" : err;
}

/**
 * Parse @p args through cli::Options (parse only: nothing runs).
 * @return finish()'s verdict and the first line it printed to
 * stderr ("" when it printed nothing).
 */
std::pair<bool, std::string>
parseOptions(std::vector<std::string> args)
{
    args.insert(args.begin(), "test_config");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    int argc = int(argv.size());
    testing::internal::CaptureStderr();
    cli::Options opt("test_config", argc, argv.data());
    bool ok = opt.finish();
    std::string out = testing::internal::GetCapturedStderr();
    return {ok, out.substr(0, out.find('\n'))};
}

} // namespace

TEST(Config, DefaultDumpRoundTripsByteForByte)
{
    SimConfig def;
    std::string first = dumpToString(def);

    SimConfig loaded;
    std::istringstream in(first);
    std::string err;
    ASSERT_TRUE(loadConfig(in, loaded, &err)) << err;
    EXPECT_EQ(dumpToString(loaded), first);
}

TEST(Config, DumpContainsEverySection)
{
    Json j = toJson(SimConfig{});
    for (const char *key : {"system", "core", "serving"})
        EXPECT_NE(j.find(key), nullptr) << key;
    const Json *system = j.find("system");
    for (const char *key :
         {"geometry", "noc", "dram", "llc", "coreBudget",
          "clockHz", "simCacheEntries"})
        EXPECT_NE(system->find(key), nullptr) << key;
}

TEST(Config, PartialOverlayKeepsOtherDefaults)
{
    SimConfig cfg;
    unsigned default_budget = cfg.system.coreBudget;
    std::istringstream in(
        "{\"system\": {\"simCacheEntries\": 8},"
        " \"core\": {\"cmemQueueSize\": 4}}");
    std::string err;
    ASSERT_TRUE(loadConfig(in, cfg, &err)) << err;
    EXPECT_EQ(cfg.system.simCacheEntries, 8u);
    EXPECT_EQ(cfg.core.cmemQueueSize, 4u);
    EXPECT_EQ(cfg.system.coreBudget, default_budget);
}

TEST(Config, UnknownKeyIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in("{\"system\": {\"coreBudgte\": 100}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("coreBudgte"), std::string::npos) << err;
    EXPECT_NE(err.find("system"), std::string::npos) << err;
}

TEST(Config, TypeMismatchIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in("{\"system\": {\"coreBudget\": \"x\"}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("coreBudget"), std::string::npos) << err;
}

TEST(Config, MalformedJsonIsAnError)
{
    SimConfig cfg;
    std::istringstream in("{\"system\": ");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Config, NonDefaultValuesSurviveTheRoundTrip)
{
    SimConfig cfg;
    cfg.system.coreBudget = 128;
    cfg.system.dram.accessBytes = 32;
    cfg.core.wbPorts = 2;
    cfg.serving.maxBatch = 4;
    cfg.serving.policy = SchedPolicy::Priority;
    cfg.serving.backfill = true;
    cfg.serving.sloCycles = 750'000;
    cfg.serving.selfCheck = true;
    cfg.serving.chips = 4;
    cfg.serving.shardPolicy = ShardPolicy::LeastLoaded;

    SimConfig back;
    std::istringstream in(dumpToString(cfg));
    std::string err;
    ASSERT_TRUE(loadConfig(in, back, &err)) << err;
    EXPECT_EQ(back.system.coreBudget, 128u);
    EXPECT_EQ(back.system.dram.accessBytes, 32u);
    EXPECT_EQ(back.core.wbPorts, 2u);
    EXPECT_EQ(back.serving.maxBatch, 4u);
    EXPECT_EQ(back.serving.policy, SchedPolicy::Priority);
    EXPECT_TRUE(back.serving.backfill);
    EXPECT_EQ(back.serving.sloCycles, 750'000u);
    EXPECT_TRUE(back.serving.selfCheck);
    EXPECT_EQ(back.serving.chips, 4u);
    EXPECT_EQ(back.serving.shardPolicy, ShardPolicy::LeastLoaded);
    EXPECT_EQ(dumpToString(back), dumpToString(cfg));
}

TEST(Config, BadPolicySpellingIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"policy\": \"lifo\"}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("policy"), std::string::npos) << err;
}

TEST(Config, SjfPolicySurvivesTheRoundTrip)
{
    SimConfig cfg;
    cfg.serving.policy = SchedPolicy::Sjf;
    SimConfig back;
    std::istringstream in(dumpToString(cfg));
    std::string err;
    ASSERT_TRUE(loadConfig(in, back, &err)) << err;
    EXPECT_EQ(back.serving.policy, SchedPolicy::Sjf);
}

TEST(Config, BadShardPolicySpellingIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"shardPolicy\": \"hash\"}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("shardPolicy"), std::string::npos) << err;
}

TEST(Config, ZeroChipsIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in("{\"serving\": {\"chips\": 0}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("chips"), std::string::npos) << err;
}

TEST(Config, MoreThanSixtyFourChipsIsAnErrorWithTheRange)
{
    // Shard masks are 64 bits wide: a 65-chip config must be
    // refused by the binder, with the same range --chips states,
    // instead of reaching the cluster's assertion.
    SimConfig cfg;
    std::istringstream in("{\"serving\": {\"chips\": 65}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("chips"), std::string::npos) << err;
    EXPECT_NE(err.find("expected an integer in [1, 64]"),
              std::string::npos)
        << err;
}

TEST(Config, SixtyFourChipsIsAccepted)
{
    SimConfig cfg;
    std::istringstream in("{\"serving\": {\"chips\": 64}}");
    std::string err;
    ASSERT_TRUE(loadConfig(in, cfg, &err)) << err;
    EXPECT_EQ(cfg.serving.chips, 64u);
}

TEST(Config, OutOfRangeCoreBudgetIsAnErrorWithTheRange)
{
    // The budget is carved from the geometry's 210 compute nodes:
    // anything outside [1, 210] must be refused by the binder
    // instead of panicking (or dividing by zero) in the serving
    // tier.
    for (const char *budget : {"0", "211", "300", "-1"}) {
        SimConfig cfg;
        std::istringstream in(
            std::string("{\"system\": {\"coreBudget\": ") + budget
            + "}}");
        std::string err;
        EXPECT_FALSE(loadConfig(in, cfg, &err)) << budget;
        EXPECT_EQ(err, "system.coreBudget: expected an integer in "
                       "[1, 210]")
            << budget;
    }
}

TEST(Config, CoreBudgetRangeEndsAreAccepted)
{
    for (unsigned budget : {1u, 210u}) {
        SimConfig cfg;
        std::istringstream in("{\"system\": {\"coreBudget\": "
                              + std::to_string(budget) + "}}");
        std::string err;
        ASSERT_TRUE(loadConfig(in, cfg, &err)) << err;
        EXPECT_EQ(cfg.system.coreBudget, budget);
    }
}

TEST(Config, RemovedBatchAcrossQueueKeyIsUnknown)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"batchAcrossQueue\": true}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_EQ(err, "serving.batchAcrossQueue: unknown key");
}

TEST(Config, ShardPolicySpellingsAllParse)
{
    const std::pair<const char *, ShardPolicy> spellings[] = {
        {"round-robin", ShardPolicy::RoundRobin},
        {"least-loaded", ShardPolicy::LeastLoaded},
        {"model-affinity", ShardPolicy::ModelAffinity},
    };
    for (const auto &[name, want] : spellings) {
        SimConfig cfg;
        std::istringstream in(
            std::string("{\"serving\": {\"shardPolicy\": \"")
            + name + "\"}}");
        std::string err;
        ASSERT_TRUE(loadConfig(in, cfg, &err)) << err;
        EXPECT_EQ(cfg.serving.shardPolicy, want) << name;
        EXPECT_EQ(shardPolicyName(cfg.serving.shardPolicy),
                  std::string(name));
    }
}

TEST(Config, FaultConfigSurvivesTheRoundTrip)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"chips\": 2, \"timeoutCycles\": 5000,"
        " \"maxRetries\": 5, \"backoffCycles\": 100,"
        " \"shedQueueDepth\": 9,"
        " \"faults\": {\"seed\": 77, \"rate\": 1.5,"
        "  \"window\": 400000,"
        "  \"events\": [{\"kind\": \"dram-outage\", \"cycle\": 10,"
        "   \"chip\": 1, \"count\": 4, \"until\": 900},"
        "  {\"kind\": \"chip-fail-stop\", \"cycle\": 50}]}}}");
    std::string err;
    ASSERT_TRUE(loadConfig(in, cfg, &err)) << err;
    EXPECT_EQ(cfg.serving.timeoutCycles, 5000u);
    EXPECT_EQ(cfg.serving.maxRetries, 5u);
    EXPECT_EQ(cfg.serving.backoffCycles, 100u);
    EXPECT_EQ(cfg.serving.shedQueueDepth, 9u);
    EXPECT_EQ(cfg.serving.faults.seed, 77u);
    EXPECT_EQ(cfg.serving.faults.rate, 1.5);
    EXPECT_EQ(cfg.serving.faults.window, 400'000u);
    ASSERT_EQ(cfg.serving.faults.events.size(), 2u);
    EXPECT_EQ(cfg.serving.faults.events[0].kind,
              FaultKind::DramOutage);
    EXPECT_EQ(cfg.serving.faults.events[0].count, 4u);
    EXPECT_EQ(cfg.serving.faults.events[1].kind,
              FaultKind::ChipFailStop);

    // dump -> load -> dump is byte-stable with faults configured.
    std::string dumped = dumpToString(cfg);
    SimConfig back;
    std::istringstream in2(dumped);
    ASSERT_TRUE(loadConfig(in2, back, &err)) << err;
    EXPECT_EQ(dumpToString(back), dumped);
}

TEST(Config, UnknownFaultKindIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"meteor-strike\"}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].kind"), std::string::npos) << err;
    EXPECT_NE(err.find("chip-fail-stop"), std::string::npos) << err;
}

TEST(Config, OutOfRangeFaultChipIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"chips\": 2, \"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"chip\": 5}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].chip"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(Config, EmptyFaultWindowIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"noc-degrade\", \"cycle\": 100,"
        "   \"until\": 100}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].until"), std::string::npos)
        << err;
    EXPECT_NE(err.find("empty fault window"), std::string::npos)
        << err;
}

TEST(Config, WindowOnPermanentFaultKindIsAnError)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"cycle\": 5,"
        "   \"until\": 50}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].until"), std::string::npos)
        << err;
    EXPECT_NE(err.find("permanent"), std::string::npos) << err;
}

TEST(Config, DramOutageMustLeaveAChannel)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"system\": {\"dramChannels\": 8},"
        " \"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"dram-outage\", \"count\": 8}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].count"), std::string::npos)
        << err;
    EXPECT_NE(err.find("DRAM channels"), std::string::npos) << err;
}

TEST(Config, NegativeFaultRateIsAnError)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"rate\": -0.5}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("rate"), std::string::npos) << err;
}

TEST(Config, SubUnityNocDegradeFactorIsAnError)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"noc-degrade\", \"factor\": 0.5}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].factor"), std::string::npos)
        << err;
}

TEST(Config, HugeNocDegradeFactorIsAnError)
{
    // 1e300 used to load and give every request a 0-cycle latency.
    SimConfig cfg;
    EXPECT_EQ(loadError("{\"serving\": {\"faults\": {\"events\":"
                        " [{\"kind\": \"noc-degrade\", \"until\": 9,"
                        " \"factor\": 1e300}]}}}",
                        cfg),
              "serving.faults.events[0].factor: expected a factor in "
              "[1, 1000]");
    EXPECT_EQ(loadError("{\"serving\": {\"faults\": {\"events\":"
                        " [{\"kind\": \"noc-degrade\", \"until\": 9,"
                        " \"factor\": 1000}]}}}",
                        cfg),
              "");
}

TEST(Config, HugeFaultRateIsAnErrorWithTheCap)
{
    // The cap is on rate x window / 1e6 expected events, with the
    // window the injector draws over: the arrival span
    // (offeredRequests x meanInterarrival) unless faults.window
    // is set.
    SimConfig cfg;
    EXPECT_EQ(loadError("{\"serving\": {\"faults\": {\"rate\": 1e300}}}",
                        cfg),
              "serving.faults.rate: rate 1e+300 expects 1.6e+301 "
              "random faults over the 16000000-cycle window (at most "
              "100000)");
    EXPECT_EQ(loadError("{\"serving\": {\"offeredRequests\": 2,"
                        " \"meanInterarrival\": 1000,"
                        " \"faults\": {\"rate\": 5e7}}}",
                        cfg),
              "");
    EXPECT_EQ(loadError("{\"serving\": {\"offeredRequests\": 2,"
                        " \"meanInterarrival\": 1000,"
                        " \"faults\": {\"rate\": 5e7,"
                        " \"window\": 1000000}}}",
                        cfg),
              "serving.faults.rate: rate 5e+07 expects 5e+07 random "
              "faults over the 1000000-cycle window (at most 100000)");
}

TEST(Config, UnknownFaultEventKeyIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"cores\": 4}]}}}");
    std::string err;
    EXPECT_FALSE(loadConfig(in, cfg, &err));
    EXPECT_NE(err.find("events[0].cores"), std::string::npos)
        << err;
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
}

TEST(Config, NegativeCountsAreRangeErrorsNotWraps)
{
    // Each of these used to load as a wrapped unsigned (-1 became
    // 4294967295).
    const std::pair<const char *, const char *> cases[] = {
        {"{\"system\": {\"dramChannels\": -3}}",
         "system.dramChannels: expected an integer in "
         "[1, 4294967295]"},
        {"{\"system\": {\"simCacheEntries\": -1}}",
         "system.simCacheEntries: expected an integer in "
         "[0, 4294967295]"},
        {"{\"system\": {\"noc\": {\"queueDepth\": -1}}}",
         "system.noc.queueDepth: expected an integer in [1, 64]"},
        {"{\"system\": {\"dramChannels\": 4294967296}}",
         "system.dramChannels: expected an integer in "
         "[1, 4294967295]"},
    };
    const std::string defaults = dumpToString(SimConfig{});
    for (const auto &[text, want] : cases) {
        SimConfig cfg;
        EXPECT_EQ(loadError(text, cfg), want) << text;
        EXPECT_EQ(dumpToString(cfg), defaults) << text;
    }
}

TEST(Config, ZeroSizesAndDivisorsAreRangeErrors)
{
    // A zero DRAM burst, access size or channel count used to load
    // and make filterLoadBytesPerCycle() infinite, which the
    // segment loop then converted to an integer cycle count (UB);
    // the others divide by zero or size empty meshes and rings.
    const std::pair<const char *, const char *> cases[] = {
        {"{\"system\": {\"dramChannels\": 0}}",
         "system.dramChannels: expected an integer in "
         "[1, 4294967295]"},
        {"{\"system\": {\"dram\": {\"burst\": 0}}}",
         "system.dram.burst: expected an integer in "
         "[1, 9223372036854775807]"},
        {"{\"system\": {\"dram\": {\"accessBytes\": 0}}}",
         "system.dram.accessBytes: expected an integer in "
         "[1, 4294967295]"},
        {"{\"system\": {\"dram\": {\"numBanks\": 0}}}",
         "system.dram.numBanks: expected an integer in "
         "[1, 4294967295]"},
        {"{\"system\": {\"dram\": {\"rowBytes\": 0}}}",
         "system.dram.rowBytes: expected an integer in "
         "[1, 4294967295]"},
        {"{\"system\": {\"noc\": {\"width\": 0}}}",
         "system.noc.width: expected an integer in "
         "[1, 2147483647]"},
        {"{\"system\": {\"noc\": {\"height\": -2}}}",
         "system.noc.height: expected an integer in "
         "[1, 2147483647]"},
        {"{\"system\": {\"noc\": {\"queueDepth\": 0}}}",
         "system.noc.queueDepth: expected an integer in [1, 64]"},
        {"{\"system\": {\"noc\": {\"queueDepth\": 65}}}",
         "system.noc.queueDepth: expected an integer in [1, 64]"},
    };
    for (const auto &[text, want] : cases) {
        SimConfig cfg;
        EXPECT_EQ(loadError(text, cfg), want) << text;
    }
}

TEST(Config, SizeRangeEndsAreAccepted)
{
    SimConfig cfg;
    EXPECT_EQ(loadError("{\"system\": {\"dramChannels\": 1,"
                        " \"dram\": {\"burst\": 1, \"accessBytes\": 1,"
                        " \"numBanks\": 1, \"rowBytes\": 1},"
                        " \"noc\": {\"width\": 1, \"height\": 1,"
                        " \"queueDepth\": 1}}}",
                        cfg),
              "");
    EXPECT_EQ(cfg.system.dram.burst, Cycles(1));
    EXPECT_EQ(cfg.system.noc.queueDepth, 1u);
    EXPECT_EQ(loadError("{\"system\": {\"noc\":"
                        " {\"queueDepth\": 64}}}",
                        cfg),
              "");
    EXPECT_EQ(cfg.system.noc.queueDepth, 64u);
}

TEST(Config, RemovedNumThreadsKeyIsUnknown)
{
    // The simulator runs on one host thread; the old knob is
    // rejected, not silently ignored.
    for (const char *value : {"8", "1", "0"}) {
        SimConfig cfg;
        EXPECT_EQ(loadError(std::string("{\"system\": {\"numThreads\": ")
                                + value + "}}",
                            cfg),
                  "system.numThreads: unknown key")
            << value;
    }
}

TEST(Config, RemovedEngineKeyIsUnknown)
{
    for (const char *value : {"\"event\"", "\"ticked\"", "1"}) {
        SimConfig cfg;
        EXPECT_EQ(loadError(std::string("{\"system\": {\"engine\": ")
                                + value + "}}",
                            cfg),
                  "system.engine: unknown key")
            << value;
    }
}

TEST(Config, DumpOmitsTheRemovedEngineKey)
{
    EXPECT_EQ(toJson(SystemConfig{}).find("engine"), nullptr);
}

TEST(CliOptions, RemovedThreadsFlagIsUnrecognized)
{
    for (const char *flag : {"--threads=4", "--threads=1"}) {
        auto [ok, err] = parseOptions({flag});
        EXPECT_FALSE(ok) << flag;
        EXPECT_EQ(err, std::string("test_config: unrecognized option: ")
                           + flag);
    }
    // The removed environment variable is not read at all.
    setenv("MAICC_THREADS", "lots", 1);
    EXPECT_TRUE(parseOptions({}).first);
    unsetenv("MAICC_THREADS");
}

TEST(CliOptions, SimCacheOutOfRangeIsAnError)
{
    EXPECT_FALSE(parseOptions({"--sim-cache=4294967296"}).first);
    EXPECT_TRUE(parseOptions({"--sim-cache=4294967295"}).first);
}

TEST(CliOptions, UnboundedFaultRateIsAnError)
{
    // Each of these used to draw random faults until memory ran
    // out. The default arrival span is 32 x 500000 cycles.
    const std::pair<const char *, const char *> cases[] = {
        {"--fault-rate=inf", "serving.faults.rate: expected a finite "
                             "rate"},
        {"--fault-rate=1e12",
         "serving.faults.rate: rate 1e+12 expects 1.6e+13 random "
         "faults over the 16000000-cycle window (at most 100000)"},
    };
    for (const auto &[flag, want] : cases) {
        auto [ok, err] = parseOptions({flag});
        EXPECT_FALSE(ok) << flag;
        EXPECT_EQ(err, std::string("test_config: ") + want) << flag;
    }
    EXPECT_TRUE(parseOptions({"--fault-rate=5"}).first);
}

TEST(CliOptions, RemovedEngineFlagIsUnrecognized)
{
    EXPECT_FALSE(parseOptions({"--engine=event"}).first);
    EXPECT_FALSE(parseOptions({"--engine=ticked"}).first);
}
