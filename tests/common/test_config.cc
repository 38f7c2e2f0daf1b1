/**
 * @file
 * The JSON config binding (common/config.hh): lossless round
 * trips, partial overlays, and strict unknown-key / type-mismatch
 * errors with usable paths.
 */

#include <sstream>

#include <gtest/gtest.h>

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
          "numThreads", "clockHz", "simCacheEntries"})
        EXPECT_NE(system->find(key), nullptr) << key;
}

TEST(Config, PartialOverlayKeepsOtherDefaults)
{
    SimConfig cfg;
    unsigned default_budget = cfg.system.coreBudget;
    std::istringstream in(
        "{\"system\": {\"numThreads\": 8},"
        " \"core\": {\"cmemQueueSize\": 4}}");
    std::string err;
    ASSERT_TRUE(loadConfig(in, cfg, &err)) << err;
    EXPECT_EQ(cfg.system.numThreads, 8u);
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
