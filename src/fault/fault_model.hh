/**
 * @file
 * Deterministic fault model for the serving tier (DESIGN.md §16).
 *
 * Real in-SRAM compute substrates degrade: ASiM exists because
 * SRAM-based CiM arrays drift and mis-compute, and Neural Cache's
 * bit-serial arrays share the exposure. The serving simulator
 * therefore injects *seeded, reproducible* hardware faults and lets
 * the serving loop's recovery machinery (runtime/serving_loop.hh)
 * ride through them. Four fault classes cover the blast radii that
 * matter at serving granularity:
 *
 *  - **chip-fail-stop**: a whole chip shard dies permanently at a
 *    cycle. Running batches are killed, queued requests displaced,
 *    and the dispatcher excludes the shard from then on (cross-chip
 *    failover re-dispatches the displaced requests).
 *  - **core-loss**: a shard permanently loses `count` compute
 *    cores. The RegionAllocator marks the victim serpentine slots
 *    dead (regions re-coalesce around them), the CoreLedger budget
 *    shrinks, batches occupying a victim are killed and displaced,
 *    and admission degrades to minimum-region grants.
 *  - **dram-outage**: `count` of the shard's DRAM channels are out
 *    over [cycle, until). Modeled as a service-time slowdown on
 *    admissions inside the window: the DRAM-fed collection and
 *    filter-load phases scale with aggregate channel bandwidth, so
 *    the factor is channels / (channels - count).
 *  - **noc-degrade**: hop latency multiplied by `factor` over
 *    [cycle, until), again applied as an admission-time service
 *    slowdown (hop latency is per-edge, so a uniform multiplier
 *    scales every profile the same way).
 *
 * Determinism contract: the resolved schedule is a pure function of
 * (FaultConfig, ServingConfig) — explicit events verbatim, random
 * events from an Rng seeded with FaultConfig::seed — so a
 * fixed-fault-seed run is bitwise identical from one simulator to
 * the next, with the sim cache on or off (the TimingResultCache key
 * incorporates faultSignature()).
 *
 * Header-only on purpose, mirroring admission.hh: the config/CLI
 * binding in maicc_common parses and validates fault specs without
 * linking against maicc_fault.
 */

#ifndef MAICC_FAULT_FAULT_MODEL_HH
#define MAICC_FAULT_FAULT_MODEL_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"

namespace maicc
{

/** Which hardware failure a FaultEvent injects. */
enum class FaultKind
{
    ChipFailStop, ///< permanent whole-shard loss
    CoreLoss,     ///< permanent loss of `count` cores on one shard
    DramOutage,   ///< `count` DRAM channels out over [cycle, until)
    NocDegrade,   ///< hop latency x `factor` over [cycle, until)
};

/**
 * Canonical spelling of @p k ("chip-fail-stop", "core-loss",
 * "dram-outage", "noc-degrade"). Inline so the config/CLI binding
 * in maicc_common can use it without linking maicc_fault.
 */
inline const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::ChipFailStop:
        return "chip-fail-stop";
      case FaultKind::CoreLoss:
        return "core-loss";
      case FaultKind::DramOutage:
        return "dram-outage";
      case FaultKind::NocDegrade:
        return "noc-degrade";
    }
    return "chip-fail-stop";
}

/** Parse a faultKindName spelling; false (out untouched) else. */
inline bool
parseFaultKind(const std::string &s, FaultKind &out)
{
    if (s == "chip-fail-stop") {
        out = FaultKind::ChipFailStop;
    } else if (s == "core-loss") {
        out = FaultKind::CoreLoss;
    } else if (s == "dram-outage") {
        out = FaultKind::DramOutage;
    } else if (s == "noc-degrade") {
        out = FaultKind::NocDegrade;
    } else {
        return false;
    }
    return true;
}

/** One scheduled fault. Unused parameters stay at their defaults. */
struct FaultEvent
{
    FaultKind kind = FaultKind::ChipFailStop;
    Cycles cycle = 0;    ///< when the fault strikes
    unsigned chip = 0;   ///< victim shard index
    unsigned count = 1;  ///< cores lost / DRAM channels out
    Cycles until = 0;    ///< window end (exclusive); 0 = permanent
    double factor = 2.0; ///< noc-degrade hop-latency multiplier
};

/**
 * The fault schedule specification: explicit events, plus an
 * optional random schedule drawn from (seed, rate) over a window.
 * `--faults=FILE` loads one of these as JSON; `--fault-seed` /
 * `--fault-rate` set the random part directly.
 */
struct FaultConfig
{
    std::vector<FaultEvent> events; ///< explicit schedule

    /** Seed of the random schedule (used only when rate > 0). */
    uint64_t seed = 1;

    /** Random faults per million cycles (0 = no random faults). */
    double rate = 0.0;

    /**
     * Horizon of the random schedule in cycles; 0 derives it from
     * the arrival process (offeredRequests x meanInterarrival).
     */
    Cycles window = 0;

    /** True when any fault can ever fire. */
    bool
    active() const
    {
        return !events.empty() || rate > 0.0;
    }
};

/**
 * Largest accepted noc-degrade hop-latency multiplier. Random
 * draws stay in [1.25, 4]; overlapping windows still multiply, so
 * the serving tier saturates the scaled service time as well.
 */
inline constexpr double kMaxNocDegradeFactor = 1000.0;

/**
 * Largest accepted expected count of random faults,
 * rate x window / 1e6. Every draw is stored, so an unbounded
 * product would allocate without bound. Rates of at most 5 per
 * million cycles over the repository's arrival spans expect fewer
 * than 10000.
 */
inline constexpr double kMaxExpectedRandomFaults = 100000.0;

/**
 * Validate @p fc against the serving shape: every event must name a
 * configured chip, kind-specific parameters must be meaningful, and
 * windowed kinds need a non-empty window. The random rate must be
 * finite and expect at most kMaxExpectedRandomFaults events over
 * the horizon the FaultInjector draws over: fc.window, or
 * @p default_window when that is 0. On failure writes one precise
 * "<path>: <what>" message to @p err (when non-null) and returns
 * false. Shared by the JSON config binding, the CLI layer, and the
 * FaultInjector constructor so a bad spec fails identically
 * everywhere.
 */
inline bool
validateFaultConfig(const FaultConfig &fc, unsigned chips,
                    unsigned dram_channels, Cycles default_window,
                    std::string *err,
                    const std::string &path = "serving.faults")
{
    auto fail = [&](const std::string &where,
                    const std::string &what) {
        if (err)
            *err = path + where + ": " + what;
        return false;
    };
    if (fc.rate < 0.0)
        return fail(".rate", "expected a non-negative rate");
    if (!std::isfinite(fc.rate))
        return fail(".rate", "expected a finite rate");
    const Cycles window = fc.window ? fc.window : default_window;
    const double expected = fc.rate * double(window) / 1e6;
    if (expected > kMaxExpectedRandomFaults) {
        char what[160];
        std::snprintf(what, sizeof what,
                      "rate %g expects %.3g random faults over the "
                      "%llu-cycle window (at most %g)",
                      fc.rate, expected,
                      static_cast<unsigned long long>(window),
                      kMaxExpectedRandomFaults);
        return fail(".rate", what);
    }
    for (size_t i = 0; i < fc.events.size(); ++i) {
        const FaultEvent &e = fc.events[i];
        std::string at = ".events[" + std::to_string(i) + "]";
        if (e.chip >= chips) {
            return fail(at + ".chip",
                        "chip " + std::to_string(e.chip)
                            + " out of range for "
                            + std::to_string(chips) + " chip(s)");
        }
        bool windowed = e.kind == FaultKind::DramOutage
            || e.kind == FaultKind::NocDegrade;
        if (!windowed && e.until != 0) {
            return fail(at + ".until",
                        "not meaningful for permanent kind \""
                            + std::string(faultKindName(e.kind))
                            + "\"");
        }
        if (windowed && e.until != 0 && e.until <= e.cycle) {
            return fail(at + ".until",
                        "empty fault window (until <= cycle)");
        }
        switch (e.kind) {
          case FaultKind::ChipFailStop:
            break;
          case FaultKind::CoreLoss:
            if (e.count < 1)
                return fail(at + ".count", "expected count >= 1");
            break;
          case FaultKind::DramOutage:
            if (e.count < 1)
                return fail(at + ".count", "expected count >= 1");
            if (e.count >= dram_channels) {
                return fail(
                    at + ".count",
                    "must leave >= 1 of "
                        + std::to_string(dram_channels)
                        + " DRAM channels");
            }
            break;
          case FaultKind::NocDegrade:
            if (!(e.factor >= 1.0 && e.factor <= kMaxNocDegradeFactor)) {
                return fail(at + ".factor",
                            "expected a factor in [1, 1000]");
            }
            break;
        }
    }
    return true;
}

/**
 * Canonical byte string of @p fc for the TimingResultCache key
 * (sim_cache.hh): empty when faults are inactive — keeping
 * fault-free keys byte-identical to the pre-fault ones — and a
 * deterministic serialization of every schedule input otherwise, so
 * cached profiles never replay across different fault topologies.
 */
inline std::string
faultSignature(const FaultConfig &fc)
{
    if (!fc.active())
        return "";
    std::string s = "seed=" + std::to_string(fc.seed) + ",rate="
        + std::to_string(fc.rate) + ",window="
        + std::to_string(fc.window) + ';';
    for (const FaultEvent &e : fc.events) {
        s += faultKindName(e.kind);
        s += ',';
        s += std::to_string(e.cycle) + ','
            + std::to_string(e.chip) + ','
            + std::to_string(e.count) + ','
            + std::to_string(e.until) + ','
            + std::to_string(e.factor) + ';';
    }
    return s;
}

} // namespace maicc

#endif // MAICC_FAULT_FAULT_MODEL_HH
