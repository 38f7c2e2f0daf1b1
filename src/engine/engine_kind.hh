/**
 * @file
 * The simulation-engine selector shared by every time-stepped
 * model (NoC, DRAM, core timing, system streaming loop): `Event`
 * (the default) drives each model
 * through skip-ahead wake-up scheduling on the shared event kernel
 * (engine/event_queue.hh), `Ticked` keeps the legacy
 * advance-everything-every-cycle loops compilable for differential
 * testing. Both engines produce byte-identical stats and cycle
 * counts by contract (DESIGN.md §15); the knob is host-side only,
 * like numThreads and simCacheEntries.
 *
 * Selection: `--engine=ticked|event` on every bench and example,
 * `system.engine` in a JSON config, or the MAICC_ENGINE
 * environment variable (lowest precedence; it also steers the
 * default-constructed configs the unit tests use, which is how the
 * `--engine=ticked` CI leg runs the whole tier-1 suite on the
 * legacy path).
 */

#ifndef MAICC_ENGINE_ENGINE_KIND_HH
#define MAICC_ENGINE_ENGINE_KIND_HH

#include <cstdlib>
#include <string>

namespace maicc
{

/** Which inner-loop implementation a model runs on. */
enum class EngineKind
{
    Ticked, ///< legacy: advance every component every cycle
    Event,  ///< skip-ahead wake-up scheduling (the default)
};

/** Canonical flag spelling ("ticked" / "event"). */
inline const char *
engineName(EngineKind k)
{
    return k == EngineKind::Ticked ? "ticked" : "event";
}

/** Parse a flag spelling; @return false on anything else. */
inline bool
parseEngine(const std::string &s, EngineKind &out)
{
    if (s == "ticked") {
        out = EngineKind::Ticked;
        return true;
    }
    if (s == "event") {
        out = EngineKind::Event;
        return true;
    }
    return false;
}

/**
 * The process-wide default engine: Event unless the MAICC_ENGINE
 * environment variable names a valid engine. Read once; every
 * default-constructed config (NocConfig, CoreConfig, SystemConfig)
 * starts from this value, so a `MAICC_ENGINE=ticked ctest` run
 * exercises the legacy path end to end without touching any test.
 */
inline EngineKind
defaultEngineKind()
{
    static const EngineKind kind = [] {
        EngineKind k = EngineKind::Event;
        if (const char *env = std::getenv("MAICC_ENGINE"))
            parseEngine(env, k);
        return k;
    }();
    return kind;
}

} // namespace maicc

#endif // MAICC_ENGINE_ENGINE_KIND_HH
