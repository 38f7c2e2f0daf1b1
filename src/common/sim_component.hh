/**
 * @file
 * The component registry layer: every stateful simulation model
 * (system, NoC, LLC, DRAM channel, CMem, core timing, serving
 * loop) is a SimComponent — a hierarchically named object that
 * owns a StatGroup, can carry an optional commit-trace sink, and
 * knows how to reset() back to its just-constructed state. A
 * SimContext is the registry that names the component tree of one
 * simulation run.
 *
 * What this buys over ad-hoc members:
 *
 *  - one machine-readable dump of *all* statistics
 *    (SimContext::writeStatsJson, the --stats-json=FILE flag every
 *    bench and example accepts), with stable hierarchical names
 *    ("system.llc.hits") instead of per-binary printf formats;
 *  - name-collision detection at attach time, so two components
 *    can never silently alias one stats namespace;
 *  - a uniform reset() story: ServingSimulator re-uses one
 *    constructed MaiccSystem per model across requests (a real
 *    host-time win — no LLC re-construction) and
 *    the reset path is asserted bitwise identical to fresh
 *    construction in tests/runtime/test_reset.cc.
 *
 * Attachment is optional: every model still works fully detached
 * (all pre-existing call sites construct components without a
 * context and never see a behaviour change).
 */

#ifndef MAICC_COMMON_SIM_COMPONENT_HH
#define MAICC_COMMON_SIM_COMPONENT_HH

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace maicc
{

class Json;
class SimContext;

namespace trace
{
class TraceSink;
}

/**
 * Base of every stateful simulation model: a hierarchically named
 * object owning a StatGroup, optionally attached to a SimContext
 * registry, resettable to its just-constructed state. See the file
 * comment for the registry contract.
 */
class SimComponent
{
  public:
    explicit SimComponent(std::string local_name);
    virtual ~SimComponent();

    // The registry holds raw pointers; moving or copying an
    // attached component would dangle them.
    SimComponent(const SimComponent &) = delete;
    SimComponent &operator=(const SimComponent &) = delete;

    /**
     * Register under @p ctx as a root component named @p name
     * (default: the local name). Throws std::runtime_error on a
     * name collision. Calls onAttach() so subclasses can attach
     * their children.
     */
    void attachTo(SimContext &ctx, const std::string &name = "");

    /**
     * Register under @p parent's context as
     * "<parent name>.<local name>". The parent must be attached.
     */
    void attachTo(SimComponent &parent);

    /** Unregister (no-op when detached). */
    void detach();

    bool attached() const { return ctx != nullptr; }
    SimContext *context() const { return ctx; }

    /** Hierarchical name; the local name while detached. */
    const std::string &name() const { return fullName; }
    const std::string &localName() const { return local; }

    /** This component's stats, prefixed with its full name. */
    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    /** Attach a borrowed trace sink (nullptr detaches). */
    void setTrace(trace::TraceSink *s) { sink = s; }
    trace::TraceSink *traceSink() const { return sink; }

    /**
     * Accumulate host wall-clock time attributed to this
     * component (seconds). The drive loops (MeshNoc::drain,
     * MaiccSystem::run, ServingSimulator::run, ...) charge their
     * elapsed time here via ScopedHostTimer; the counter is
     * published into a stats dump only when the owning context
     * enables host timers (SimContext::enableHostTimers — wall
     * clock is nondeterministic, so it must never leak into the
     * byte-compared default dumps). Deliberately *not* cleared by
     * reset(): host time profiles the simulator process itself,
     * not simulated state, and resetting a reused system between
     * probes must not discard its attribution.
     */
    void addHostSeconds(double s) { hostSecs += s; }

    /** Accumulated host wall-clock seconds (see addHostSeconds). */
    double hostSeconds() const { return hostSecs; }

    /**
     * Return to the just-constructed state (same config, all
     * run-accumulated state discarded), so a following run is
     * bitwise identical to one on a freshly constructed instance.
     * Default implementation zeroes the StatGroup; subclasses
     * must call it.
     */
    virtual void reset();

    /**
     * Publish internal ad-hoc counters into stats(). Called by
     * SimContext before a stats dump so models that keep plain
     * structs for speed (CacheStats, DramStats, ...) still appear
     * in the unified output.
     */
    virtual void recordStats() {}

  protected:
    /** Post-registration hook: attach child components here. */
    virtual void onAttach() {}

    trace::TraceSink *sink = nullptr; ///< borrowed, may be null

  private:
    friend class SimContext;

    std::string local;
    std::string fullName;
    SimContext *ctx = nullptr;
    StatGroup statGroup;
    double hostSecs = 0.0;
};

/**
 * RAII host-time attribution: charges the enclosed scope's wall
 * clock to a component's hostSeconds. Cheap enough (two
 * steady_clock reads) to wrap whole drive loops unconditionally.
 */
class ScopedHostTimer
{
  public:
    explicit ScopedHostTimer(SimComponent &c)
        : comp(c), start(std::chrono::steady_clock::now())
    {}

    ScopedHostTimer(const ScopedHostTimer &) = delete;
    ScopedHostTimer &operator=(const ScopedHostTimer &) = delete;

    ~ScopedHostTimer()
    {
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        comp.addHostSeconds(dt.count());
    }

  private:
    SimComponent &comp;
    std::chrono::steady_clock::time_point start;
};

/**
 * The registry owning one simulation run's component tree.
 * Components register themselves (attachTo) and unregister in
 * their destructors; the context does not own them.
 */
class SimContext
{
  public:
    SimContext() = default;
    ~SimContext();

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /** @return the component, or nullptr when unknown. */
    SimComponent *find(const std::string &name) const;

    /** All components, sorted by name. */
    std::vector<SimComponent *> components() const;

    size_t size() const { return registry.size(); }

    /** reset() every registered component, in name order. */
    void resetAll();

    /**
     * Publish each component's hostSeconds (host wall-clock
     * attribution, SimComponent::addHostSeconds) as a top-level
     * "hostSeconds" member in statsToJson(). Off by default: wall
     * clock is nondeterministic, and the determinism suites
     * byte-compare the default dumps. `--host-timers` on every
     * bench and example turns it on.
     */
    void enableHostTimers(bool on) { hostTimers = on; }
    bool hostTimersEnabled() const { return hostTimers; }

    /** recordStats() on every component, in name order. */
    void recordAll();

    /**
     * recordStats() everything and serialize the whole registry:
     * one top-level member per component (in name order), holding
     * its counters, summaries (count/mean/min/max/sum), and
     * histograms (summary + p50/p95/p99) under unqualified stat
     * names. The schema is documented in DESIGN.md §12.
     */
    Json statsToJson();

    /** statsToJson() pretty-printed to @p os. */
    void writeStatsJson(std::ostream &os);

    /** writeStatsJson to @p path ("-" = stdout). @return success. */
    bool writeStatsJsonFile(const std::string &path);

  private:
    friend class SimComponent;

    void registerComponent(SimComponent &c);
    void unregisterComponent(SimComponent &c);

    std::map<std::string, SimComponent *> registry;
    bool hostTimers = false;
};

} // namespace maicc

#endif // MAICC_COMMON_SIM_COMPONENT_HH
