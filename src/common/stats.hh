/**
 * @file
 * A miniature statistics package: named scalar counters and
 * histograms attached to a registry, dumpable as text. Components of
 * the simulator register their event counters here so the energy
 * model (src/energy) can read them back after a run.
 */

#ifndef MAICC_COMMON_STATS_HH
#define MAICC_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace maicc
{

/** A named monotonically increasing event counter. */
class StatCounter
{
  public:
    StatCounter() = default;
    explicit StatCounter(std::string name) : _name(std::move(name)) {}

    void inc(uint64_t n = 1) { _value += n; }
    void reset() { _value = 0; }

    uint64_t value() const { return _value; }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    uint64_t _value = 0;
};

/** Running min/max/mean/count summary of a sampled quantity. */
class StatSummary
{
  public:
    StatSummary() = default;
    explicit StatSummary(std::string name) : _name(std::move(name)) {}

    void sample(double v);
    void reset();

    /** Fold another summary in, as if its samples were replayed. */
    void merge(const StatSummary &o);

    uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double sum() const { return _sum; }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * A sampled distribution with percentile queries. Samples are kept
 * exactly (the simulator's request counts are small enough that the
 * memory is negligible next to the tensors in flight), so
 * percentile() is nearest-rank over the real values rather than a
 * bucket approximation — the serving tests compare percentiles
 * bitwise across reruns and cache settings, which a bucketed
 * estimate could not guarantee.
 */
class StatHistogram
{
  public:
    StatHistogram() = default;
    explicit StatHistogram(std::string name) : _name(std::move(name))
    {}

    void sample(double v);
    void reset();

    /** Fold another histogram in, as if its samples were replayed. */
    void merge(const StatHistogram &o);

    uint64_t count() const { return _samples.size(); }
    double min() const;
    double max() const;
    double mean() const;
    double sum() const;

    /**
     * Nearest-rank percentile, @p p in [0, 100]: the smallest
     * sample such that at least p% of all samples are <= it.
     * Monotone in p by construction (p99 >= p95 >= p50). 0 when
     * empty.
     */
    double percentile(double p) const;

    const std::string &name() const { return _name; }
    const std::vector<double> &samples() const { return _samples; }

  private:
    void ensureSorted() const;

    std::string _name;
    std::vector<double> _samples;
    mutable std::vector<double> _sorted; ///< lazy percentile cache
};

/**
 * The nearest-rank percentiles @p ps (ascending) that
 * StatHistogram::percentile returns for the samples in @p v, found
 * by selection instead of a full sort: each selection runs on the
 * part of @p v above the previous one. Reorders @p v; all 0 when
 * empty.
 */
std::vector<double> selectPercentiles(std::vector<double> &v,
                                      const std::vector<double> &ps);

/**
 * A flat registry of counters and summaries. Each simulated component
 * owns a StatGroup and registers stats under hierarchical dotted
 * names ("node12.cmem.macOps").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string prefix = "")
        : _prefix(std::move(prefix))
    {}

    /** Create (or fetch) a counter named prefix.name. */
    StatCounter &counter(const std::string &name);

    /** Create (or fetch) a summary named prefix.name. */
    StatSummary &summary(const std::string &name);

    /** Create (or fetch) a histogram named prefix.name. */
    StatHistogram &histogram(const std::string &name);

    /** Read a counter's value; 0 when absent. */
    uint64_t get(const std::string &name) const;

    /** Zero every stat in the group. */
    void resetAll();

    /**
     * Add every counter and summary of @p o into this group
     * (matched by unqualified name; missing stats are created).
     * The sim cache replays a memoized run's stat deltas with it.
     */
    void mergeFrom(const StatGroup &o);

    /** Pretty-print every stat. */
    void dump(std::ostream &os) const;

    const std::string &prefix() const { return _prefix; }

    const std::map<std::string, StatCounter> &counters() const
    {
        return _counters;
    }

    const std::map<std::string, StatSummary> &summaries() const
    {
        return _summaries;
    }

    const std::map<std::string, StatHistogram> &histograms() const
    {
        return _histograms;
    }

  private:
    std::string qualify(const std::string &name) const;

    std::string _prefix;
    std::map<std::string, StatCounter> _counters;
    std::map<std::string, StatSummary> _summaries;
    std::map<std::string, StatHistogram> _histograms;
};

} // namespace maicc

#endif // MAICC_COMMON_STATS_HH
