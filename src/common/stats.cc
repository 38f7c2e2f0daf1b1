#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>

#include "common/logging.hh"

namespace maicc
{

void
StatSummary::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    _sum += v;
    ++_count;
}

void
StatSummary::reset()
{
    _count = 0;
    _sum = _min = _max = 0.0;
}

void
StatSummary::merge(const StatSummary &o)
{
    if (o._count == 0)
        return;
    if (_count == 0) {
        _min = o._min;
        _max = o._max;
    } else {
        _min = std::min(_min, o._min);
        _max = std::max(_max, o._max);
    }
    _sum += o._sum;
    _count += o._count;
}

void
StatHistogram::sample(double v)
{
    _samples.push_back(v);
    _sorted.clear();
}

void
StatHistogram::reset()
{
    _samples.clear();
    _sorted.clear();
}

void
StatHistogram::merge(const StatHistogram &o)
{
    _samples.insert(_samples.end(), o._samples.begin(),
                    o._samples.end());
    _sorted.clear();
}

void
StatHistogram::ensureSorted() const
{
    if (_sorted.size() != _samples.size()) {
        _sorted = _samples;
        std::sort(_sorted.begin(), _sorted.end());
    }
}

double
StatHistogram::min() const
{
    ensureSorted();
    return _sorted.empty() ? 0.0 : _sorted.front();
}

double
StatHistogram::max() const
{
    ensureSorted();
    return _sorted.empty() ? 0.0 : _sorted.back();
}

double
StatHistogram::sum() const
{
    return std::accumulate(_samples.begin(), _samples.end(), 0.0);
}

double
StatHistogram::mean() const
{
    return _samples.empty() ? 0.0 : sum() / double(_samples.size());
}

namespace
{

/** Nearest rank ceil(p/100 * n), 1-based, clamped to [1, n], as a
 * 0-based index; @p n > 0. */
size_t
nearestRank(double p, size_t n)
{
    double rank = std::ceil(p / 100.0 * double(n));
    size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
    return std::min(idx, n - 1);
}

} // namespace

double
StatHistogram::percentile(double p) const
{
    if (_samples.empty())
        return 0.0;
    ensureSorted();
    return _sorted[nearestRank(p, _sorted.size())];
}

std::vector<double>
selectPercentiles(std::vector<double> &v, const std::vector<double> &ps)
{
    std::vector<double> out(ps.size(), 0.0);
    auto from = v.begin();
    for (size_t i = 0; i < ps.size() && !v.empty(); ++i) {
        maicc_assert(i == 0 || ps[i - 1] <= ps[i]);
        // The previous selection left the larger-or-equal samples
        // from its position on, and ranks grow with p.
        auto nth = v.begin() + long(nearestRank(ps[i], v.size()));
        std::nth_element(from, nth, v.end());
        from = nth;
        out[i] = *nth;
    }
    return out;
}

std::string
StatGroup::qualify(const std::string &name) const
{
    return _prefix.empty() ? name : _prefix + "." + name;
}

StatCounter &
StatGroup::counter(const std::string &name)
{
    auto it = _counters.find(name);
    if (it == _counters.end()) {
        it = _counters.emplace(name, StatCounter(qualify(name))).first;
    }
    return it->second;
}

StatSummary &
StatGroup::summary(const std::string &name)
{
    auto it = _summaries.find(name);
    if (it == _summaries.end()) {
        it = _summaries.emplace(name, StatSummary(qualify(name))).first;
    }
    return it->second;
}

StatHistogram &
StatGroup::histogram(const std::string &name)
{
    auto it = _histograms.find(name);
    if (it == _histograms.end()) {
        it = _histograms.emplace(name, StatHistogram(qualify(name)))
                 .first;
    }
    return it->second;
}

uint64_t
StatGroup::get(const std::string &name) const
{
    auto it = _counters.find(name);
    return it == _counters.end() ? 0 : it->second.value();
}

void
StatGroup::resetAll()
{
    for (auto &kv : _counters)
        kv.second.reset();
    for (auto &kv : _summaries)
        kv.second.reset();
    for (auto &kv : _histograms)
        kv.second.reset();
}

void
StatGroup::mergeFrom(const StatGroup &o)
{
    for (const auto &kv : o._counters)
        counter(kv.first).inc(kv.second.value());
    for (const auto &kv : o._summaries)
        summary(kv.first).merge(kv.second);
    for (const auto &kv : o._histograms)
        histogram(kv.first).merge(kv.second);
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &kv : _counters) {
        os << std::left << std::setw(40) << kv.second.name()
           << kv.second.value() << "\n";
    }
    for (const auto &kv : _summaries) {
        const auto &s = kv.second;
        os << std::left << std::setw(40) << s.name()
           << "count=" << s.count() << " mean=" << s.mean()
           << " min=" << s.min() << " max=" << s.max() << "\n";
    }
    for (const auto &kv : _histograms) {
        const auto &h = kv.second;
        os << std::left << std::setw(40) << h.name()
           << "count=" << h.count() << " mean=" << h.mean()
           << " p50=" << h.percentile(50)
           << " p95=" << h.percentile(95)
           << " p99=" << h.percentile(99)
           << " max=" << h.max() << "\n";
    }
}

} // namespace maicc
