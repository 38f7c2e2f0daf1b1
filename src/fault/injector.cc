#include "fault/injector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace maicc
{

namespace
{

/**
 * Draw the random part of the schedule: a Poisson process at
 * cfg.rate faults per million cycles over [0, window), each event
 * uniform over kinds and chips with kind-appropriate parameters.
 * All draws come from one Rng(cfg.seed) stream in a fixed order,
 * so the result depends only on (cfg, chips, dram_channels,
 * window).
 */
std::vector<FaultEvent>
drawRandomSchedule(const FaultConfig &cfg, unsigned chips,
                   unsigned dram_channels, Cycles window)
{
    std::vector<FaultEvent> out;
    if (cfg.rate <= 0.0 || window == 0)
        return out;
    Rng rng(cfg.seed);
    const double mean_gap = 1e6 / cfg.rate;
    double at = 0.0;
    while (true) {
        at += -std::log1p(-rng.real()) * mean_gap;
        if (at >= static_cast<double>(window))
            break;
        FaultEvent e;
        e.cycle = static_cast<Cycles>(at);
        e.chip = static_cast<unsigned>(rng.below(chips));
        switch (rng.below(4)) {
          case 0:
            e.kind = FaultKind::ChipFailStop;
            break;
          case 1:
            e.kind = FaultKind::CoreLoss;
            e.count = static_cast<unsigned>(rng.range(1, 8));
            break;
          case 2:
            e.kind = FaultKind::DramOutage;
            if (dram_channels < 2) {
                // Can't take a channel and leave one; degrade the
                // draw to a transient NoC wobble instead of
                // skipping (skipping would starve the kind mix on
                // single-channel configs).
                e.kind = FaultKind::NocDegrade;
                e.factor = 1.25 + rng.real() * 2.75;
            } else {
                e.count = static_cast<unsigned>(
                    rng.range(1, std::max(1u, dram_channels / 2)));
            }
            e.until = e.cycle + 1
                + static_cast<Cycles>(rng.real() * (window / 4.0));
            break;
          default:
            e.kind = FaultKind::NocDegrade;
            e.factor = 1.25 + rng.real() * 2.75;
            e.until = e.cycle + 1
                + static_cast<Cycles>(rng.real() * (window / 4.0));
            break;
        }
        out.push_back(e);
    }
    return out;
}

} // namespace

FaultInjector::FaultInjector(const FaultConfig &cfg, unsigned chips,
                             unsigned dram_channels,
                             Cycles default_window)
    : SimComponent("faults"), config(cfg)
{
    // The front ends validate against the arrival span they parsed;
    // a binary that reshapes the stream afterwards is checked here,
    // against the window actually drawn over.
    std::string err;
    if (!validateFaultConfig(cfg, chips, dram_channels, default_window,
                             &err))
        maicc_fatal("%s", err.c_str());

    events = cfg.events;
    Cycles window = cfg.window ? cfg.window : default_window;
    auto random = drawRandomSchedule(cfg, chips, dram_channels,
                                     window);
    events.insert(events.end(), random.begin(), random.end());
    // Stable: explicit events keep spec order ahead of random ones
    // at the same cycle, so the applied order is reproducible and
    // documented rather than an artifact of the sort.
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
}

void
FaultInjector::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    uint64_t by_kind[4] = {0, 0, 0, 0};
    for (const FaultEvent &e : events)
        ++by_kind[static_cast<int>(e.kind)];
    publish("scheduled", events.size());
    publish("scheduledChipFailStop",
            by_kind[static_cast<int>(FaultKind::ChipFailStop)]);
    publish("scheduledCoreLoss",
            by_kind[static_cast<int>(FaultKind::CoreLoss)]);
    publish("scheduledDramOutage",
            by_kind[static_cast<int>(FaultKind::DramOutage)]);
    publish("scheduledNocDegrade",
            by_kind[static_cast<int>(FaultKind::NocDegrade)]);
}

} // namespace maicc
