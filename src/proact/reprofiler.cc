#include "proact/reprofiler.hh"

#include "sim/logging.hh"
#include "system/multi_gpu_system.hh"

#include <algorithm>

namespace proact {

namespace {

/** Window of @p radius sweep entries around @p current's position. */
template <typename T>
std::vector<T>
windowAround(const std::vector<T> &sweep, T current, int radius)
{
    std::size_t pos = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (sweep[i] == current) {
            pos = i;
            break;
        }
        // No exact hit: settle on the nearest smaller entry.
        if (sweep[i] < current)
            pos = i;
    }
    const std::size_t lo =
        pos > static_cast<std::size_t>(radius) ? pos - radius : 0;
    const std::size_t hi =
        std::min(sweep.size() - 1, pos + radius);
    return {sweep.begin() + lo, sweep.begin() + hi + 1};
}

} // namespace

AdaptiveReprofiler::AdaptiveReprofiler(MultiGpuSystem &system,
                                       WorkloadFactory factory,
                                       TransferConfig initial,
                                       Options options)
    : _system(system), _factory(std::move(factory)),
      _current(initial), _options(std::move(options))
{
    if (!_factory)
        fatalError("AdaptiveReprofiler: null workload factory");
    LinkHealthMonitor *health = _system.health();
    if (health == nullptr)
        fatalError("AdaptiveReprofiler: system has no health monitor "
                   "(call enableHealth first)");
    health->addListener([this](int, int, LinkState from,
                               LinkState to) {
        // Only wire transitions change what a sweep would measure:
        // toFaultPlan() maps CONGESTED links to a clean fabric, so a
        // HEALTHY <-> CONGESTED flip would re-profile on an identical
        // plan — pure waste, and worse, congestion caused by our own
        // detour traffic would keep the profiler thrashing.
        if (isWireTransition(from, to))
            _dirty = true;
    });
}

AdaptiveReprofiler::AdaptiveReprofiler(MultiGpuSystem &system,
                                       WorkloadFactory factory,
                                       TransferConfig initial)
    : AdaptiveReprofiler(system, std::move(factory), initial,
                         Options{})
{
}

Profiler::Options
AdaptiveReprofiler::narrowedOptions(const TransferConfig &around,
                                    const Options &options)
{
    Profiler::Options opts;
    opts.profileIterations = options.profileIterations;
    opts.includeInline = false;

    opts.chunkSizes = options.chunkSizes.empty()
        ? windowAround(chunkSizeSweep(), around.chunkBytes,
                       options.chunkRadius)
        : options.chunkSizes;
    opts.threadCounts = options.threadCounts.empty()
        ? windowAround(threadCountSweep(), around.transferThreads,
                       options.threadRadius)
        : options.threadCounts;

    if (!options.mechanisms.empty()) {
        opts.mechanisms = options.mechanisms;
    } else if (around.decoupled()) {
        opts.mechanisms = {around.mechanism};
    }
    // (Inline current: keep the default mechanism candidates — the
    // adaptation point of an inline config is switching to decoupled.)
    return opts;
}

Profiler::Options
AdaptiveReprofiler::sweepOptions() const
{
    Profiler::Options opts = narrowedOptions(_current, _options);

    // Reproduce the fabric as observed right now on every candidate.
    opts.faults = _system.health()->toFaultPlan();
    opts.retry = _current.retry;
    opts.retry.enabled = true;
    opts.health = true;
    opts.reroute = _system.rerouter() != nullptr;

    // Narrowed sweeps ride the same PROACT_SIM_SHARDS worker pool as
    // full sweeps; candidates are independent fresh systems.
    opts.sweepFactory = _factory;
    return opts;
}

bool
AdaptiveReprofiler::refresh()
{
    if (!_dirty)
        return false;
    _dirty = false;

    _stats.inc("reprofile.sweeps");
    const Profiler::Options opts = sweepOptions();
    Profiler profiler(_system.platform(), opts);
    auto workload = _factory(_system.numGpus());
    if (!workload)
        fatalError("AdaptiveReprofiler: factory returned null");
    const ProfileResult result = profiler.profile(*workload);
    _stats.inc("reprofile.candidates",
               static_cast<double>(result.entries.size()));
    _stats.inc("reprofile.sweep_ticks",
               static_cast<double>(result.sweepTicks));
    if (_options.chargeTimeline)
        _pendingCharge += result.sweepTicks;

    TransferConfig next = result.best;
    next.retry = _current.retry; // Policy is the runtime's, not swept.

    const bool changed = next.mechanism != _current.mechanism
        || next.chunkBytes != _current.chunkBytes
        || next.transferThreads != _current.transferThreads;
    if (!changed)
        return false;

    _stats.inc("reprofile.swaps");
    _current = next;
    return true;
}

} // namespace proact
