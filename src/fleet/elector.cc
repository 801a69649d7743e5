#include "fleet/elector.hh"

#include "proact/profiler.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

#include <utility>

namespace proact::fleet {

StrategyElector::StrategyElector(PlatformSpec platform,
                                 Options options, GraphCache *graphs)
    : _platform(std::move(platform)), _options(std::move(options)),
      _graphs(graphs)
{
}

StrategyElector::StrategyElector(PlatformSpec platform)
    : StrategyElector(std::move(platform), Options{})
{
}

Election
StrategyElector::elect(const std::string &workload, int gpus,
                       int share_count)
{
    if (gpus < 2)
        fatalError("StrategyElector: need >= 2 GPUs, got ", gpus);
    if (share_count < 1)
        fatalError("StrategyElector: bad share count ", share_count);

    _stats.inc("elect.requests");
    const std::string key = workload + "|" + std::to_string(gpus)
        + "|" + std::to_string(share_count);
    if (const auto it = _cache.find(key); it != _cache.end()) {
        _stats.inc("elect.cache_hits");
        Election hit = it->second;
        hit.cacheHit = true;
        hit.sweepCost = 0; // Memoized result: nothing was measured.
        return hit;
    }

    // Cache miss: narrowed sweep on the tenant's fabric slice. The
    // slice is the full platform at the requested GPU count with the
    // plane's per-GPU bandwidth split across its tenants — sharing
    // shifts the compute/communication balance, so a shared slice
    // may elect a different granularity than an exclusive one.
    _stats.inc("elect.sweeps");
    PlatformSpec slice = _platform.withGpuCount(gpus);
    slice.fabric.perGpuBidirBandwidth /=
        static_cast<double>(share_count);

    // The narrowed grid: CDP only, the five smallest entries of the
    // paper's granularity and thread-count sweeps, and inline, which
    // the sweep elects when it wins outright; one iteration each.
    Profiler::Options opts;
    opts.mechanisms = {TransferMechanism::Cdp};
    opts.chunkSizes = {4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB,
                       256 * KiB};
    opts.threadCounts = {32, 128, 256, 512, 1024};
    opts.includeInline = true;
    opts.profileIterations = 1;

    Profiler profiler(slice, opts);
    auto instance =
        makeWorkload(workload, _options.scaleShift, _graphs);
    instance->setup(gpus);
    const ProfileResult result = profiler.profile(*instance);
    _stats.inc("elect.candidates",
               static_cast<double>(result.entries.size()) + 1.0);

    Election election;
    election.config = result.best;
    election.sweepCost = result.sweepTicks;
    election.paradigm =
        result.best.mechanism == TransferMechanism::Inline
        ? Paradigm::ProactInline
        : Paradigm::ProactDecoupled;
    _cache.emplace(key, election);
    return election;
}

} // namespace proact::fleet
