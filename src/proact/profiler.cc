#include "proact/profiler.hh"

#include "proact/runtime.hh"
#include "sim/logging.hh"
#include "system/multi_gpu_system.hh"

#include <algorithm>
#include <limits>

namespace proact {

ProfileEntry
ProfileResult::bestDecoupled() const
{
    if (entries.empty())
        fatalError("ProfileResult: empty sweep");
    const ProfileEntry *best = &entries.front();
    for (const auto &e : entries) {
        if (e.ticks < best->ticks)
            best = &e;
    }
    return *best;
}

Profiler::Profiler(PlatformSpec platform)
    : Profiler(std::move(platform), Options{})
{
}

Profiler::Profiler(PlatformSpec platform, Options options)
    : _platform(std::move(platform)), _options(std::move(options))
{
}

Tick
Profiler::measure(Workload &workload, const TransferConfig &config)
{
    MultiGpuSystem system(_platform);
    system.setFunctional(false);

    ProactRuntime::Options opts;
    opts.config = config;
    opts.maxIterations = _options.profileIterations;
    ProactRuntime runtime(system, opts);
    return runtime.run(workload);
}

ProfileResult
Profiler::profile(Workload &workload)
{
    if (workload.numGpus() != _platform.numGpus)
        fatalError("Profiler: workload set up for ",
                   workload.numGpus(), " GPUs, platform has ",
                   _platform.numGpus);

    ProfileResult result;
    Tick best_ticks = std::numeric_limits<Tick>::max();

    // Largest per-GPU partition determines the chunk-count guard.
    std::uint64_t max_partition = 0;
    {
        const Phase first = workload.phase(0);
        for (const auto &work : first.perGpu) {
            for (const auto &output : work.allOutputs())
                max_partition = std::max(max_partition,
                                         output.bytesProduced);
        }
    }

    for (const auto mech : _options.mechanisms) {
        for (const auto chunk : _options.chunkSizes) {
            if (max_partition / chunk
                    > static_cast<std::uint64_t>(
                          _options.maxChunksPerGpu)) {
                continue;
            }
            for (const auto threads : _options.threadCounts) {
                TransferConfig config;
                config.mechanism = mech;
                config.chunkBytes = chunk;
                config.transferThreads = threads;
                const Tick ticks = measure(workload, config);
                result.entries.push_back({config, ticks});
                result.sweepTicks += ticks;
                if (ticks < best_ticks) {
                    best_ticks = ticks;
                    result.best = config;
                }
            }
        }
    }

    if (_options.includeInline) {
        TransferConfig config;
        config.mechanism = TransferMechanism::Inline;
        result.inlineTicks = measure(workload, config);
        result.sweepTicks += result.inlineTicks;
        if (result.inlineTicks < best_ticks) {
            best_ticks = result.inlineTicks;
            result.best = config;
        }
    }

    result.bestTicks = best_ticks;
    return result;
}

} // namespace proact
