#include "proact/profiler.hh"

#include "proact/runtime.hh"
#include "sim/logging.hh"
#include "system/multi_gpu_system.hh"

#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

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

    // Enumerate the candidate space up front so serial and parallel
    // sweeps measure the identical list in the identical order.
    std::vector<TransferConfig> candidates;
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
                candidates.push_back(config);
            }
        }
    }

    const int shards =
        _options.shards > 0 ? _options.shards : envSimShards();
    const std::size_t workers = std::min<std::size_t>(
        shards > 1 && _options.sweepFactory ? shards : 1,
        candidates.empty() ? 1 : candidates.size());

    std::vector<Tick> measured(candidates.size(), 0);
    if (workers <= 1) {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            measured[i] = measure(workload, candidates[i]);
    } else {
        // Each worker measures on its own workload instance (fresh
        // system per candidate as always); ticks land in sweep order
        // so the fold below is bit-identical to the serial path.
        std::atomic<std::size_t> next{0};
        std::exception_ptr failure;
        std::mutex failure_mutex;
        auto sweep_worker = [&] {
            try {
                auto local = _options.sweepFactory(_platform.numGpus);
                if (!local)
                    fatalError("Profiler: sweep factory returned "
                               "null");
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= candidates.size())
                        break;
                    measured[i] = measure(*local, candidates[i]);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
            }
        };
        std::vector<std::thread> pool;
        for (std::size_t w = 1; w < workers; ++w)
            pool.emplace_back(sweep_worker);
        sweep_worker();
        for (std::thread &t : pool)
            t.join();
        if (failure)
            std::rethrow_exception(failure);
    }

    for (std::size_t i = 0; i < candidates.size(); ++i) {
        result.entries.push_back({candidates[i], measured[i]});
        result.sweepTicks += measured[i];
        if (measured[i] < best_ticks) {
            best_ticks = measured[i];
            result.best = candidates[i];
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
