#include "bench/bench_common.hh"

#include "proact/config.hh"
#include "sim/logging.hh"

#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

namespace proact::bench {

std::uint64_t
envFootprintScale()
{
    return static_cast<std::uint64_t>(
        envInt("PROACT_FOOTPRINT_SCALE", 16, 1,
               std::numeric_limits<std::int64_t>::max()));
}

Tick
runParadigm(const PlatformSpec &platform, Workload &workload,
            Paradigm paradigm, const TransferConfig &config)
{
    MultiGpuSystem system(platform);
    system.setFunctional(false);
    return makeRuntime(paradigm, system, config)->run(workload);
}

std::unique_ptr<Workload>
makeScaledWorkload(const std::string &name, int num_gpus,
                   std::uint64_t footprint_scale)
{
    auto workload = makeWorkload(name, envScaleShift());
    workload->setFootprintScale(footprint_scale);
    workload->setup(num_gpus);
    return workload;
}

Tick
singleGpuReference(const PlatformSpec &platform,
                   const std::string &workload_name,
                   std::uint64_t footprint_scale)
{
    auto workload =
        makeScaledWorkload(workload_name, 1, footprint_scale);
    MultiGpuSystem system(platform.withGpuCount(1));
    system.setFunctional(false);
    return makeRuntime(Paradigm::InfiniteBw, system)->run(*workload);
}

Profiler::Options
defaultProfilerOptions()
{
    Profiler::Options options;
    if (std::getenv("PROACT_QUICK") != nullptr) {
        options.chunkSizes = {16 * KiB, 128 * KiB, 1 * MiB, 4 * MiB};
        options.threadCounts = {256, 2048, 4096};
    } else if (std::getenv("PROACT_FULL_SWEEP") == nullptr) {
        // Default: coarser steps spanning the paper's full studied
        // ranges (4 kB - 16 MB, 32 - 8192 threads); set
        // PROACT_FULL_SWEEP for every point of the fine grid.
        options.chunkSizes = {4 * KiB,   16 * KiB, 128 * KiB,
                              256 * KiB, 1 * MiB,  16 * MiB};
        options.threadCounts = {32, 256, 1024, 2048, 4096, 8192};
    }
    options.profileIterations = 2;
    return options;
}

std::string
cell(double value, int width, int precision)
{
    std::ostringstream oss;
    oss << std::right << std::setw(width) << std::fixed
        << std::setprecision(precision) << value;
    return oss.str();
}

} // namespace proact::bench
