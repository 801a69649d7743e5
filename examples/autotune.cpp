/**
 * @file
 * PROACT's compile-time auto-tuning in action (paper Sec. III-A).
 *
 * Sweeps the full configuration space — transfer mechanism x chunk
 * granularity x transfer thread count — for a chosen workload and
 * platform, prints the throughput surface (the paper's Figure 4
 * view) and the Table II-style winning configuration, then shows the
 * speedup the tuned configuration delivers over naive choices.
 *
 * Usage: autotune [workload] [platform]
 *   workload: "Pagerank" (default), "Jacobi", "X-ray CT", "SSSP",
 *             "ALS"
 *   platform: "volta" (default), "pascal", "kepler"
 */

#include "harness/session.hh"
#include "proact/config.hh"
#include "workloads/registry.hh"

#include <iomanip>
#include <iostream>
#include <string>

using namespace proact;

namespace {

PlatformSpec
platformByName(const std::string &name)
{
    if (name == "kepler")
        return keplerPlatform();
    if (name == "pascal")
        return pascalPlatform();
    return voltaPlatform();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload_name =
        argc > 1 ? argv[1] : "Pagerank";
    const PlatformSpec platform =
        platformByName(argc > 2 ? argv[2] : "volta");

    Session session(platform);
    auto workload = makeWorkload(workload_name, envScaleShift());
    workload->setFootprintScale(16);
    workload->setup(platform.numGpus);

    std::cout << "Auto-tuning " << workload_name << " on "
              << platform.name << " (" << platform.fabric.name
              << ")\n\n";

    Profiler::Options sweep;
    sweep.chunkSizes = {16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB,
                        4 * MiB};
    sweep.threadCounts = {256, 1024, 4096};
    const ProfileResult prof = session.profile(*workload, sweep);

    // Throughput surface per mechanism (higher = better, normalized
    // to the best decoupled point).
    const double best =
        static_cast<double>(prof.bestDecoupled().ticks);
    for (const auto mech :
         {TransferMechanism::Cdp, TransferMechanism::Polling}) {
        std::cout << mechanismName(mech)
                  << " relative throughput (threads x chunk):\n";
        std::cout << std::left << std::setw(9) << "";
        for (const auto c : sweep.chunkSizes)
            std::cout << std::right << std::setw(8)
                      << formatBytes(c);
        std::cout << "\n";
        for (const auto t : sweep.threadCounts) {
            std::cout << std::left << std::setw(9) << t;
            for (const auto c : sweep.chunkSizes) {
                for (const auto &entry : prof.entries) {
                    if (entry.config.mechanism == mech &&
                        entry.config.chunkBytes == c &&
                        entry.config.transferThreads == t) {
                        std::cout
                            << std::right << std::setw(8)
                            << std::fixed << std::setprecision(2)
                            << best
                                / static_cast<double>(entry.ticks);
                    }
                }
            }
            std::cout << "\n";
        }
        std::cout << "\n";
    }

    std::cout << "chosen configuration: " << prof.best.toString()
              << "\n\n";

    // Tuned vs. naive configurations.
    auto ticks_for = [&](const TransferConfig &config) {
        return session
            .run(*workload, Paradigm::ProactDecoupled,
                 {.config = config, .functional = false})
            .ticks;
    };
    TransferConfig naive_small = prof.bestDecoupled().config;
    naive_small.chunkBytes = 16 * KiB;
    naive_small.transferThreads = 256;
    TransferConfig naive_big = prof.bestDecoupled().config;
    naive_big.chunkBytes = 4 * MiB;
    naive_big.transferThreads = 256;

    const Tick tuned = ticks_for(prof.bestDecoupled().config);
    std::cout << "tuned config vs naive choices:\n"
              << std::fixed << std::setprecision(2)
              << "  vs 16kB/256thr:  "
              << static_cast<double>(ticks_for(naive_small))
                     / static_cast<double>(tuned)
              << "x\n"
              << "  vs 4MB/256thr:   "
              << static_cast<double>(ticks_for(naive_big))
                     / static_cast<double>(tuned)
              << "x\n";
    return 0;
}
