/**
 * @file
 * Strong-scaling study on the 16-GPU DGX-2 (paper Fig. 10 headline).
 *
 * Scales one application from 1 to 16 GPUs under bulk cudaMemcpy
 * duplication and PROACT, printing the speedup curves that produce
 * the paper's headline result: PROACT scales near-linearly while the
 * bulk-synchronous baseline flattens under N*(N-1) per-iteration
 * copies.
 *
 * PROACT_NODES=N extends the study onto a hierarchical N-node
 * platform (multiNodePlatform), adding 32/64/... GPU points that
 * cross the network tier.
 *
 * Usage: scaling_study [workload]
 */

#include "harness/session.hh"
#include "proact/config.hh"
#include "workloads/registry.hh"

#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

using namespace proact;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "Pagerank";
    const PlatformSpec dgx2 = envMultiNodePlatform();

    auto make = [&](int gpus) {
        auto workload = makeWorkload(name, envScaleShift());
        workload->setFootprintScale(16);
        workload->setup(gpus);
        return workload;
    };

    std::cout << "Strong scaling of " << name << " on " << dgx2.name
              << " (" << dgx2.fabric.name << ")\n\n";

    // Profile once at full scale; deploy everywhere.
    Session full(dgx2);
    auto profile_workload = make(dgx2.numGpus);
    Profiler::Options sweep;
    sweep.chunkSizes = {64 * KiB, 256 * KiB, 1 * MiB};
    sweep.threadCounts = {1024, 2048};
    const TransferConfig config =
        full.profile(*profile_workload, sweep).bestDecoupled().config;
    std::cout << "deployed config: " << config.toString() << "\n\n";

    const Tick single = full.singleGpuTicks(make);

    std::cout << std::left << std::setw(8) << "#GPUs" << std::right
              << std::setw(14) << "cudaMemcpy" << std::setw(14)
              << "PROACT" << std::setw(14) << "Infinite-BW" << "\n";

    std::vector<int> counts = {1, 2, 4, 8, 12, 16};
    for (int n = 32; n <= dgx2.numGpus; n *= 2)
        counts.push_back(n);

    for (const int n : counts) {
        Session session(dgx2.withGpuCount(n));
        std::cout << std::left << std::setw(8) << n;
        for (const Paradigm p :
             {Paradigm::CudaMemcpy, Paradigm::ProactDecoupled,
              Paradigm::InfiniteBw}) {
            auto workload = make(n);
            const ParadigmRun run = session.run(
                *workload, p, {.config = config, .functional = false});
            std::cout << std::right << std::setw(14) << std::fixed
                      << std::setprecision(2)
                      << static_cast<double>(single)
                          / static_cast<double>(run.ticks);
        }
        std::cout << "\n";
    }
    std::cout << "\n(paper: ~11x PROACT vs ~2x cudaMemcpy at 16 "
                 "GPUs)\n";
    return 0;
}
