/**
 * @file
 * Ablation: sensitivity of the reproduced results to the fabric
 * topology assumption. The paper's 4-GPU NVLink systems are
 * direct-attached (links statically partitioned across peers) while
 * our default model exposes each GPU's aggregate bandwidth as shared
 * ports. Every Table I platform runs every application under both
 * organizations, for PROACT-decoupled and for the cudaMemcpy
 * baseline.
 *
 * PROACT's traffic is an all-peer broadcast that keeps every link
 * busy, so it agrees across the two within a few percent everywhere.
 * cudaMemcpy's serially issued bulk copies do not: how they overlap
 * depends on whether a pair owns a link slice or shares the GPU's
 * ports, and on PCIe the pairwise model has no shared root-complex
 * core at all. That gap is one reason both Interconnect::transfer
 * branches stay (DESIGN.md §5).
 */

#include "bench/bench_common.hh"

#include <iomanip>
#include <iostream>

using namespace proact;
using namespace proact::bench;

namespace {

/** A table cell holding @p ticks in milliseconds. */
std::string
ms(Tick ticks)
{
    return cell(secondsFromTicks(ticks) * 1e3, 14, 3);
}

/** Percent change of @p pairwise over @p shared. */
std::string
delta(Tick shared, Tick pairwise)
{
    return cell(100.0
                    * (static_cast<double>(pairwise)
                           / static_cast<double>(shared)
                       - 1.0),
                9, 1)
        + "%";
}

} // namespace

int
main()
{
    const std::uint64_t scale = envFootprintScale();

    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 128 * KiB;
    config.transferThreads = 2048;

    std::cout << "Ablation: shared-port vs pairwise-link fabric, "
                 "PROACT-decoupled ("
              << config.toString() << ") and cudaMemcpy\n";

    for (const PlatformSpec &shared : allPlatforms()) {
        PlatformSpec pairwise = shared;
        pairwise.fabric.topology = FabricTopology::PairwiseLinks;
        const int gpus = shared.numGpus;

        std::cout << "\n" << shared.name << " (" << shared.fabric.name
                  << ", " << gpus << " GPUs)\n";
        std::cout << std::left << std::setw(12) << "app" << std::right
                  << std::setw(14) << "PROACT sh ms" << std::setw(14)
                  << "PROACT pw ms" << std::setw(10) << "delta"
                  << std::setw(14) << "memcpy sh ms" << std::setw(14)
                  << "memcpy pw ms" << std::setw(10) << "delta"
                  << "\n";

        for (const auto &app : standardWorkloadNames()) {
            auto workload = makeScaledWorkload(app, gpus, scale);
            const Tick proact_shared = runParadigm(
                shared, *workload, Paradigm::ProactDecoupled, config);
            const Tick proact_pair = runParadigm(
                pairwise, *workload, Paradigm::ProactDecoupled, config);
            const Tick memcpy_shared = runParadigm(
                shared, *workload, Paradigm::CudaMemcpy, config);
            const Tick memcpy_pair = runParadigm(
                pairwise, *workload, Paradigm::CudaMemcpy, config);

            std::cout << std::left << std::setw(12) << app
                      << ms(proact_shared) << ms(proact_pair)
                      << delta(proact_shared, proact_pair)
                      << ms(memcpy_shared) << ms(memcpy_pair)
                      << delta(memcpy_shared, memcpy_pair) << "\n";
        }
    }

    std::cout << "\n(all-peer broadcasts exercise every link, so "
                 "PROACT agrees within a few percent; bulk copies "
                 "move with the choice)\n";
    return 0;
}
