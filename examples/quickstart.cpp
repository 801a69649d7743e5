/**
 * @file
 * Quickstart: run one workload under every communication paradigm.
 *
 * Builds the paper's 4x Volta (NVLink2) system, profiles PROACT's
 * configuration space for the chosen workload, then executes it
 * functionally (numerically verified) under cudaMemcpy duplication,
 * Unified Memory, PROACT-inline, PROACT-decoupled and the
 * infinite-bandwidth limit, printing each paradigm's speedup over a
 * single GPU.
 *
 * Usage: quickstart [workload]
 *   workload: "Jacobi" (default), "X-ray CT", "Pagerank", "SSSP",
 *             "ALS"
 */

#include "harness/session.hh"
#include "proact/config.hh"
#include "workloads/registry.hh"

#include <iomanip>
#include <iostream>
#include <string>

using namespace proact;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "Jacobi";
    const int scale_shift = envScaleShift();
    Session session(voltaPlatform());

    std::cout << "PROACT quickstart: " << name << " on "
              << session.platform().name << " ("
              << session.platform().fabric.name << ")\n\n";

    const WorkloadFactory factory = [&](int gpus) {
        auto workload = makeWorkload(name, scale_shift);
        workload->setup(gpus);
        return workload;
    };

    const auto results =
        session.compareParadigms(factory, /*functional=*/true);

    std::cout << std::left << std::setw(20) << "paradigm"
              << std::right << std::setw(12) << "time (ms)"
              << std::setw(10) << "speedup" << "\n"
              << std::string(42, '-') << "\n";
    for (const auto &run : results) {
        std::cout << std::left << std::setw(20)
                  << paradigmName(run.paradigm) << std::right
                  << std::setw(12) << std::fixed
                  << std::setprecision(3)
                  << secondsFromTicks(run.ticks) * 1e3
                  << std::setw(10) << std::setprecision(2)
                  << run.speedup << "\n";
    }
    std::cout << "\nEvery paradigm verified numerically.\n";
    return 0;
}
