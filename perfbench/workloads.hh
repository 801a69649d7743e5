/**
 * @file
 * The benchmark's four workloads and the per-pass context they run in.
 *
 * A pass runs one workload end to end from a seed. Every call into a
 * layer of the simulator goes through the Pass helpers, which time it
 * (and trace it when recording), count it as an attempted operation,
 * turn a FatalError/PanicError into a failed operation, and fold every
 * simulated tick and counter into the pass digest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "trace.hh"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/** Problem sizes; the smoke check shrinks them. */
struct Scale
{
    int appShift = 4;        ///< Registry scale shift, scaling + sweep.
    int jacobiShift = 3;     ///< Jacobi scale shift, faults.
    std::uint64_t footprint = 16; ///< Workload::setFootprintScale.
    int fleetJobs = 30;      ///< Jobs in the fleet stream.
    int fleetShift = 6;      ///< Tenant and election scale shift.
    int functionalShift = 6; ///< Functional (verified) pass size.

    /** Tiny sizes for the smoke check. */
    static Scale tiny();
};

/** What one pass measured. */
struct PassResult
{
    double wallS = 0.0;
    double setupS = 0.0;

    /** Host seconds per layer and derived host rates. */
    std::map<std::string, double> host;

    /** Simulated metrics and counters (must repeat exactly). */
    std::map<std::string, double> sim;

    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

/** Names of the workloads, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

bool isWorkload(const std::string &name);

/** Run one pass of @p workload; the tracer's totals are reset. */
PassResult runPass(const std::string &workload, Tracer &tracer,
                   const Scale &scale, std::uint64_t seed);

/**
 * Functional pass: every application under every paradigm once, with
 * the real math on, each required to verify().
 */
PassResult functionalPass(const Scale &scale, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
