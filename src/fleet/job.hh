/**
 * @file
 * Job descriptions and seeded arrival streams for fleet serving.
 *
 * A fleet run serves a stream of independent tenants, each a
 * registry workload at some GPU count with a priority and an
 * optional deadline. The stream is generated from a campaign seed
 * with one derived random stream per job (deriveSeed), so appending
 * jobs to a campaign never perturbs the existing ones and two runs
 * of the same (seed, count) produce bit-identical streams.
 */

#ifndef PROACT_FLEET_JOB_HH
#define PROACT_FLEET_JOB_HH

#include "sim/types.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace proact::fleet {

/** One tenant request entering the fleet. */
struct JobSpec
{
    /** Stable id; also the seed-stream index within the campaign. */
    int id = 0;

    /** Registry name (workloads/registry.hh). */
    std::string workload;

    /** GPUs requested (must fit one placement plane, see placement). */
    int gpus = 2;

    /** Larger = more urgent; breaks admission-order ties. */
    int priority = 0;

    /** Fleet-clock tick the job becomes eligible. */
    Tick arrival = 0;

    /** Completion deadline (0 = none). */
    Tick deadline = 0;

    /** Per-job random stream seed (derived by the generator). */
    std::uint64_t seed = 0;

    /** One-line digest, e.g. "job7 Jacobi x4 prio2 @12ms". */
    std::string describe() const;
};

/** Parameters of the seeded arrival-stream generator. */
struct ArrivalModel
{
    std::uint64_t seed = 1;
    int numJobs = 32;

    /** Candidate GPU counts, drawn uniformly. */
    std::vector<int> gpuCounts = {2, 4, 8};
};

/**
 * Generate @p model.numJobs jobs with exponential inter-arrival
 * times. Job i draws everything from its own stream seeded
 * deriveSeed(model.seed, i); arrivals accumulate in id order. Each
 * job names a standard registry workload and one of three
 * priorities, the gaps average 100 us (near typical scaled-down
 * tenant service times, so a served stream overlaps: placements
 * contend, planes share, and admission has queues to order), and a
 * quarter of the jobs carry a deadline 16 mean gaps after arrival.
 */
std::vector<JobSpec> generateJobStream(const ArrivalModel &model);

} // namespace proact::fleet

#endif // PROACT_FLEET_JOB_HH
