#include "fleet/job.hh"

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/registry.hh"

#include <cmath>
#include <sstream>

namespace proact::fleet {

std::string
JobSpec::describe() const
{
    std::ostringstream oss;
    oss << "job" << id << " " << workload << " x" << gpus << " prio"
        << priority << " @"
        << arrival / ticksPerMicrosecond << "us";
    if (deadline != 0)
        oss << " due " << deadline / ticksPerMicrosecond << "us";
    return oss.str();
}

namespace {

/** Mean of the exponential inter-arrival gap. */
constexpr Tick meanInterarrival = 100 * ticksPerMicrosecond;

/** Priorities are drawn uniformly from [0, numPriorities). */
constexpr std::uint64_t numPriorities = 3;

/** Fraction of jobs carrying a deadline. */
constexpr double deadlineFraction = 0.25;

/** Deadline slack, as a multiple of meanInterarrival. */
constexpr double deadlineSlack = 16.0;

} // namespace

std::vector<JobSpec>
generateJobStream(const ArrivalModel &model)
{
    if (model.numJobs < 1)
        fatalError("generateJobStream: numJobs must be positive");
    if (model.gpuCounts.empty())
        fatalError("generateJobStream: no candidate GPU counts");

    const std::vector<std::string> names = standardWorkloadNames();

    std::vector<JobSpec> jobs;
    jobs.reserve(static_cast<std::size_t>(model.numJobs));
    Tick clock = 0;
    for (int i = 0; i < model.numJobs; ++i) {
        Rng rng(deriveSeed(model.seed, static_cast<std::uint64_t>(i)));

        JobSpec job;
        job.id = i;
        job.seed = deriveSeed(model.seed,
                              0x10000u + static_cast<std::uint64_t>(i));
        job.workload = names[rng.below(names.size())];
        job.gpus = model.gpuCounts[rng.below(model.gpuCounts.size())];
        job.priority = static_cast<int>(rng.below(numPriorities));

        // Exponential inter-arrival gap via inverse transform. The
        // draw order within the per-job stream is fixed (workload,
        // gpus, priority, gap, deadline coin) — reordering it would
        // silently invalidate every golden stream.
        const double u = rng.uniform();
        const double gap = -std::log(1.0 - u)
            * static_cast<double>(meanInterarrival);
        clock += static_cast<Tick>(gap);
        job.arrival = clock;

        if (rng.uniform() < deadlineFraction) {
            job.deadline = job.arrival
                + static_cast<Tick>(
                      deadlineSlack
                      * static_cast<double>(meanInterarrival));
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace proact::fleet
