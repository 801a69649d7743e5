/**
 * @file
 * Multi-tenant fleet serving on one simulated fabric.
 *
 * A FleetSession drives a seeded stream of jobs through the
 * admission -> placement -> election -> run pipeline:
 *
 *  - arrivals enter a priority queue (admission.hh);
 *  - the placement allocator seats each admitted tenant on a plane
 *    subset of the machine (placement.hh);
 *  - the strategy elector picks paradigm + TransferConfig from its
 *    profiler cache, sweeping a narrowed grid on a miss
 *    (elector.hh);
 *  - the tenant executes through the ordinary Session harness on a
 *    platform slice (its GPU count, its plane's bandwidth share),
 *    optionally with a per-tenant fault plan and delivery observer.
 *
 * Plane contention is one flag per plane for the length of a serve:
 * an admission that leaves two or more tenants on a plane marks it
 * contended, and only the plane emptying clears it, so a plane that
 * drops back to one tenant still turns co-location away. Admission
 * consults the flag before co-locating.
 *
 * Everything is deterministic: the fleet clock is a discrete event
 * list ordered by (tick, kind, id), every per-job random draw comes
 * from a derived seed, and each tenant's nested simulation is
 * tick-exact, so two serves of the same stream produce bit-identical
 * reports.
 */

#ifndef PROACT_FLEET_FLEET_SESSION_HH
#define PROACT_FLEET_FLEET_SESSION_HH

#include "fleet/admission.hh"
#include "fleet/elector.hh"
#include "fleet/job.hh"
#include "fleet/placement.hh"
#include "harness/session.hh"
#include "proact/config.hh"
#include "workloads/graph.hh"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace proact::fleet {

/**
 * Device-loss recovery behaviour for the whole fleet. When enabled,
 * every tenant runs with the device watchdog and iteration-boundary
 * checkpoints armed (a restart pays one
 * ProactRuntime::checkpointCost to restore); an aborted tenant
 * releases its placement, the dead physical GPU is quarantined for
 * the rest of the serve, and the job re-enters the admission queue
 * to restart from its latest checkpoint — shrunk onto surviving GPUs
 * when its original request no longer fits any plane.
 */
struct RecoveryPolicy
{
    bool enabled = false;

    /** Never shrink a resumed job below this many GPUs. */
    int minGpus = 2;

    /** Restart budget per job; exceeding it is a fleet error. */
    int maxAttempts = 4;
};

/** Everything the fleet learned about one served tenant. */
struct TenantRecord
{
    JobSpec job;
    Placement placement;
    Election election;

    Tick admitted = 0;     ///< Fleet tick the job started.
    Tick queueDelay = 0;   ///< admitted - arrival.

    /**
     * Fleet tick the election decision took effect: admitted when
     * sweeps are free, admitted + electionSweepTicks when
     * Options::chargeElections bills a cache-miss sweep to the
     * timeline (the tenant's run starts only after the sweep).
     */
    Tick electedAt = 0;
    Tick serviceTicks = 0; ///< Nested makespan + charges (below).
    Tick completion = 0;   ///< admitted + serviceTicks.
    Tick latency = 0;      ///< completion - arrival.
    bool metDeadline = true;

    /** Restart ordinal (0 = first attempt). */
    int attempt = 0;

    /** Iteration this attempt resumed from (0 = from the start). */
    int firstIteration = 0;

    /** Election sweep cost charged to the timeline (0 unless
     * Options::chargeElections). */
    Tick electionSweepTicks = 0;

    /** Checkpoint-restore cost charged at a resumed start. */
    Tick restoreTicks = 0;

    /** Harness counters of the tenant's run. */
    ParadigmRun run;
};

/** One device-loss -> restart episode observed during a serve. */
struct RecoveryEvent
{
    int jobId = 0;

    /** Attempt that was killed (0-based). */
    int attempt = 0;

    /** Physical GPU quarantined. */
    int lostGpu = -1;

    /** Iteration the restart resumed from. */
    int resumeIteration = 0;

    Tick abortTick = 0;   ///< Fleet tick the abort surfaced.
    Tick readmitTick = 0; ///< Fleet tick the restart began running.

    /**
     * Simulated progress discarded by the restart: the aborted
     * attempt's service time prorated over the iterations that were
     * not covered by a checkpoint.
     */
    Tick lostWork = 0;
};

/** Aggregate outcome of one serve() call. */
struct FleetReport
{
    /** Final (successful) attempt of every job; aborted attempts
     * appear only in @c recoveries. */
    std::vector<TenantRecord> tenants;

    Tick makespan = 0;

    /** Fleet-wide latency percentiles (nearest-rank). */
    Tick p50 = 0;
    Tick p95 = 0;
    Tick p99 = 0;

    /** Jobs finished per second of fleet time. */
    double throughputJobsPerSec = 0.0;

    /** Payload moved across all tenants, GB per fleet second. */
    double payloadGBps = 0.0;

    /** Sum(gpus x service) / (machine GPUs x makespan). */
    double fabricUtilization = 0.0;

    std::uint64_t electionSweeps = 0;
    std::uint64_t electionCacheHits = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferredCapacity = 0;
    std::uint64_t deferredCongestion = 0;
    std::uint64_t forcedAdmissions = 0;

    /** @{ @name Device-loss recovery telemetry */
    std::vector<RecoveryEvent> recoveries;
    std::uint64_t quarantinedGpus = 0;

    /** Lost-work percentiles over @c recoveries (nearest-rank). */
    Tick lostWorkP50 = 0;
    Tick lostWorkP95 = 0;

    /** Abort-to-restart latency percentiles over @c recoveries. */
    Tick recoveryLatencyP50 = 0;
    Tick recoveryLatencyP95 = 0;
    /** @} */

    /** Latency percentile of @p values (nearest-rank, p in (0,100]). */
    static Tick percentile(std::vector<Tick> values, double p);

    /** Per-workload-class latency percentiles, name-sorted. */
    std::map<std::string, std::vector<Tick>> latenciesByWorkload()
        const;

    /**
     * Canonical text table of per-tenant and per-class percentiles —
     * the byte-comparable determinism artifact benches diff across
     * runs.
     */
    std::string percentileTable() const;

    /** Machine-readable report (BENCH_fleet.json payload). */
    std::string toJson(const std::string &platform_name,
                       std::uint64_t stream_seed) const;
};

/** Orchestrates admission, placement, election and execution. */
class FleetSession
{
  public:
    struct Options
    {
        PlacementMode placement = PlacementMode::PlaneSharing;
        int maxTenantsPerPlane = 2;
        StrategyElector::Options elector;

        /** Functional (verified) tenant runs; timing-only default. */
        bool functional = false;

        /** Scale shift applied to every tenant workload instance. */
        int scaleShift = 6;

        /** Footprint scale applied to every tenant instance. */
        std::uint64_t footprintScale = 1;

        /**
         * Per-tenant fault schedule (empty plan = clean run). Lets
         * tests fault one tenant and assert the neighbours never
         * notice. Called with the restart ordinal so a recovery
         * campaign can hand the device-loss episode to attempt 0 and
         * a clean (or differently faulted) plan to the restart.
         */
        std::function<FaultPlan(const JobSpec &, int attempt)>
            faultPlanFor;

        /** Checkpointed device-loss recovery (see RecoveryPolicy). */
        RecoveryPolicy recovery;

        /**
         * Charge each cache-miss election sweep's simulated cost to
         * the elected tenant's timeline (cache hits stay free, which
         * is the point of the persistent elector cache).
         */
        bool chargeElections = false;
    };

    /**
     * Throws FatalError on a single-GPU platform or on a fabric that
     * FabricSpec::validate rejects, before any tenant runs.
     */
    FleetSession(PlatformSpec platform, Options options);

    /** Same, with default Options (overload: a nested class's member
     * initializers cannot appear in a default argument). */
    explicit FleetSession(PlatformSpec platform);

    /** The elector holds the address of the session's graph cache. */
    FleetSession(const FleetSession &) = delete;
    FleetSession &operator=(const FleetSession &) = delete;

    /**
     * Serve the whole stream to completion and report. Callable
     * repeatedly; the election cache persists across calls (a second
     * serve of the same stream elects without sweeping).
     */
    FleetReport serve(const std::vector<JobSpec> &jobs);

    StrategyElector &elector() { return _elector; }
    const PlatformSpec &platform() const { return _platform; }
    const Options &options() const { return _options; }

    /**
     * R-MAT inputs of the elector's profiling instances and of every
     * tenant, each drawn once per session (DESIGN.md §10). Timing-only
     * serves draw only the in-edge offsets.
     */
    const GraphCache &graphs() const { return _graphs; }

  private:
    PlatformSpec _platform;
    Options _options;
    GraphCache _graphs;
    StrategyElector _elector;

    /** Execute one admitted tenant on its platform slice. */
    TenantRecord runTenant(const JobSpec &job,
                           const Placement &placement, Tick now,
                           int attempt, int first_iteration);
};

} // namespace proact::fleet

#endif // PROACT_FLEET_FLEET_SESSION_HH
