/**
 * @file
 * The PROACT runtime: orchestration of instrumented kernels, region
 * tracking, and decoupled/inline transfers across iterations.
 *
 * One runtime instance executes a workload on a system under a fixed
 * TransferConfig (normally the profiler's pick). Per iteration it
 * mirrors proact_init() + the instrumented kernels of Listing 1:
 * build a RegionTracker per GPU, initialize readiness counters from
 * the CTA footprints, launch the instrumented producer kernels, let
 * agents push ready chunks while computation continues, and declare
 * the iteration done when every kernel retired and every chunk
 * arrived at every peer (the paper's sys-scope release flushes all
 * PROACT buffers at this boundary).
 */

#ifndef PROACT_PROACT_RUNTIME_HH
#define PROACT_PROACT_RUNTIME_HH

#include "proact/config.hh"
#include "proact/region.hh"
#include "proact/transfer_agent.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "system/multi_gpu_system.hh"
#include "workloads/workload.hh"

#include <memory>
#include <string>

namespace proact {

/** Executes workloads under PROACT (inline or decoupled). */
class ProactRuntime : public Runtime
{
  public:
    struct Options
    {
        TransferConfig config;

        /**
         * Keep tracking + initiation, skip the actual stores (used to
         * measure overhead and overlap, paper Figs. 8/9).
         */
        bool elideTransfers = false;

        /** Cap iterations (profiling runs use a short prefix). */
        int maxIterations = -1;

        /** Iteration-boundary checkpoints (see checkpointCost). */
        bool checkpoint = false;

        /**
         * First iteration to execute (a recovery restart resumes at
         * checkpointIteration + 1; fresh runs start at 0). Iterations
         * before it are considered already done — they neither run
         * nor checkpoint.
         */
        int firstIteration = 0;
    };

    /**
     * @{ @name Iteration-boundary checkpoints
     * Region boundaries are the only points where no chunk is
     * mid-flight (the paper's sys-scope release flushes all PROACT
     * buffers there), so a checkpoint taken at one is consistent by
     * construction. The runtime models it as a fixed cost charged to
     * the simulated timeline every checkpointInterval iterations.
     * After a device loss, a job restarts from the latest
     * checkpointed iteration (Options::firstIteration) instead of
     * from zero.
     */
    /** Iterations between checkpoints. */
    static constexpr int checkpointInterval = 1;

    /** Simulated cost of writing (or restoring) one checkpoint. */
    static constexpr Tick checkpointCost = 50 * ticksPerMicrosecond;
    /** @} */

    static_assert(checkpointInterval >= 1,
                  "checkpoint interval must be >= 1");

    ProactRuntime(MultiGpuSystem &system, Options options);

    Tick run(Workload &workload) override;

    std::string name() const override;

    const Options &options() const { return _options; }

    /** Accumulated run statistics (decrements, chunks, tail time). */
    const StatSet &stats() const { return _stats; }

    /**
     * Total time the fabric was still draining after the last
     * producer CTA retired, summed over iterations (the paper's
     * "tail transfers", Sec. V-A).
     */
    Tick tailTicks() const { return _tailTicks; }

    /**
     * @{ @name Device-loss outcome
     *
     * When the system's device watchdog declares a GPU LOST, the run
     * aborts at the next iteration boundary instead of panicking on
     * the (correctly) missing deliveries: completed iterations stay
     * completed, and the caller recovers from the latest checkpoint.
     */
    bool aborted() const { return _aborted; }

    /** GPU whose loss aborted the run (-1 = none). */
    int lostGpu() const { return _lostGpu; }

    /** Iterations fully completed (includes resumed-past ones). */
    int completedIterations() const { return _completedIterations; }

    /** Latest checkpointed iteration (-1 = no checkpoint taken). */
    int checkpointIteration() const { return _checkpointIteration; }

    /** Checkpoints written this run. */
    int checkpoints() const { return _checkpoints; }

    /** Simulated ticks spent writing checkpoints this run. */
    Tick checkpointTicks() const { return _checkpointTicks; }
    /** @} */

  private:
    MultiGpuSystem &_system;
    Options _options;
    StatSet _stats;
    Tick _tailTicks = 0;
    std::uint64_t _atomicFanout = 1;
    bool _aborted = false;
    int _lostGpu = -1;
    int _completedIterations = 0;
    int _checkpointIteration = -1;
    int _checkpoints = 0;
    Tick _checkpointTicks = 0;

    void runPhase(const Phase &phase, const TrafficProfile &traffic);
    void runPhaseSingleGpu(const Phase &phase);

    /** Charge @p cost to the simulated timeline and drain it. */
    void advanceTimeline(Tick cost);
};

} // namespace proact

#endif // PROACT_PROACT_RUNTIME_HH
