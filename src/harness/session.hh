/**
 * @file
 * One-stop facade over the PROACT stack.
 *
 * A Session fixes a platform and exposes the full workflow of the
 * paper — profile a workload's configuration space, execute it under
 * any paradigm (fresh system per run so statistics never leak), and
 * produce side-by-side paradigm comparisons normalized to a
 * single-GPU baseline. Examples and benchmarks build on this.
 */

#ifndef PROACT_HARNESS_SESSION_HH
#define PROACT_HARNESS_SESSION_HH

#include "harness/paradigm.hh"
#include "proact/profiler.hh"
#include "system/platform.hh"
#include "workloads/workload.hh"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace proact {

/** Outcome of one paradigm execution. */
struct ParadigmRun
{
    Paradigm paradigm;
    Tick ticks = 0;

    /** Speedup over the single-GPU reference (0 when unknown). */
    double speedup = 0.0;

    /** Wire traffic the run put on the fabric. */
    std::uint64_t wireBytes = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t storeTransactions = 0;

    /**
     * @{ @name Fault-adaptive runtime counters
     * All zero on a fault-free run; harvested from the injector, the
     * retry layer, the health monitor and the rerouter when
     * RunOptions arms them.
     */
    std::uint64_t faultsDropped = 0;    ///< Deliveries the plan lost.
    std::uint64_t retries = 0;          ///< Re-pushes after ack loss.
    std::uint64_t fallbacks = 0;        ///< Reliable-path activations.
    std::uint64_t linkTransitions = 0;  ///< Health state changes.
    std::uint64_t wireTransitions = 0;  ///< ... involving DEGRADED/DOWN.
    std::uint64_t congestionEvents = 0; ///< Links classified CONGESTED.
    std::uint64_t reroutes = 0;         ///< Detours + splits applied.
    /** @} */

    /**
     * @{ @name Device-loss / checkpoint outcome
     * Populated by the PROACT runtimes when the device watchdog or
     * checkpointing is armed (RunOptions::deviceHealth / checkpoint).
     */
    bool aborted = false;              ///< A GPU was declared LOST.
    int lostGpu = -1;                  ///< The LOST GPU (-1 = none).
    int completedIterations = 0;       ///< Iterations fully done.
    int checkpointIteration = -1;      ///< Latest checkpointed iter.
    int checkpoints = 0;               ///< Checkpoints written.
    Tick checkpointTicks = 0;          ///< Ticks spent checkpointing.
    std::uint64_t refusedDeliveries = 0; ///< Dead-endpoint refusals.
    std::uint64_t quiescedFlights = 0; ///< In-flight DMA aborted.
    std::uint64_t orphanedTransfers = 0; ///< Given-up dead transfers.
    /** @} */

    /**
     * One-line fault/health digest ("retries=3 reroutes=5 ...");
     * empty when every fault-adaptive counter is zero.
     */
    std::string faultSummary() const;
};

/** Factory producing fresh, set-up workload instances. */
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(int num_gpus)>;

/** Fixed-platform driver for profiling and paradigm comparisons. */
class Session
{
  public:
    /**
     * Everything one paradigm execution depends on; run() reads no
     * environment. Multi-tenant drivers (src/fleet) build one per
     * tenant, so every tenant carries its own fault plan and tracing.
     * Every member has a default initializer, so a designated
     * initializer may name any subset ({.config = c}) without
     * tripping -Wmissing-field-initializers.
     */
    struct RunOptions
    {
        TransferConfig config{};

        /** Run the real math (verifiable) or timing-only (fast). */
        bool functional = true;

        /** Fault schedule armed on the fresh system (empty = perfect
         * fabric). */
        FaultPlan faults{};

        /**
         * Link health monitoring (no transition holdoff), rebooking
         * and detours/splits around unhealthy links.
         */
        bool reroute = false;

        /**
         * Device heartbeat watchdog on the fresh system: declares
         * GPUs LOST with hysteresis, quiesces their in-flight DMA and
         * poisons their links. Required for checkpointed recovery —
         * without it a device loss panics on missing deliveries.
         */
        bool deviceHealth = false;

        /** Iteration-boundary checkpoints (PROACT paradigms only). */
        bool checkpoint = false;

        /**
         * Resume a recovery restart at this iteration (normally the
         * previous attempt's checkpointIteration + 1).
         */
        int firstIteration = 0;
    };

    explicit Session(PlatformSpec platform);

    const PlatformSpec &platform() const { return _platform; }

    /**
     * Run the brute-force profiler on @p workload (timing-only).
     * The workload must be set up for the platform's GPU count.
     */
    ProfileResult profile(Workload &workload,
                          const Profiler::Options &options = {});

    /**
     * Execute @p workload under @p paradigm on a fresh system armed
     * as @p options says; the result carries the fault counters.
     */
    ParadigmRun run(Workload &workload, Paradigm paradigm,
                    const RunOptions &options);

    /**
     * Full paper-style comparison: profile, run every paradigm, and
     * normalize against a single-GPU run built by @p factory.
     *
     * @param factory Creates a workload set up for the requested GPU
     *        count (called for the platform count and for 1).
     * @param functional Verify numerics on every paradigm run.
     */
    std::vector<ParadigmRun> compareParadigms(
        const WorkloadFactory &factory, bool functional = false,
        const Profiler::Options &profiler_options = {});

    /** Single-GPU reference time for @p factory's workload. */
    Tick singleGpuTicks(const WorkloadFactory &factory,
                        bool functional = false);

  private:
    PlatformSpec _platform;
};

} // namespace proact

#endif // PROACT_HARNESS_SESSION_HH
