/**
 * @file
 * Online mechanism re-selection for the fault-adaptive runtime.
 *
 * The profiler's {mechanism, granularity, thread-count} pick is only
 * optimal for the platform it was measured on — and a fabric that
 * just lost a link is a different platform. The AdaptiveReprofiler
 * subscribes to LinkHealthMonitor state changes and, at the next
 * region (iteration) boundary, re-runs a *narrowed* profiler sweep
 * with the observed fault state reproduced on each candidate's fresh
 * system (Profiler::Options::faults = monitor.toFaultPlan()), then
 * hot-swaps the runtime's transfer config to the new winner. The
 * sweep is narrowed to a window around the current config (and, by
 * default, the current mechanism) so the online cost stays a small
 * fraction of a full compile-time sweep.
 *
 * Nested profiling runs execute on their own event queues while the
 * outer simulation is between events, so they cost zero simulated
 * time and preserve tick-for-tick determinism.
 */

#ifndef PROACT_PROACT_REPROFILER_HH
#define PROACT_PROACT_REPROFILER_HH

#include "proact/config.hh"
#include "proact/profiler.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

#include <functional>
#include <memory>
#include <vector>

namespace proact {

class MultiGpuSystem;

/** Re-runs narrowed fault-aware sweeps on link-state changes. */
class AdaptiveReprofiler
{
  public:
    /** Builds a fresh workload instance for a profiling run. */
    using WorkloadFactory =
        std::function<std::unique_ptr<Workload>(int num_gpus)>;

    struct Options
    {
        /** Iterations per candidate in the online sweep. */
        int profileIterations = 1;

        /**
         * Explicit sweep axes; when empty, a window of this radius
         * around the current config's position in the paper sweeps is
         * used (index +- radius in chunkSizeSweep() /
         * threadCountSweep()).
         */
        std::vector<std::uint64_t> chunkSizes;
        std::vector<std::uint32_t> threadCounts;
        int chunkRadius = 2;
        int threadRadius = 2;

        /**
         * Mechanisms to re-consider; empty = keep the current
         * mechanism (cheapest) — the granularity/thread shift is
         * where most of the fault adaptation lives.
         */
        std::vector<TransferMechanism> mechanisms;

        /**
         * Charge each narrowed sweep's simulated cost (the sum of
         * its candidate measurements) to the live run's timeline:
         * after a refresh the runtime stalls for that cost at the
         * region boundary, exposing the adaptation-latency
         * trade-off instead of re-profiling for free. Off by
         * default; off preserves historical timings.
         */
        bool chargeTimeline = false;
    };

    /**
     * Subscribe to @p system's health monitor (enableHealth must have
     * been called) and adapt from @p initial.
     */
    AdaptiveReprofiler(MultiGpuSystem &system, WorkloadFactory factory,
                       TransferConfig initial, Options options);

    /** Same, with default Options (overload: a nested class's member
     * initializers cannot appear in a default argument). */
    AdaptiveReprofiler(MultiGpuSystem &system, WorkloadFactory factory,
                       TransferConfig initial);

    AdaptiveReprofiler(const AdaptiveReprofiler &) = delete;
    AdaptiveReprofiler &operator=(const AdaptiveReprofiler &) = delete;

    /**
     * Narrowed sweep space centred on @p around: the window of
     * chunk sizes / thread counts (index +- radius in the paper
     * sweeps) and the mechanism set @p options describes, with
     * inline excluded. Shared machinery: the reprofiler adds the
     * observed fault state on top, and the fleet strategy elector
     * uses it as-is for cache-miss elections.
     */
    static Profiler::Options narrowedOptions(
        const TransferConfig &around, const Options &options);

    /**
     * Called by the runtime at a region boundary: when a link-state
     * change is pending, run the narrowed fault-aware sweep and adopt
     * the winner.
     *
     * @return true iff the active config changed (the caller should
     *         re-read current()).
     */
    bool refresh();

    /** The currently best-known config. */
    const TransferConfig &current() const { return _current; }

    /** Whether a link-state change awaits the next refresh(). */
    bool dirty() const { return _dirty; }

    /**
     * Sweep cost accrued since the last consume (non-zero only with
     * chargeTimeline). The runtime drains this at the region
     * boundary and advances its timeline by the returned amount.
     */
    Tick
    consumeChargeTicks()
    {
        const Tick charge = _pendingCharge;
        _pendingCharge = 0;
        return charge;
    }

    /**
     * Stats: reprofile.sweeps (narrowed sweeps run), reprofile.swaps
     * (sweeps that changed the config), reprofile.candidates
     * (configurations measured online), reprofile.sweep_ticks
     * (simulated cost of all sweeps, charged or not).
     */
    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

  private:
    MultiGpuSystem &_system;
    WorkloadFactory _factory;
    TransferConfig _current;
    Options _options;
    StatSet _stats;
    bool _dirty = false;
    Tick _pendingCharge = 0;

    Profiler::Options sweepOptions() const;
};

} // namespace proact

#endif // PROACT_PROACT_REPROFILER_HH
