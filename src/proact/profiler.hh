/**
 * @file
 * Compile-time profiler (paper Sec. III-A, Fig. 4, Table II).
 *
 * The profiler brute-force sweeps PROACT's configuration space —
 * transfer mechanism x chunk granularity x transfer thread count —
 * by executing the application in timing-only mode (kernels report
 * their footprints without doing the math) on a fresh system per
 * candidate, then selects the configuration with the best runtime.
 * The full sweep is retained so harnesses can print the Fig. 4
 * throughput surface and the Table II best-configuration rows.
 */

#ifndef PROACT_PROACT_PROFILER_HH
#define PROACT_PROACT_PROFILER_HH

#include "proact/config.hh"
#include "sim/types.hh"
#include "system/platform.hh"
#include "workloads/workload.hh"

#include <cstdint>
#include <vector>

namespace proact {

/** One measured point of the profiling sweep. */
struct ProfileEntry
{
    TransferConfig config;
    Tick ticks;
};

/** Outcome of a profiling run. */
struct ProfileResult
{
    /** Best configuration over the whole space (incl. inline). */
    TransferConfig best;
    Tick bestTicks = 0;

    /** Inline variant's runtime (always measured). */
    Tick inlineTicks = 0;

    /**
     * Total simulated ticks the sweep itself consumed (every
     * candidate measurement, inline included): what a fleet election
     * charges a tenant's timeline when it bills its sweep.
     */
    Tick sweepTicks = 0;

    /** Every decoupled point measured, in sweep order. */
    std::vector<ProfileEntry> entries;

    /** Best decoupled point (ignoring inline). */
    ProfileEntry bestDecoupled() const;
};

/** Brute-force configuration search for one platform. */
class Profiler
{
  public:
    struct Options
    {
        std::vector<std::uint64_t> chunkSizes = chunkSizeSweep();
        std::vector<std::uint32_t> threadCounts = threadCountSweep();
        /**
         * Candidates in tie-break order: at equal runtime the
         * earlier mechanism wins. CDP precedes polling because it
         * consumes SM resources only while transferring (a free win
         * when times tie, as on communication-bound PCIe systems).
         */
        std::vector<TransferMechanism> mechanisms = {
            TransferMechanism::Cdp, TransferMechanism::Polling};

        /** Also measure the inline variant. */
        bool includeInline = true;

        /** Iterations per candidate (short prefix of the workload). */
        int profileIterations = 2;

        /**
         * Skip configurations whose per-GPU chunk count exceeds this
         * (readiness-counter storage and bitmap-scan cost become
         * unreasonable; cf. the paper's Sec. III-B storage remark).
         */
        int maxChunksPerGpu = 65536;
    };

    explicit Profiler(PlatformSpec platform);
    Profiler(PlatformSpec platform, Options options);

    /**
     * Sweep the space for @p workload.
     *
     * The workload must already be set up for platform.numGpus GPUs;
     * its functional state is not modified (timing-only execution).
     */
    ProfileResult profile(Workload &workload);

    /** Timing-only runtime of a single candidate configuration. */
    Tick measure(Workload &workload, const TransferConfig &config);

    const Options &options() const { return _options; }

  private:
    PlatformSpec _platform;
    Options _options;
};

} // namespace proact

#endif // PROACT_PROACT_PROFILER_HH
