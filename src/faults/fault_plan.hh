/**
 * @file
 * Declarative fault schedules for the simulated fabric.
 *
 * A FaultPlan is a reproducible description of everything that goes
 * wrong during a run: which links degrade or go down, when deliveries
 * are dropped, and which GPUs die. The plan is
 * pure data — the FaultInjector arms it on a live system — so the
 * same plan can be replayed against different mechanisms and
 * platforms, and two runs with the same plan (and seed) are
 * tick-for-tick identical.
 */

#ifndef PROACT_FAULTS_FAULT_PLAN_HH
#define PROACT_FAULTS_FAULT_PLAN_HH

#include "sim/types.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace proact {

/** The modeled failure modes. */
enum class FaultKind
{
    /** Link runs at (1 - severity) x nominal bandwidth. */
    LinkDegrade,

    /** Link delivers nothing; every matching delivery is lost. */
    LinkDown,

    /** Each matching delivery is lost with probability = severity. */
    DeliveryDrop,

    /**
     * The whole GPU dies: every transfer touching it (either
     * endpoint, reliable or not) is refused. An episode ending at
     * maxTick is a permanent loss.
     */
    GpuDown,
};

std::string faultKindName(FaultKind kind);

/**
 * One fault episode: a kind, an active window [start, end), a target
 * (link endpoints or GPU; -1 = wildcard), and a severity.
 */
struct FaultEpisode
{
    FaultKind kind = FaultKind::DeliveryDrop;

    /** Active window [start, end). */
    Tick start = 0;
    Tick end = maxTick;

    /** Link targets: -1 matches any source / destination GPU. */
    int src = -1;
    int dst = -1;

    /** GpuDown target GPU. */
    int gpu = -1;

    /**
     * LinkDegrade: fraction of nominal bandwidth removed, in (0, 1).
     * DeliveryDrop: loss probability, in (0, 1].
     */
    double severity = 0.0;

    bool active(Tick t) const { return t >= start && t < end; }

    bool
    matchesLink(int s, int d) const
    {
        return (src < 0 || src == s) && (dst < 0 || dst == d);
    }

    /** Diagnostic one-liner, e.g. "drop p=0.01 gpu*->gpu2". */
    std::string describe() const;
};

/**
 * A seeded schedule of fault episodes.
 *
 * The fluent builders cover the common cases; episodes can also be
 * pushed directly. validate() rejects nonsense before a run starts.
 */
struct FaultPlan
{
    /** Seed for probabilistic decisions (delivery drops). */
    std::uint64_t seed = 1;

    std::vector<FaultEpisode> episodes;

    bool empty() const { return episodes.empty(); }

    /**
     * Check every episode against a system of @p num_gpus GPUs.
     * @throws FatalError on invalid windows, targets or severities.
     */
    void validate(int num_gpus) const;

    /** @{ @name Fluent episode builders (return *this for chaining) */
    FaultPlan &degradeLink(Tick start, Tick end, double fraction,
                           int src = -1, int dst = -1);
    FaultPlan &downLink(Tick start, Tick end, int src = -1,
                        int dst = -1);
    FaultPlan &dropDeliveries(Tick start, Tick end, double probability,
                              int src = -1, int dst = -1);
    FaultPlan &downGpu(Tick start, Tick end, int gpu);
    /** @} */

    /**
     * @{ @name Plane episode builders
     *
     * A "plane" failure models one switch plane or backplane event
     * taking out every directed link among @p gpus at once: one
     * episode per ordered pair, all with the same [start, end)
     * window.
     */
    FaultPlan &downPlane(Tick start, Tick end,
                         const std::vector<int> &gpus);
    FaultPlan &degradePlane(Tick start, Tick end, double fraction,
                            const std::vector<int> &gpus);
    /** @} */

    /**
     * Probabilistic link recovery: generate an MTTR/MTBF-style
     * outage/repair lifecycle for one directed link (see
     * LinkLifecycleOptions). Seeded and flapping-capable — the link
     * alternates exponentially distributed up times (mean @c mtbf)
     * and outage episodes (mean @c mttr) over the options' horizon,
     * so the monitor's DOWN -> HEALTHY path gets exercised repeatedly
     * rather than once.
     */
    FaultPlan &flapLink(std::uint64_t seed, int src, int dst,
                        const struct LinkLifecycleOptions &options);
};

/**
 * Knobs for MTTR/MTBF link-lifecycle generation (FaultPlan::flapLink
 * and mtbfFaultPlan). Up times and repair times are exponentially
 * distributed — the classic memoryless failure/repair model — so a
 * link can flap several times in one horizon or not at all,
 * deterministically per seed.
 */
struct LinkLifecycleOptions
{
    /** Mean time between failures (mean up time before an outage). */
    Tick mtbf = 300 * ticksPerMicrosecond;

    /** Mean time to repair (mean outage duration). */
    Tick mttr = 80 * ticksPerMicrosecond;

    /** Episodes are generated inside [0, horizon). */
    Tick horizon = 2000 * ticksPerMicrosecond;

    /**
     * Probability an outage is a hard LinkDown; otherwise it is a
     * LinkDegrade at a severity drawn from [minSeverity, maxSeverity].
     */
    double downProbability = 1.0;
    double minSeverity = 0.5;
    double maxSeverity = 0.9;

    /** Safety bound on episodes per link (pathological mtbf ~ 0). */
    int maxEpisodes = 64;
};

/**
 * Deterministically generate an MTTR/MTBF lifecycle plan flapping
 * @p num_links distinct directed links of a @p num_gpus system. Each
 * link's episode stream is derived independently from @p seed (via
 * deriveSeed), so enlarging num_links never perturbs the episodes of
 * links already in the plan.
 */
FaultPlan mtbfFaultPlan(std::uint64_t seed, int num_gpus,
                        int num_links,
                        const LinkLifecycleOptions &options = {});

/**
 * Knobs for seeded device-MTBF campaigns (deviceMtbfFaultPlan). Each
 * GPU draws an exponentially distributed up time; the GPUs whose
 * draws land inside the horizon die — permanently — earliest first,
 * capped at @c maxLosses so a campaign never kills the whole machine.
 */
struct DeviceLifecycleOptions
{
    /** Mean up time before a device loss. */
    Tick mtbf = 1500 * ticksPerMicrosecond;

    /** Losses are generated inside [earliest, horizon). */
    Tick earliest = 0;
    Tick horizon = 2000 * ticksPerMicrosecond;

    /** Upper bound on GPUs lost in one campaign. */
    int maxLosses = 1;
};

/**
 * Deterministically generate a device-loss campaign for @p num_gpus
 * GPUs. Each device's up-time draw comes from its own deriveSeed
 * stream, so enlarging the system never perturbs the fate of GPUs
 * already in it. Losses are permanent (episodes end at maxTick).
 */
FaultPlan deviceMtbfFaultPlan(std::uint64_t seed, int num_gpus,
                              const DeviceLifecycleOptions &options =
                                  {});

/** Knobs for the seeded random fault-plan generator. */
struct RandomFaultOptions
{
    /** Total number of fault events to generate. */
    int numEvents = 4;

    /** Window in which event start ticks are drawn. */
    Tick earliestStart = 0;
    Tick latestStart = 1000 * ticksPerMicrosecond;

    /** Episode duration range, drawn uniformly. */
    Tick minDuration = 10 * ticksPerMicrosecond;
    Tick maxDuration = 200 * ticksPerMicrosecond;

    /** Probability an event is a plane (vs one link). */
    double planeProbability = 0.25;

    /** GPUs per generated plane (clamped to the system size). */
    int planeSize = 2;

    /** Degrade severity range, drawn uniformly. */
    double minSeverity = 0.3;
    double maxSeverity = 0.9;

    /** Probability a (non-plane) event is LinkDown vs LinkDegrade. */
    double downProbability = 0.5;
};

/**
 * Deterministically generate a valid FaultPlan for @p num_gpus GPUs.
 *
 * Same (seed, num_gpus, options) always yields an identical plan, so
 * randomized fault campaigns replay tick-for-tick. The plan's own
 * seed is set to @p seed too, fixing probabilistic drop decisions.
 */
FaultPlan randomFaultPlan(std::uint64_t seed, int num_gpus,
                          const RandomFaultOptions &options = {});

} // namespace proact

#endif // PROACT_FAULTS_FAULT_PLAN_HH
