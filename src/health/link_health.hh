/**
 * @file
 * Online per-link health tracking for the fault-adaptive runtime.
 *
 * The LinkHealthMonitor observes every delivery the fabric makes (or
 * drops) and keeps, per directed GPU pair, two separately attributed
 * EWMAs from the fabric's DeliverySample split: the achieved fraction
 * of nominal bandwidth computed from *wire service time only*, and
 * the ratio of time spent queued behind other flows to the expected
 * service time. From those it classifies each link HEALTHY /
 * CONGESTED / DEGRADED / DOWN with hysteresis — a single dropped
 * delivery or one slow transfer never flips the state, and recovery
 * requires a streak of clean deliveries — so transient spikes don't
 * make routing flap. DEGRADED and DOWN come from the wire signal
 * alone; a port backlog caused by *other* flows surfaces as
 * CONGESTED, which routing treats as spread-don't-detour and which
 * never invalidates route plans.
 *
 * A link that has been declared DOWN stops carrying payload once the
 * Rerouter detours around it, so the monitor sends small probe
 * transfers on DOWN links to discover recovery; probing gives
 * up after a bounded number of consecutive failures so the event
 * queue always drains. All decisions are pure functions of the
 * observation sequence, which the deterministic event queue fixes, so
 * identical (plan, seed, workload) runs replay tick-for-tick.
 */

#ifndef PROACT_HEALTH_LINK_HEALTH_HH
#define PROACT_HEALTH_LINK_HEALTH_HH

#include "interconnect/interconnect.hh"
#include "interconnect/link_state.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace proact {

/** The one health setting callers vary. */
struct HealthPolicy
{
    /**
     * Minimum time between consecutive state changes of one link.
     * Transitions to DOWN are exempt (a loss streak means payload is
     * dying now). Congestion can masquerade as degradation when
     * detour traffic piles onto a link; a holdoff keeps such links
     * from flapping HEALTHY <-> DEGRADED at delivery rate. Off by
     * default: feed-forward harnesses classify whole observation
     * sequences at one tick, which a holdoff would freeze.
     */
    Tick transitionHoldoff = 0;
};

/**
 * Observes one fabric and classifies every directed link.
 *
 * Stats (read via stats()):
 *  - health.transitions:  every state change
 *  - health.wire_transitions: state changes involving DEGRADED/DOWN
 *  - health.to_down / to_degraded / to_congested / to_healthy:
 *    per target state
 *  - health.probes:       probe transfers sent
 *  - health.losses / deliveries: raw observation counts
 */
class LinkHealthMonitor : public LinkStateProvider
{
  public:
    /** One recorded state change (for summaries and tests). */
    struct Transition
    {
        Tick tick;
        int src;
        int dst;
        LinkState from;
        LinkState to;

        std::string describe() const;
    };

    using Listener =
        std::function<void(int src, int dst, LinkState from,
                           LinkState to)>;

    /** @{ @name Classifier thresholds */
    /** EWMA weight of the newest latency / bandwidth sample. */
    static constexpr double ewmaAlpha = 0.25;

    /** Consecutive losses before a link is declared DOWN. */
    static constexpr int downAfterLosses = 3;

    /** Consecutive clean deliveries before a state may improve. */
    static constexpr int recoverAfterDeliveries = 4;

    /**
     * Enter DEGRADED when EWMA bandwidth falls below this fraction of
     * nominal; leave it only above healthyBwFraction (hysteresis gap).
     */
    static constexpr double degradedBwFraction = 0.55;
    static constexpr double healthyBwFraction = 0.8;

    /** Deliveries needed before bandwidth classification kicks in. */
    static constexpr int minSamples = 3;

    /**
     * Enter CONGESTED when the EWMA of per-delivery queueing delay
     * exceeds this multiple of the expected service time (i.e. the
     * average delivery waits longer behind other flows than its own
     * wire time, several times over); leave CONGESTED only once the
     * EWMA falls below clearQueueRatio (hysteresis gap). Queueing
     * never feeds the DEGRADED/DOWN classification.
     */
    static constexpr double congestedQueueRatio = 2.0;
    static constexpr double clearQueueRatio = 0.75;

    /**
     * Probe period for DOWN links. Probes are tiny non-reliable
     * transfers whose only job is to detect that a link started
     * delivering again.
     */
    static constexpr Tick probeInterval = 20 * ticksPerMicrosecond;

    /** Probe payload on the wire. */
    static constexpr std::uint64_t probeBytes = 64;

    /**
     * Consecutive failed probes before the monitor gives up on a DOWN
     * link (bounds event-queue lifetime; the link then stays DOWN).
     */
    static constexpr int maxProbeFailures = 16;
    /** @} */

    static_assert(downAfterLosses >= 1 && recoverAfterDeliveries >= 1,
                  "streak thresholds must be positive");
    static_assert(degradedBwFraction < healthyBwFraction,
                  "bandwidth hysteresis needs a gap");
    static_assert(clearQueueRatio < congestedQueueRatio,
                  "queueing hysteresis needs a gap");

    /**
     * Create the monitor and register itself on the fabric's delivery
     * observer list (other observers — per-tenant tracers, tests —
     * coexist untouched). The fabric must outlive the monitor.
     */
    LinkHealthMonitor(EventQueue &eq, Interconnect &fabric,
                      HealthPolicy policy = {});

    ~LinkHealthMonitor() override;

    LinkHealthMonitor(const LinkHealthMonitor &) = delete;
    LinkHealthMonitor &operator=(const LinkHealthMonitor &) = delete;

    /** @{ @name LinkStateProvider */
    LinkState linkState(int src, int dst) const override;
    double residualFraction(int src, int dst) const override;
    /** @} */

    /**
     * Feed one observed delivery. The whole submitted -> delivered
     * span is attributed to wire service (zero queueing) — the entry
     * point for harnesses that don't track the split; the fabric hook
     * feeds the attributed DeliverySample instead.
     */
    void recordDelivery(int src, int dst, std::uint64_t bytes,
                        Tick submitted, Tick delivered);

    /**
     * Feed one observed delivery with an explicit queueing/service
     * attribution (what the fabric hook reports): @p queue_delay
     * ticks spent behind other flows, @p service_time ticks of wire
     * time for @p bytes of payload.
     */
    void recordSample(int src, int dst, std::uint64_t bytes,
                      Tick queue_delay, Tick service_time);

    /** Feed one observed loss. */
    void recordLoss(int src, int dst);

    /**
     * Force every link touching @p gpu DOWN at once — the link-level
     * shadow of a whole-device loss. Listeners fire per link, so the
     * rerouter's plan cache drops every plan through the dead device;
     * probing is suppressed (no probe can revive a link whose
     * endpoint is gone, and probing 2(N-1) dead links would pin the
     * event queue for the probe budget).
     */
    void markDeviceLost(int gpu);

    /** EWMA of queueing delay over expected service time (0 = quiet). */
    double ewmaQueueRatio(int src, int dst) const;

    /** Register a state-change listener (called after the change). */
    void addListener(Listener listener);

    /** Every state change so far, in tick order. */
    const std::vector<Transition> &transitions() const
    {
        return _transitions;
    }

    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

  private:
    struct Link
    {
        LinkState state = LinkState::Healthy;

        /**
         * EWMA of the achieved fraction of nominal bandwidth, from
         * per-delivery expected-vs-wire-service time ratios (1.0 =
         * nominal). Queueing behind other flows is excluded: only the
         * wire signal classifies DEGRADED.
         */
        double ewmaFraction = 1.0;

        /**
         * EWMA of per-delivery queueing delay over expected service
         * time. High values mean the port is backed up with *other*
         * flows' traffic: a congestion signal, not a wire fault.
         */
        double ewmaQueueRatio = 0.0;

        int lossStreak = 0;
        int deliverStreak = 0;
        std::uint64_t deliveries = 0;
        std::uint64_t losses = 0;
        bool probeScheduled = false;
        int probeFailures = 0;

        /** Holdoff bookkeeping (see HealthPolicy::transitionHoldoff). */
        Tick lastTransition = 0;
        bool everTransitioned = false;
    };

    EventQueue &_eq;
    Interconnect &_fabric;
    Interconnect::ObserverHandle _observerHandle = 0;
    Tick _transitionHoldoff;
    StatSet _stats;
    /** @{ Per-observation statistics (see the class comment). */
    StatSet::Counter _deliveries;
    StatSet::Counter _losses;
    /** @} */
    std::vector<Link> _links;
    std::vector<Listener> _listeners;
    std::vector<Transition> _transitions;

    /**
     * Probe number -> landed, for probes awaiting their pacing check.
     * A probe's delivery marks its entry; the check reads and drops
     * it.
     */
    std::map<std::uint64_t, bool> _probesInFlight;
    std::uint64_t _probesSent = 0;

    Link &link(int src, int dst);
    const Link &link(int src, int dst) const;
    std::size_t index(int src, int dst) const;

    /** Nominal single-pair bandwidth the observations compare against. */
    double nominalBandwidth(int src, int dst) const;

    /**
     * Fold one delivery into the link's EWMAs: the achieved fraction
     * is the ratio of the expected fault-free time (wire bytes at the
     * thread-capped rate, plus fabric latency) to the observed wire
     * service time; the queue ratio is the observed queueing delay
     * over that same expected time.
     */
    void observe(int src, int dst, std::uint64_t wire_bytes,
                 std::uint32_t threads, Tick queue_delay,
                 Tick service_time);

    void setState(int src, int dst, LinkState next);
    void reclassify(int src, int dst);
    void scheduleProbe(int src, int dst);
    void sendProbe(int src, int dst);
};

} // namespace proact

#endif // PROACT_HEALTH_LINK_HEALTH_HH
