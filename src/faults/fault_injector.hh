/**
 * @file
 * Arms a FaultPlan on a live system.
 *
 * The injector turns the declarative plan into simulator behaviour:
 * link-degradation windows become scheduled rate-scale changes on the
 * fabric's channels, GPU-down windows mark devices down in the
 * fabric, and drop/down episodes become a fault filter consulted by
 * Interconnect::transfer() for every non-reliable delivery. All
 * probabilistic decisions come from one Rng seeded by the plan, and
 * decisions are made in event order, so identical (plan, workload)
 * pairs replay identically.
 */

#ifndef PROACT_FAULTS_FAULT_INJECTOR_HH
#define PROACT_FAULTS_FAULT_INJECTOR_HH

#include "faults/fault_plan.hh"
#include "interconnect/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace proact {

/**
 * Applies a FaultPlan to one fabric.
 *
 * Stats (read via stats()):
 *  - faults.injected:        every applied fault action
 *  - faults.dropped:         deliveries lost (drop + down episodes)
 *  - faults.degrade_windows: degradation windows that began
 *  - faults.down_windows:    LinkDown windows that began
 *  - faults.device_down:     GpuDown windows that began
 *
 * Trace spans (when attached): category "fault", one span per
 * episode window plus an instant span per dropped delivery (the
 * latter recorded by the fabric itself).
 */
class FaultInjector
{
  public:
    /**
     * @param eq The system's event queue.
     * @param fabric Fabric whose deliveries the plan perturbs.
     * @param plan Schedule to arm; validated against the fabric.
     */
    FaultInjector(EventQueue &eq, Interconnect &fabric, FaultPlan plan);

    /** Removes the fault filter if arm() installed it. */
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Install the fault filter and schedule every episode boundary.
     * Must be called before the run; calling twice is an error.
     */
    void arm();

    /** Injector statistics. */
    const StatSet &stats() const { return _stats; }

    /** Attach a span tracer for fault/episode spans. */
    void setTrace(Trace *trace) { _trace = trace; }

    /**
     * Called after a GpuDown window opens and after a device comes
     * back up. GpuDown episodes kill the device in the fabric directly
     * (every transfer touching it is refused); the listener lets the
     * owning system wake its watchdog without the injector knowing
     * about it.
     */
    void setDeviceListener(std::function<void()> listener)
    {
        _deviceListener = std::move(listener);
    }

  private:
    EventQueue &_eq;
    Interconnect &_fabric;
    FaultPlan _plan;
    Rng _rng;
    StatSet _stats;
    Trace *_trace = nullptr;
    std::function<void()> _deviceListener;
    bool _armed = false;

    /**
     * Per-directed-link index of the episodes the fault filter acts
     * on (LinkDown, DeliveryDrop), built by arm() in
     * CSR form: link src * n + dst owns
     * _linkEpisodes[_linkOffsets[link], _linkOffsets[link + 1]),
     * plan indices in plan order, so drop draws happen in the order
     * a scan of the whole plan would make them.
     */
    std::vector<std::uint32_t> _linkOffsets;
    std::vector<std::uint32_t> _linkEpisodes;

    /** Build _linkOffsets/_linkEpisodes from the plan. */
    void indexLinkEpisodes();

    /** The fault filter: whether @p req's delivery is lost. */
    bool onTransfer(const Interconnect::Request &req);

    /** Apply an episode's start-of-window effects. */
    void beginEpisode(const FaultEpisode &ep);

    /** Recompute rate scales from the episodes active right now. */
    void applyRateScales();

    /** End-of-window handler for transient GpuDown episodes. */
    void endGpuDown(int gpu);

    /** Channels a link-targeted episode maps onto. */
    template <typename Fn>
    void forEachTargetChannel(const FaultEpisode &ep, Fn &&fn);
};

} // namespace proact

#endif // PROACT_FAULTS_FAULT_INJECTOR_HH
