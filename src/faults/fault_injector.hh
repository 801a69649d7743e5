/**
 * @file
 * Arms a FaultPlan on a live system.
 *
 * The injector turns the declarative plan into simulator behaviour:
 * link-degradation windows become scheduled rate-scale changes on the
 * fabric's channels, DMA-stall windows become engine stalls, and
 * drop/delay/down episodes become a fault filter consulted by
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
#include <set>
#include <vector>

namespace proact {

class DmaEngine;

/**
 * Applies a FaultPlan to one fabric (and optionally DMA engines).
 *
 * Stats (read via stats()):
 *  - faults.injected:        every applied fault action
 *  - faults.dropped:         deliveries lost (drop + down episodes)
 *  - faults.delayed:         deliveries that took a delay spike
 *  - faults.degrade_windows: degradation windows that began
 *  - faults.stall_windows:   DMA-stall windows that began
 *  - faults.device_down:     GpuDown windows that began
 *  - faults.correlated_groups: correlated groups that began (counted
 *    once per group, not per member episode)
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

    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Register a DMA engine as a DmaStall target (its GPU's id). */
    void addDmaEngine(int gpu_id, DmaEngine &dma);

    /**
     * Install the fault filter and schedule every episode boundary.
     * Must be called before the run; calling twice is an error.
     */
    void arm();

    /** Remove the fault filter (future transfers are fault-free). */
    void disarm();

    bool armed() const { return _armed; }

    const FaultPlan &plan() const { return _plan; }

    /** Injector statistics. */
    const StatSet &stats() const { return _stats; }

    /** Attach a span tracer for fault/episode spans. */
    void setTrace(Trace *trace) { _trace = trace; }

    /**
     * @{ @name Device-loss notification
     *
     * GpuDown episodes kill the device in the fabric directly (every
     * transfer touching it is refused, its DMA stalls); listeners let
     * the owning system layer react — watchdog discovery, quiesce,
     * placement — without the injector knowing about it.
     */
    using DeviceDownListener = std::function<void(int gpu, Tick until)>;
    using DeviceUpListener = std::function<void(int gpu)>;
    void addDeviceDownListener(DeviceDownListener listener);
    void addDeviceUpListener(DeviceUpListener listener);
    /** @} */

  private:
    EventQueue &_eq;
    Interconnect &_fabric;
    FaultPlan _plan;
    Rng _rng;
    StatSet _stats;
    Trace *_trace = nullptr;
    std::vector<std::pair<int, DmaEngine *>> _dmas;
    std::vector<DeviceDownListener> _deviceDownListeners;
    std::vector<DeviceUpListener> _deviceUpListeners;
    std::set<int> _begunGroups;
    bool _armed = false;

    /**
     * Per-directed-link index of the episodes the fault filter acts
     * on (LinkDown, DeliveryDrop, DeliveryDelay), built by arm() in
     * CSR form: link src * n + dst owns
     * _linkEpisodes[_linkOffsets[link], _linkOffsets[link + 1]),
     * plan indices in plan order, so drop draws happen in the order
     * a scan of the whole plan would make them.
     */
    std::vector<std::uint32_t> _linkOffsets;
    std::vector<std::uint32_t> _linkEpisodes;

    /** Build _linkOffsets/_linkEpisodes from the plan. */
    void indexLinkEpisodes();

    Interconnect::FaultVerdict onTransfer(
        const Interconnect::Request &req, Tick delivered);

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
