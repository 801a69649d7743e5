/**
 * @file
 * Top-level container: N GPUs, their DMA engines, the fabric, and the
 * host.
 *
 * A MultiGpuSystem owns the event queue and everything timed against
 * it. Runtimes (PROACT, cudaMemcpy, UM) operate on a system instance;
 * benchmarks build a fresh system per measured configuration so stats
 * never leak across runs.
 */

#ifndef PROACT_SYSTEM_MULTI_GPU_SYSTEM_HH
#define PROACT_SYSTEM_MULTI_GPU_SYSTEM_HH

#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "gpu/dma_engine.hh"
#include "gpu/gpu.hh"
#include "health/device_health.hh"
#include "health/link_health.hh"
#include "interconnect/interconnect.hh"
#include "interconnect/rerouter.hh"
#include "sim/event_queue.hh"
#include "system/platform.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

namespace proact {

/**
 * Host CPU model: API calls (kernel launches, memcpy issues) serialize
 * on the host thread at a fixed cost each, which is part of why bulk
 * DMA paradigms pay per-transfer overhead the paper calls out.
 */
class Host
{
  public:
    explicit Host(EventQueue &eq, Tick op_cost = 2 * ticksPerMicrosecond)
        : _eq(eq), _opCost(op_cost)
    {}

    /**
     * Occupy the host thread for one API call.
     *
     * @param extra_cost Additional serial host time beyond the base
     *        call cost (e.g. DMA-engine programming for
     *        cudaMemcpyPeer, the paper's Sec. II-B initiation
     *        overhead that "can consume several microseconds").
     * @return Tick at which the call has been issued to the device.
     */
    Tick
    issue(Tick extra_cost = 0)
    {
        const Tick start = std::max(_eq.curTick(), _nextFree);
        _nextFree = start + _opCost + extra_cost;
        return _nextFree;
    }

  private:
    EventQueue &_eq;
    Tick _opCost;
    Tick _nextFree = 0;
};

/** A complete simulated multi-GPU machine. */
class MultiGpuSystem
{
  public:
    explicit MultiGpuSystem(const PlatformSpec &platform);

    MultiGpuSystem(const MultiGpuSystem &) = delete;
    MultiGpuSystem &operator=(const MultiGpuSystem &) = delete;

    const PlatformSpec &platform() const { return _platform; }
    int numGpus() const { return _platform.numGpus; }

    EventQueue &eventQueue() { return _eq; }

    /** Current simulated time. */
    Tick now() const { return _eq.curTick(); }

    Gpu &gpu(int i) { return *_gpus.at(i); }
    DmaEngine &dma(int i) { return *_dmas.at(i); }
    Interconnect &fabric() { return *_fabric; }
    Host &host() { return _host; }

    /** Toggle timing-only mode on every GPU. */
    void setFunctional(bool functional);

    /**
     * Arm a fault schedule on this system: the injector installs the
     * fabric fault filter and schedules the plan's episode
     * boundaries. PROACT runs on a faulted system need retry enabled
     * (TransferConfig::retry) or lost deliveries will be reported as
     * missing at phase end.
     *
     * @return The owned injector (for stats/trace access).
     */
    FaultInjector &installFaults(FaultPlan plan);

    /** The armed injector, or nullptr on a fault-free system. */
    FaultInjector *faults() { return _faults.get(); }
    const FaultInjector *faults() const { return _faults.get(); }

    /**
     * Start per-link health monitoring: the monitor observes every
     * fabric delivery/drop and classifies links HEALTHY / DEGRADED /
     * DOWN with hysteresis. Idempotent; the policy of the first call
     * wins.
     */
    LinkHealthMonitor &enableHealth(HealthPolicy policy = {});

    /**
     * Enable topology-aware rerouting (implies enableHealth): agents,
     * collectives and DMA engines detour around DOWN links and split
     * traffic across DEGRADED ones. Idempotent.
     */
    Rerouter &enableReroute();

    /** The health monitor, or nullptr when disabled. */
    LinkHealthMonitor *health() { return _health.get(); }
    const LinkHealthMonitor *health() const { return _health.get(); }

    /**
     * Start the whole-device watchdog (see device_health.hh). When a
     * device is declared LOST the system reacts as one unit: the
     * fabric quiesces every tracked in-flight transfer touching the
     * device, and the link monitor (when enabled) marks every link
     * touching it DOWN — which push-invalidates the rerouter's plan
     * cache. External layers (the harness's abort path, the fleet's
     * recovery policy) observe the same declaration via
     * deviceHealth()->addListener. Idempotent.
     */
    DeviceHealthMonitor &enableDeviceHealth();

    /** The device watchdog, or nullptr when disabled. */
    DeviceHealthMonitor *deviceHealth() { return _deviceHealth.get(); }
    const DeviceHealthMonitor *deviceHealth() const
    {
        return _deviceHealth.get();
    }

    /** GPUs declared LOST (empty when the watchdog is off). */
    std::vector<int>
    lostDevices() const
    {
        return _deviceHealth ? _deviceHealth->lostDevices()
                             : std::vector<int>{};
    }

    bool
    anyDeviceLost() const
    {
        return _deviceHealth && _deviceHealth->anyLost();
    }

    /** The rerouter, or nullptr when disabled. */
    Rerouter *rerouter() { return _rerouter.get(); }
    const Rerouter *rerouter() const { return _rerouter.get(); }

    /** Drain the event queue. */
    void run() { _eq.run(); }

    /**
     * Drain while @p pred holds, re-checking it before every event —
     * the runtime's "drain until accounted" loop.
     */
    void drainWhile(const std::function<bool()> &pred);

    /**
     * Run every event at or before @p limit and leave the clock at
     * exactly @p limit — the timeline-advance primitive behind
     * checkpoint charges.
     */
    void runTimelineTo(Tick limit) { _eq.runUntil(limit); }

    /**
     * Dump per-GPU and fabric statistics (kernel counts, channel
     * utilization, goodput) for post-run inspection.
     */
    void dumpStats(std::ostream &os);

    /**
     * Attach a span tracer to every GPU and the fabric (nullptr
     * detaches). Used by the Fig. 1 timeline harness.
     */
    void setTrace(Trace *trace);

    /**
     * The attached tracer (nullptr when tracing is off). Agents read
     * this at construction, so attach the trace before building
     * runtimes that should record retry/fallback spans.
     */
    Trace *trace() const { return _trace; }

  private:
    PlatformSpec _platform;
    EventQueue _eq;
    std::unique_ptr<Interconnect> _fabric;
    std::vector<std::unique_ptr<Gpu>> _gpus;
    std::vector<std::unique_ptr<DmaEngine>> _dmas;
    std::unique_ptr<FaultInjector> _faults;
    std::unique_ptr<LinkHealthMonitor> _health;
    std::unique_ptr<DeviceHealthMonitor> _deviceHealth;
    std::unique_ptr<Rerouter> _rerouter;
    Host _host;
    Trace *_trace = nullptr;

    /** Injector GpuDown boundaries re-arm the watchdog promptly. */
    void wireDeviceWatchdog();
};

} // namespace proact

#endif // PROACT_SYSTEM_MULTI_GPU_SYSTEM_HH
