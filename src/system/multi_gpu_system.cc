#include "system/multi_gpu_system.hh"

#include "sim/logging.hh"

namespace proact {

MultiGpuSystem::MultiGpuSystem(const PlatformSpec &platform)
    : _platform(platform), _host(_eq)
{
    if (platform.numGpus < 1)
        fatalError("MultiGpuSystem: need at least one GPU");

    _fabric = std::make_unique<Interconnect>(_eq, platform.fabric,
                                             platform.numGpus);

    _gpus.reserve(platform.numGpus);
    _dmas.reserve(platform.numGpus);
    for (int g = 0; g < platform.numGpus; ++g) {
        _gpus.push_back(std::make_unique<Gpu>(_eq, platform.gpu, g));
        _dmas.push_back(
            std::make_unique<DmaEngine>(_eq, *_gpus.back(), *_fabric));
    }
}

void
MultiGpuSystem::drainWhile(const std::function<bool()> &pred)
{
    while (!_eq.empty() && pred())
        _eq.runNext();
}

void
MultiGpuSystem::setFunctional(bool functional)
{
    for (auto &g : _gpus)
        g->setFunctional(functional);
}

FaultInjector &
MultiGpuSystem::installFaults(FaultPlan plan)
{
    if (_faults)
        fatalError("MultiGpuSystem: faults already installed");
    _faults = std::make_unique<FaultInjector>(_eq, *_fabric,
                                              std::move(plan));
    for (int g = 0; g < numGpus(); ++g)
        _faults->addDmaEngine(g, *_dmas[g]);
    _faults->setTrace(_trace);
    _faults->arm();
    wireDeviceWatchdog();
    return *_faults;
}

void
MultiGpuSystem::wireDeviceWatchdog()
{
    if (!_faults || !_deviceHealth)
        return;
    // The watchdog discovers a death by sampling, but its heartbeat
    // is only armed while the run is live; the injector's episode
    // boundary re-arms it directly so a GpuDown window that opens in
    // a quiet stretch is still discovered within the miss budget.
    DeviceHealthMonitor *watchdog = _deviceHealth.get();
    _faults->addDeviceDownListener(
        [watchdog](int, Tick) { watchdog->poke(); });
    _faults->addDeviceUpListener([watchdog](int) {
        watchdog->poke();
    });
}

DeviceHealthMonitor &
MultiGpuSystem::enableDeviceHealth()
{
    if (!_deviceHealth) {
        _deviceHealth =
            std::make_unique<DeviceHealthMonitor>(_eq, *_fabric);
        // A LOST declaration quiesces the fabric and shadows the loss
        // into the link monitor (forcing every touching link DOWN,
        // which push-invalidates the rerouter's plan cache). External
        // layers add their own listeners on top.
        _deviceHealth->addListener(
            [this](int gpu, DeviceState, DeviceState to) {
                if (to != DeviceState::Lost)
                    return;
                _fabric->quiesceDevice(gpu);
                if (_health)
                    _health->markDeviceLost(gpu);
            });
        wireDeviceWatchdog();
    }
    return *_deviceHealth;
}

LinkHealthMonitor &
MultiGpuSystem::enableHealth(HealthPolicy policy)
{
    if (!_health) {
        _health = std::make_unique<LinkHealthMonitor>(_eq, *_fabric,
                                                      policy);
    }
    return *_health;
}

Rerouter &
MultiGpuSystem::enableReroute()
{
    if (!_rerouter) {
        enableHealth();
        _rerouter = std::make_unique<Rerouter>(_eq, *_fabric, *_health);
        // The monitor's transition fan-out drives the plan cache:
        // wire transitions evict exactly the plans that read the
        // link, so quiet-fabric sends are served on a flag check.
        // Congestion flips pass through without evicting.
        Rerouter *rerouter = _rerouter.get();
        _health->addListener(
            [rerouter](int src, int dst, LinkState from,
                       LinkState to) {
                rerouter->onLinkTransition(src, dst, from, to);
            });
        for (auto &dma : _dmas)
            dma->setRerouter(_rerouter.get());
    }
    return *_rerouter;
}

void
MultiGpuSystem::setTrace(Trace *trace)
{
    _trace = trace;
    for (auto &g : _gpus)
        g->setTrace(trace);
    _fabric->setTrace(trace);
    if (_faults)
        _faults->setTrace(trace);
}

void
MultiGpuSystem::dumpStats(std::ostream &os)
{
    const Tick now = this->now();
    os << "system: " << _platform.name << " @ "
       << secondsFromTicks(now) * 1e3 << " ms simulated\n";

    for (std::size_t g = 0; g < _gpus.size(); ++g) {
        os << "gpu" << g << ":\n";
        _gpus[g]->stats.dump(os, "  ");
        const Channel &hbm = _gpus[g]->hbm();
        os << "  hbm.bytes = " << hbm.payloadBytes() << "\n";
        os << "  hbm.utilization = " << hbm.utilization(now) << "\n";
    }

    Interconnect &fabric = *_fabric;
    os << "fabric: payload " << fabric.totalPayloadBytes()
       << " B, wire " << fabric.totalWireBytes() << " B, "
       << fabric.totalStoreTransactions() << " store transactions\n";
    for (int g = 0; g < _platform.numGpus; ++g) {
        os << "  gpu" << g
           << ".egress.util = " << fabric.egress(g).utilization(now)
           << "  ingress.util = "
           << fabric.ingress(g).utilization(now) << "\n";
    }
    if (fabric.hasCore()) {
        os << "  core.util = " << fabric.core().utilization(now)
           << "\n";
    }
    if (_faults) {
        os << "faults:\n";
        _faults->stats().dump(os, "  ");
        os << "  fabric.dropped_deliveries = "
           << fabric.droppedDeliveries() << "\n";
        if (fabric.rebooking()) {
            os << "  fabric.rebooked_deliveries = "
               << fabric.rebookedDeliveries() << "\n";
        }
    }
    if (_health) {
        os << "health:\n";
        _health->stats().dump(os, "  ");
        for (const auto &t : _health->transitions())
            os << "  " << t.describe() << "\n";
    }
    if (_deviceHealth) {
        os << "device_health:\n";
        _deviceHealth->stats().dump(os, "  ");
        for (const auto &t : _deviceHealth->transitions())
            os << "  " << t.describe() << "\n";
        os << "  fabric.refused_deliveries = "
           << fabric.refusedDeliveries() << "\n";
        os << "  fabric.quiesced_flights = "
           << fabric.quiescedFlights() << "\n";
    }
    if (_rerouter) {
        os << "reroute:\n";
        _rerouter->stats().dump(os, "  ");
    }
}

} // namespace proact
