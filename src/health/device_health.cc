#include "health/device_health.hh"

#include <sstream>

namespace proact {

std::string
deviceStateName(DeviceState state)
{
    switch (state) {
      case DeviceState::Healthy:
        return "HEALTHY";
      case DeviceState::Suspect:
        return "SUSPECT";
      case DeviceState::Lost:
        return "LOST";
    }
    return "unknown";
}

std::string
DeviceHealthMonitor::Transition::describe() const
{
    std::ostringstream oss;
    oss << "t=" << tick << " gpu" << gpu << " "
        << deviceStateName(from) << " -> " << deviceStateName(to);
    return oss.str();
}

DeviceHealthMonitor::DeviceHealthMonitor(EventQueue &eq,
                                         Interconnect &fabric)
    : _eq(eq), _fabric(fabric),
      _devices(static_cast<std::size_t>(fabric.numGpus()))
{
    // Any fabric activity re-arms the watchdog, so a run that drained
    // the queue between phases (stopping the beat) is sampled again
    // as soon as it starts moving bytes.
    _observerHandle = _fabric.addDeliveryObserver(
        [this](const Interconnect::Request &,
               const Interconnect::DeliverySample &) { poke(); });
    poke();
}

DeviceHealthMonitor::~DeviceHealthMonitor()
{
    _fabric.removeDeliveryObserver(_observerHandle);
}

DeviceState
DeviceHealthMonitor::deviceState(int gpu) const
{
    return _devices.at(static_cast<std::size_t>(gpu)).state;
}

Tick
DeviceHealthMonitor::lostAt(int gpu) const
{
    return _devices.at(static_cast<std::size_t>(gpu)).lostAt;
}

std::vector<int>
DeviceHealthMonitor::lostDevices() const
{
    std::vector<int> lost;
    for (std::size_t g = 0; g < _devices.size(); ++g) {
        if (_devices[g].state == DeviceState::Lost)
            lost.push_back(static_cast<int>(g));
    }
    return lost;
}

void
DeviceHealthMonitor::addListener(Listener listener)
{
    _listeners.push_back(std::move(listener));
}

void
DeviceHealthMonitor::poke()
{
    if (_beatScheduled)
        return;
    _beatScheduled = true;
    _eq.scheduleIn(heartbeatInterval, [this] { beat(); });
}

bool
DeviceHealthMonitor::anySuspect() const
{
    for (const Device &d : _devices) {
        if (d.state == DeviceState::Suspect)
            return true;
    }
    return false;
}

void
DeviceHealthMonitor::beat()
{
    _beatScheduled = false;
    _stats.inc("device_health.beats");
    const int n = _fabric.numGpus();
    for (int g = 0; g < n; ++g)
        sample(g);

    // Re-arm only while the queue holds other work (the run is live)
    // or a verdict is pending. With an empty queue liveness cannot
    // change (fault boundaries are events too), so pending SUSPECT
    // streaks resolve monotonically and the beat always stops.
    if (_eq.pendingEvents() > 0 || anySuspect())
        poke();
}

void
DeviceHealthMonitor::sample(int gpu)
{
    Device &d = _devices[static_cast<std::size_t>(gpu)];
    if (d.state == DeviceState::Lost)
        return; // Terminal for the run.

    if (_fabric.deviceDown(gpu)) {
        _stats.inc("device_health.misses");
        ++d.missStreak;
        d.beatStreak = 0;
        if (d.missStreak >= lostAfterMisses)
            setState(gpu, DeviceState::Lost);
        else if (d.missStreak >= suspectAfterMisses &&
                 d.state == DeviceState::Healthy) {
            setState(gpu, DeviceState::Suspect);
        }
        return;
    }

    ++d.beatStreak;
    d.missStreak = 0;
    if (d.state == DeviceState::Suspect &&
        d.beatStreak >= recoverAfterBeats) {
        setState(gpu, DeviceState::Healthy);
    }
}

void
DeviceHealthMonitor::setState(int gpu, DeviceState next)
{
    Device &d = _devices[static_cast<std::size_t>(gpu)];
    if (d.state == next)
        return;
    const DeviceState prev = d.state;
    d.state = next;

    _stats.inc("device_health.transitions");
    switch (next) {
      case DeviceState::Suspect:
        _stats.inc("device_health.to_suspect");
        break;
      case DeviceState::Lost:
        _stats.inc("device_health.to_lost");
        ++_numLost;
        d.lostAt = _eq.curTick();
        break;
      case DeviceState::Healthy:
        _stats.inc("device_health.to_healthy");
        break;
    }
    _transitions.push_back(
        Transition{_eq.curTick(), gpu, prev, next});

    for (const Listener &listener : _listeners)
        listener(gpu, prev, next);
}

} // namespace proact
