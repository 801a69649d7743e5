/**
 * @file
 * Whole-device heartbeat/watchdog health tracking.
 *
 * Link health (link_health.hh) classifies individual wires; a lost
 * *device* is a different event: every link touching it dies at once,
 * its DMA engine stops, and any job running on it must be recovered,
 * not retried. The DeviceHealthMonitor samples each GPU's liveness on
 * a periodic heartbeat and declares devices LOST with hysteresis — a
 * single missed beat only makes a device SUSPECT; it takes a streak
 * of misses to declare LOST, and a SUSPECT device that starts
 * answering again recovers after a clean-beat streak. LOST is
 * terminal for the run: the declaration is the signal on which the
 * owning system quiesces in-flight traffic and the fleet layer
 * quarantines the device and re-admits the job from its checkpoint.
 *
 * The watchdog is a self-rescheduling event, which on a queue that
 * drains to empty (EventQueue::run) would pin the run forever. It
 * therefore only re-arms while the queue holds other work or a
 * verdict is still pending (some device is SUSPECT), and lazily
 * re-arms from fabric activity — so it always terminates, and a
 * death mid-run is still discovered within
 * lostAfterMisses * heartbeatInterval ticks, deterministically.
 */

#ifndef PROACT_HEALTH_DEVICE_HEALTH_HH
#define PROACT_HEALTH_DEVICE_HEALTH_HH

#include "interconnect/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace proact {

/** Whole-device health states. */
enum class DeviceState
{
    Healthy,  ///< Answering heartbeats.
    Suspect,  ///< Missed beats, verdict pending.
    Lost,     ///< Declared dead; terminal for the run.
};

std::string deviceStateName(DeviceState state);

/**
 * Watches every GPU of one fabric and classifies each
 * HEALTHY / SUSPECT / LOST.
 *
 * Stats (read via stats()):
 *  - device_health.beats:       heartbeat rounds run
 *  - device_health.misses:      per-device missed beats
 *  - device_health.transitions: every state change
 *  - device_health.to_suspect / to_lost / to_healthy: per target
 */
class DeviceHealthMonitor
{
  public:
    /** One recorded state change (for summaries and tests). */
    struct Transition
    {
        Tick tick;
        int gpu;
        DeviceState from;
        DeviceState to;

        std::string describe() const;
    };

    using Listener = std::function<void(int gpu, DeviceState from,
                                        DeviceState to)>;

    /** @{ @name Watchdog thresholds */
    /** Liveness sampling period. */
    static constexpr Tick heartbeatInterval = 5 * ticksPerMicrosecond;

    /** Missed beats before a device turns SUSPECT. */
    static constexpr int suspectAfterMisses = 1;

    /** Missed beats before a SUSPECT device is declared LOST. */
    static constexpr int lostAfterMisses = 3;

    /** Clean beats before a SUSPECT device recovers to HEALTHY. */
    static constexpr int recoverAfterBeats = 2;
    /** @} */

    /**
     * Create the monitor and arm the first heartbeat. Liveness is
     * sampled from the fabric's device-down flags; a fabric delivery
     * observer lazily re-arms the watchdog whenever traffic flows.
     * The fabric must outlive the monitor.
     */
    DeviceHealthMonitor(EventQueue &eq, Interconnect &fabric);

    ~DeviceHealthMonitor();

    DeviceHealthMonitor(const DeviceHealthMonitor &) = delete;
    DeviceHealthMonitor &operator=(const DeviceHealthMonitor &) =
        delete;

    DeviceState deviceState(int gpu) const;

    /** Tick at which @p gpu was declared LOST (0 if it wasn't). */
    Tick lostAt(int gpu) const;

    /** GPUs declared LOST so far, ascending. */
    std::vector<int> lostDevices() const;

    bool anyLost() const { return _numLost > 0; }

    /** Register a state-change listener (called after the change). */
    void addListener(Listener listener);

    /** Every state change so far, in tick order. */
    const std::vector<Transition> &transitions() const
    {
        return _transitions;
    }

    /**
     * Re-arm the watchdog if it is not scheduled (idempotent). Called
     * from the fabric observer on traffic, and by harnesses at phase
     * boundaries so a quiet-but-armed run still gets sampled.
     */
    void poke();

    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

  private:
    struct Device
    {
        DeviceState state = DeviceState::Healthy;
        int missStreak = 0;
        int beatStreak = 0;
        Tick lostAt = 0;
    };

    EventQueue &_eq;
    Interconnect &_fabric;
    Interconnect::ObserverHandle _observerHandle = 0;
    StatSet _stats;
    std::vector<Device> _devices;
    std::vector<Listener> _listeners;
    std::vector<Transition> _transitions;
    int _numLost = 0;
    bool _beatScheduled = false;

    void beat();
    void sample(int gpu);
    void setState(int gpu, DeviceState next);
    bool anySuspect() const;
};

} // namespace proact

#endif // PROACT_HEALTH_DEVICE_HEALTH_HH
