/**
 * @file
 * Link-health classification shared between the fabric layer and the
 * health subsystem.
 *
 * The LinkHealthMonitor (src/health) classifies every directed GPU
 * pair from delivery observations; the Rerouter (this directory)
 * consumes that classification to steer traffic. Keeping the
 * classification behind this small interface lets the interconnect
 * library stay independent of the monitor's implementation.
 */

#ifndef PROACT_INTERCONNECT_LINK_STATE_HH
#define PROACT_INTERCONNECT_LINK_STATE_HH

#include <string>

namespace proact {

/** Health classification of one directed link. */
enum class LinkState
{
    /** Delivering at (close to) nominal bandwidth. */
    Healthy,

    /**
     * The wire is fine, but deliveries queue behind other flows at a
     * shared port. Transient by nature: the backlog drains when the
     * competing flows do. Routing spreads load where it has a choice
     * but never detours — a detour would add wire time on two more
     * ports to dodge a queue that is already moving.
     */
    Congested,

    /** Delivering, but at a fraction of nominal bandwidth. */
    Degraded,

    /** Consecutive losses; assume nothing gets through. */
    Down,
};

inline std::string
linkStateName(LinkState state)
{
    switch (state) {
      case LinkState::Healthy:
        return "healthy";
      case LinkState::Congested:
        return "congested";
      case LinkState::Degraded:
        return "degraded";
      case LinkState::Down:
        return "down";
    }
    return "unknown";
}

/**
 * Whether @p state indicates a genuine wire problem (degraded rate or
 * loss) as opposed to queueing behind other flows.
 */
inline bool
isWireFaultState(LinkState state)
{
    return state == LinkState::Degraded || state == LinkState::Down;
}

/**
 * Whether a state transition involves the wire-slowdown signal on
 * either side. Healthy <-> Congested flips are congestion-only: plan
 * caches stay valid across them.
 */
inline bool
isWireTransition(LinkState from, LinkState to)
{
    return from != to &&
           (isWireFaultState(from) || isWireFaultState(to));
}

/** Read-only view of per-link health used for routing decisions. */
class LinkStateProvider
{
  public:
    virtual ~LinkStateProvider() = default;

    /** Current classification of the directed link src -> dst. */
    virtual LinkState linkState(int src, int dst) const = 0;

    /**
     * Estimated usable fraction of the link's nominal bandwidth:
     * 1.0 for a healthy link, the EWMA-observed fraction for a
     * degraded one, 0.0 when down.
     */
    virtual double residualFraction(int src, int dst) const = 0;
};

} // namespace proact

#endif // PROACT_INTERCONNECT_LINK_STATE_HH
