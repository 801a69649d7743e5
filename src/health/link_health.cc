#include "health/link_health.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <sstream>

namespace proact {

std::string
LinkHealthMonitor::Transition::describe() const
{
    std::ostringstream oss;
    oss << "t=" << tick << " gpu" << src << "->gpu" << dst << " "
        << linkStateName(from) << " -> " << linkStateName(to);
    return oss.str();
}

LinkHealthMonitor::LinkHealthMonitor(EventQueue &eq,
                                     Interconnect &fabric,
                                     HealthPolicy policy)
    : _eq(eq), _fabric(fabric),
      _transitionHoldoff(policy.transitionHoldoff),
      _deliveries(&_stats, "health.deliveries"),
      _losses(&_stats, "health.losses"),
      _links(static_cast<std::size_t>(fabric.numGpus())
             * fabric.numGpus())
{
    _observerHandle = _fabric.addDeliveryObserver(
        [this](const Interconnect::Request &req,
               const Interconnect::DeliverySample &sample) {
            // The hardware-reliable bulk path is fault-exempt by
            // construction; its deliveries say nothing about the
            // health of the unprotected fine-grained path, and
            // counting them would "recover" a link whose payload
            // only survives via the fallback.
            if (req.reliable)
                return;
            if (sample.dropped) {
                recordLoss(req.src, req.dst);
                return;
            }
            observe(req.src, req.dst, sample.wireBytes, req.threads,
                    sample.queueDelay, sample.serviceTime);
        });
}

LinkHealthMonitor::~LinkHealthMonitor()
{
    _fabric.removeDeliveryObserver(_observerHandle);
}

std::size_t
LinkHealthMonitor::index(int src, int dst) const
{
    const int n = _fabric.numGpus();
    if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst)
        fatalError("LinkHealthMonitor: bad link ", src, " -> ", dst);
    return static_cast<std::size_t>(src) * n + dst;
}

LinkHealthMonitor::Link &
LinkHealthMonitor::link(int src, int dst)
{
    return _links[index(src, dst)];
}

const LinkHealthMonitor::Link &
LinkHealthMonitor::link(int src, int dst) const
{
    return _links[index(src, dst)];
}

double
LinkHealthMonitor::nominalBandwidth(int src, int dst) const
{
    // Tier-aware: an inter-node pair's nominal is the (much lower)
    // network-tier slice — judging it against the intra-node rate
    // would misclassify every healthy cross-node link as DEGRADED.
    if (_fabric.pairwise())
        return _fabric.nominalPairRate(src, dst);
    (void)src;
    (void)dst;
    return _fabric.spec().egressRate();
}

LinkState
LinkHealthMonitor::linkState(int src, int dst) const
{
    return link(src, dst).state;
}

double
LinkHealthMonitor::residualFraction(int src, int dst) const
{
    const Link &l = link(src, dst);
    switch (l.state) {
      case LinkState::Down:
        return 0.0;
      case LinkState::Healthy:
      case LinkState::Congested:
        // A congested link's wire is intact: its nominal rate is all
        // there once the competing flows drain.
        return 1.0;
      case LinkState::Degraded:
        break;
    }
    return std::clamp(l.ewmaFraction, 0.01, 1.0);
}

double
LinkHealthMonitor::ewmaQueueRatio(int src, int dst) const
{
    return link(src, dst).ewmaQueueRatio;
}

void
LinkHealthMonitor::addListener(Listener listener)
{
    _listeners.push_back(std::move(listener));
}

void
LinkHealthMonitor::recordDelivery(int src, int dst,
                                  std::uint64_t bytes,
                                  Tick submitted, Tick delivered)
{
    const PacketModel &packet = _fabric.pairPacketModel(src, dst);
    observe(src, dst,
            packet.wireBytes(bytes, packet.maxPayloadBytes),
            0, 0, delivered > submitted ? delivered - submitted : 1);
}

void
LinkHealthMonitor::recordSample(int src, int dst, std::uint64_t bytes,
                                Tick queue_delay, Tick service_time)
{
    const PacketModel &packet = _fabric.pairPacketModel(src, dst);
    observe(src, dst,
            packet.wireBytes(bytes, packet.maxPayloadBytes),
            0, queue_delay, service_time);
}

void
LinkHealthMonitor::observe(int src, int dst, std::uint64_t wire_bytes,
                           std::uint32_t threads, Tick queue_delay,
                           Tick service_time)
{
    Link &l = link(src, dst);
    _deliveries.inc();
    ++l.deliveries;
    l.lossStreak = 0;
    ++l.deliverStreak;

    // Expected fault-free time of this delivery: wire occupancy at
    // the thread-capped rate plus the fabric latency. The ratio of
    // expected to observed *wire service* time is the link's achieved
    // fraction of nominal for this sample (1.0 = healthy); the ratio
    // of queueing delay to expected time is the sample's congestion
    // signal. Keeping the two apart is the whole point: a backlog of
    // other flows at a shared port stretches queue_delay but leaves
    // service_time — and hence the DEGRADED classification — alone.
    const double rate = std::min(_fabric.effectiveEgressRate(threads),
                                 nominalBandwidth(src, dst));
    const Tick expected = transferTicks(wire_bytes, rate)
        + (_fabric.pairwise() ? _fabric.pairLatency(src, dst)
                              : _fabric.spec().latency);
    const Tick actual = service_time > 0 ? service_time : 1;
    const double fraction =
        std::min(1.0, static_cast<double>(expected)
                          / static_cast<double>(actual));
    const double queue_ratio =
        static_cast<double>(queue_delay)
        / static_cast<double>(std::max<Tick>(expected, 1));

    const double a = ewmaAlpha;
    if (l.deliveries == 1) {
        l.ewmaFraction = fraction;
        l.ewmaQueueRatio = queue_ratio;
    } else {
        l.ewmaFraction = (1.0 - a) * l.ewmaFraction + a * fraction;
        l.ewmaQueueRatio =
            (1.0 - a) * l.ewmaQueueRatio + a * queue_ratio;
    }

    reclassify(src, dst);
}

void
LinkHealthMonitor::recordLoss(int src, int dst)
{
    Link &l = link(src, dst);
    _losses.inc();
    ++l.losses;
    ++l.lossStreak;
    l.deliverStreak = 0;
    reclassify(src, dst);
}

void
LinkHealthMonitor::markDeviceLost(int gpu)
{
    const int n = _fabric.numGpus();
    for (int other = 0; other < n; ++other) {
        if (other == gpu)
            continue;
        setState(gpu, other, LinkState::Down);
        setState(other, gpu, LinkState::Down);
    }
}

void
LinkHealthMonitor::reclassify(int src, int dst)
{
    Link &l = link(src, dst);

    if (l.lossStreak >= downAfterLosses) {
        setState(src, dst, LinkState::Down);
        return;
    }

    // Dampen flapping: after a recent transition the classification
    // freezes (DOWN above excepted) until the holdoff elapses, so a
    // link straddling a threshold can't oscillate at delivery rate.
    if (l.everTransitioned &&
        _eq.curTick() - l.lastTransition < _transitionHoldoff) {
        return;
    }

    const bool enough_samples =
        l.deliveries >= static_cast<std::uint64_t>(minSamples);
    const bool congested =
        l.ewmaQueueRatio > congestedQueueRatio;

    switch (l.state) {
      case LinkState::Down:
        // Leave DOWN only after a streak of clean deliveries; land in
        // DEGRADED, CONGESTED or HEALTHY depending on what the two
        // signals say now.
        if (l.deliverStreak >= recoverAfterDeliveries) {
            setState(src, dst,
                     l.ewmaFraction < healthyBwFraction
                         ? LinkState::Degraded
                         : (congested ? LinkState::Congested
                                      : LinkState::Healthy));
        }
        break;
      case LinkState::Healthy:
        if (enough_samples &&
            l.ewmaFraction < degradedBwFraction) {
            setState(src, dst, LinkState::Degraded);
        } else if (enough_samples && congested) {
            setState(src, dst, LinkState::Congested);
        }
        break;
      case LinkState::Congested:
        // The wire signal always wins: a degraded rate underneath a
        // backlog is still a degraded rate.
        if (enough_samples &&
            l.ewmaFraction < degradedBwFraction) {
            setState(src, dst, LinkState::Degraded);
        } else if (l.ewmaQueueRatio < clearQueueRatio) {
            setState(src, dst, LinkState::Healthy);
        }
        break;
      case LinkState::Degraded:
        // Hysteresis: recovery needs both a clean streak and the
        // bandwidth estimate back above the (higher) exit threshold.
        if (l.deliverStreak >= recoverAfterDeliveries &&
            l.ewmaFraction > healthyBwFraction) {
            setState(src, dst,
                     congested ? LinkState::Congested
                               : LinkState::Healthy);
        }
        break;
    }
}

void
LinkHealthMonitor::setState(int src, int dst, LinkState next)
{
    Link &l = link(src, dst);
    if (l.state == next)
        return;
    const LinkState prev = l.state;
    l.state = next;
    l.lastTransition = _eq.curTick();
    l.everTransitioned = true;

    _stats.inc("health.transitions");
    if (isWireTransition(prev, next))
        _stats.inc("health.wire_transitions");
    switch (next) {
      case LinkState::Down:
        _stats.inc("health.to_down");
        break;
      case LinkState::Degraded:
        _stats.inc("health.to_degraded");
        break;
      case LinkState::Congested:
        _stats.inc("health.to_congested");
        break;
      case LinkState::Healthy:
        _stats.inc("health.to_healthy");
        break;
    }
    _transitions.push_back(
        Transition{_eq.curTick(), src, dst, prev, next});

    if (next == LinkState::Down) {
        l.probeFailures = 0;
        scheduleProbe(src, dst);
    }

    for (const Listener &listener : _listeners)
        listener(src, dst, prev, next);
}

void
LinkHealthMonitor::scheduleProbe(int src, int dst)
{
    Link &l = link(src, dst);
    if (l.probeScheduled || l.probeFailures >= maxProbeFailures) {
        return;
    }
    // No probe can revive a link whose endpoint device is dead, and
    // probing 2(N-1) dead links would pin the event queue for the
    // whole probe budget after a device loss.
    if (_fabric.deviceDown(src) || _fabric.deviceDown(dst))
        return;
    l.probeScheduled = true;
    _eq.scheduleIn(probeInterval,
                   [this, src, dst] { sendProbe(src, dst); });
}

void
LinkHealthMonitor::sendProbe(int src, int dst)
{
    Link &l = link(src, dst);
    l.probeScheduled = false;
    if (l.state != LinkState::Down)
        return; // Recovered through real traffic; probing is moot.

    _stats.inc("health.probes");
    const std::uint64_t probe = ++_probesSent;
    _probesInFlight.emplace(probe, false);

    Interconnect::Request req;
    req.src = src;
    req.dst = dst;
    req.bytes = probeBytes;
    req.writeGranularity = static_cast<std::uint32_t>(std::min<
        std::uint64_t>(
        probeBytes,
        _fabric.pairPacketModel(src, dst).maxPayloadBytes));
    req.threads = 1;
    req.onComplete = [this, probe] {
        // A delivery rebooked past its check finds no entry.
        const auto it = _probesInFlight.find(probe);
        if (it != _probesInFlight.end())
            it->second = true;
    };
    const Tick predicted = _fabric.transfer(req);

    // The probe's own delivery (or drop) already updated the link via
    // the fabric observer; this check only paces the probe loop.
    _eq.schedule(predicted + 1, [this, src, dst, probe] {
        const auto it = _probesInFlight.find(probe);
        const bool landed = it->second;
        _probesInFlight.erase(it);
        Link &lk = link(src, dst);
        if (landed) {
            lk.probeFailures = 0;
        } else {
            ++lk.probeFailures;
        }
        if (lk.state == LinkState::Down)
            scheduleProbe(src, dst);
    });
}

} // namespace proact
