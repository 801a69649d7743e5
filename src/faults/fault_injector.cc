#include "faults/fault_injector.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <unordered_map>

namespace proact {

/**
 * Boundary events (rate changes, device loss) run before any
 * same-tick transfer submission sees the new state.
 */
constexpr int faultEventPriority = -100;

FaultInjector::FaultInjector(EventQueue &eq, Interconnect &fabric,
                             FaultPlan plan)
    : _eq(eq), _fabric(fabric), _plan(std::move(plan)),
      _rng(_plan.seed)
{
}

FaultInjector::~FaultInjector()
{
    if (_armed)
        _fabric.setFaultFilter(nullptr);
}

template <typename Fn>
void
FaultInjector::forEachTargetChannel(const FaultEpisode &ep, Fn &&fn)
{
    const int n = _fabric.numGpus();
    if (_fabric.pairwise()) {
        for (int s = 0; s < n; ++s) {
            for (int d = 0; d < n; ++d) {
                if (s != d && ep.matchesLink(s, d))
                    fn(_fabric.pairLink(s, d));
            }
        }
        return;
    }
    // Shared-port fabrics have no per-pair channel: a directed-link
    // episode degrades the source's egress and the destination's
    // ingress; wildcards widen to every port (and the core).
    for (int g = 0; g < n; ++g) {
        if (ep.src < 0 || ep.src == g)
            fn(_fabric.egress(g));
        if (ep.dst < 0 || ep.dst == g)
            fn(_fabric.ingress(g));
    }
    if (ep.src < 0 && ep.dst < 0 && _fabric.hasCore())
        fn(_fabric.core());
}

void
FaultInjector::applyRateScales()
{
    const Tick now = _eq.curTick();

    // Recompute from scratch so ended windows restore cleanly and
    // overlapping windows compose (most severe wins).
    std::unordered_map<Channel *, double> scales;
    for (const FaultEpisode &ep : _plan.episodes) {
        if (ep.kind != FaultKind::LinkDegrade)
            continue;
        forEachTargetChannel(ep, [&](Channel &ch) {
            auto [it, inserted] = scales.try_emplace(&ch, 1.0);
            if (ep.active(now))
                it->second = std::min(it->second, 1.0 - ep.severity);
        });
    }
    // Under rebooking each rate change re-times live flights, so the
    // order of the changes orders the moved completions: apply them
    // in the fabric's channel order, never in heap-address order.
    _fabric.forEachChannel([&scales](Channel &ch) {
        if (const auto it = scales.find(&ch); it != scales.end())
            ch.setRateScale(it->second);
    });
}

void
FaultInjector::indexLinkEpisodes()
{
    const auto n = static_cast<std::size_t>(_fabric.numGpus());
    _linkOffsets.assign(n * n + 1, 0);
    _linkEpisodes.clear();
    for (std::size_t link = 0; link < n * n; ++link) {
        const int src = static_cast<int>(link / n);
        const int dst = static_cast<int>(link % n);
        for (std::size_t i = 0; i < _plan.episodes.size(); ++i) {
            const FaultEpisode &ep = _plan.episodes[i];
            const bool filtered = ep.kind == FaultKind::LinkDown
                || ep.kind == FaultKind::DeliveryDrop;
            if (filtered && src != dst && ep.matchesLink(src, dst))
                _linkEpisodes.push_back(static_cast<std::uint32_t>(i));
        }
        _linkOffsets[link + 1] =
            static_cast<std::uint32_t>(_linkEpisodes.size());
    }
}

void
FaultInjector::arm()
{
    if (_armed)
        fatalError("FaultInjector: arm() called twice");
    _plan.validate(_fabric.numGpus());
    _armed = true;
    indexLinkEpisodes();

    _fabric.setFaultFilter([this](const Interconnect::Request &req) {
        return onTransfer(req);
    });

    for (const FaultEpisode &ep : _plan.episodes) {
        // Windows already open when the plan is armed take effect
        // right now: work submitted synchronously before the queue
        // runs must not see a pristine fabric.
        if (ep.start <= _eq.curTick()) {
            beginEpisode(ep);
        } else {
            _eq.schedule(ep.start, [this, ep] { beginEpisode(ep); },
                         faultEventPriority);
        }

        // An end boundary only matters for state that must be
        // restored; open-ended windows (end == maxTick) must not pin
        // an event on the queue forever.
        if (ep.kind == FaultKind::LinkDegrade && ep.end != maxTick) {
            _eq.schedule(ep.end, [this] { applyRateScales(); },
                         faultEventPriority);
        }
        if (ep.kind == FaultKind::GpuDown && ep.end != maxTick) {
            _eq.schedule(ep.end,
                         [this, gpu = ep.gpu] { endGpuDown(gpu); },
                         faultEventPriority);
        }
    }
}

void
FaultInjector::beginEpisode(const FaultEpisode &ep)
{
    _stats.inc("faults.injected");
    if (_trace) {
        _trace->record(_eq.curTick(),
                       ep.end == maxTick ? _eq.curTick() : ep.end,
                       "fault", ep.describe());
    }
    switch (ep.kind) {
      case FaultKind::LinkDegrade:
        _stats.inc("faults.degrade_windows");
        applyRateScales();
        break;
      case FaultKind::LinkDown:
        _stats.inc("faults.down_windows");
        break;
      case FaultKind::GpuDown:
        _stats.inc("faults.device_down");
        // The fabric refuses everything touching the device from this
        // tick on (reliable fallbacks and DMA copies included — a
        // dead GPU protects nothing).
        _fabric.setDeviceDown(ep.gpu, true);
        if (_deviceListener)
            _deviceListener();
        break;
      case FaultKind::DeliveryDrop:
        // Applied per delivery by the fault filter.
        break;
    }
}

void
FaultInjector::endGpuDown(int gpu)
{
    // Overlapping windows on one device compose: the device comes
    // back only when no GpuDown episode still covers it.
    const Tick now = _eq.curTick();
    for (const FaultEpisode &ep : _plan.episodes) {
        if (ep.kind == FaultKind::GpuDown && ep.gpu == gpu &&
            ep.active(now)) {
            return;
        }
    }
    _fabric.setDeviceDown(gpu, false);
    if (_deviceListener)
        _deviceListener();
}

bool
FaultInjector::onTransfer(const Interconnect::Request &req)
{
    // Episodes judge a transfer at its submission tick — the
    // cut-through booking model decides the whole path up front, so
    // the wire state "now" is what the transfer experiences.
    // Only the episodes indexed under this directed link can match
    // it; the fabric validated the endpoints before asking. Degrade
    // windows act through arm()'s events, and device death through
    // the fabric's refuse path before the filter runs.
    const Tick now = _eq.curTick();

    const auto link = static_cast<std::size_t>(req.src)
            * static_cast<std::size_t>(_fabric.numGpus())
        + static_cast<std::size_t>(req.dst);
    for (std::uint32_t k = _linkOffsets[link];
         k < _linkOffsets[link + 1]; ++k) {
        const FaultEpisode &ep = _plan.episodes[_linkEpisodes[k]];
        if (!ep.active(now))
            continue;
        // The first episode that drops decides: later ones in plan
        // order draw nothing, as in a scan of the whole plan.
        if (ep.kind == FaultKind::LinkDown
            || _rng.uniform() < ep.severity) {
            _stats.inc("faults.injected");
            _stats.inc("faults.dropped");
            return true;
        }
    }
    return false;
}

} // namespace proact
