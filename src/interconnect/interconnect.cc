#include "interconnect/interconnect.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <numeric>

namespace proact {

Interconnect::Interconnect(EventQueue &eq, const FabricSpec &spec,
                           int num_gpus)
    : _eq(eq), _spec(spec), _packet(packetModelFor(spec.protocol)),
      _interPacket(packetModelFor(spec.multiNode()
                                      ? spec.interProtocol
                                      : spec.protocol)),
      _numGpus(num_gpus), _storeTransactions(num_gpus, 0),
      _deadDevice(static_cast<std::size_t>(num_gpus), 0)
{
    spec.validate(num_gpus);

    _egress.reserve(num_gpus);
    _ingress.reserve(num_gpus);
    for (int g = 0; g < num_gpus; ++g) {
        _egress.push_back(std::make_unique<Channel>(
            eq, spec.name + ".gpu" + std::to_string(g) + ".egress",
            spec.egressRate()));
        _ingress.push_back(std::make_unique<Channel>(
            eq, spec.name + ".gpu" + std::to_string(g) + ".ingress",
            spec.ingressRate(), spec.latency));
    }
    if (spec.coreBandwidth > 0.0) {
        _core = std::make_unique<Channel>(eq, spec.name + ".core",
                                          spec.coreBandwidth);
    }

    if (spec.topology == FabricTopology::PairwiseLinks &&
        num_gpus > 1) {
        // Links statically partitioned across peers: each directed
        // pair gets an equal slice of its tier's egress rate —
        // intra-node pairs split the chassis links across local
        // peers, inter-node pairs split the NIC aggregate across
        // remote peers at the network tier's latency.
        _pairs.resize(static_cast<std::size_t>(num_gpus) * num_gpus);
        for (int s = 0; s < num_gpus; ++s) {
            for (int d = 0; d < num_gpus; ++d) {
                if (s == d)
                    continue;
                _pairs[s * num_gpus + d] = std::make_unique<Channel>(
                    eq,
                    spec.name + ".link" + std::to_string(s) + "to"
                        + std::to_string(d),
                    nominalPairRate(s, d), pairLatency(s, d));
            }
        }
    }
}

int
Interconnect::nodeSpan(int gpu) const
{
    if (!_spec.multiNode())
        return _numGpus;
    const int first = _spec.nodeOf(gpu) * _spec.gpusPerNode;
    return std::min(_numGpus, first + _spec.gpusPerNode) - first;
}

double
Interconnect::nominalPairRate(int src, int dst) const
{
    if (!pairwise())
        return _spec.egressRate();
    if (interNodePair(src, dst)) {
        const int remote_peers = _numGpus - nodeSpan(src);
        return _spec.interEgressRate()
            / static_cast<double>(remote_peers);
    }
    const int local_peers = nodeSpan(src) - 1;
    return _spec.egressRate() / static_cast<double>(local_peers);
}

Channel &
Interconnect::pairLink(int src, int dst)
{
    if (!pairwise())
        panicError("Interconnect: pairLink on a SharedPorts fabric");
    if (src < 0 || src >= _numGpus || dst < 0 || dst >= _numGpus ||
        src == dst) {
        panicError("Interconnect: bad pair ", src, " -> ", dst);
    }
    return *_pairs[static_cast<std::size_t>(src) * _numGpus + dst];
}

void
Interconnect::validate(const Request &req) const
{
    if (req.src < 0 || req.src >= _numGpus || req.dst < 0 ||
        req.dst >= _numGpus) {
        fatalError("Interconnect: bad endpoints ", req.src, " -> ",
                   req.dst, " with ", _numGpus, " GPUs");
    }
    if (req.src == req.dst)
        fatalError("Interconnect: src == dst (", req.src,
                   "); local copies bypass the fabric");
    if (req.bytes > 0 && req.writeGranularity == 0)
        fatalError("Interconnect: zero write granularity");
}

double
Interconnect::effectiveEgressRate(std::uint32_t threads) const
{
    const double peak = _spec.egressRate();
    if (threads == 0)
        return peak;
    return std::min(peak, threads * _spec.perThreadStoreBandwidth());
}

Tick
Interconnect::transfer(const Request &req)
{
    validate(req);

    if (_deadDevice[static_cast<std::size_t>(req.src)] ||
        _deadDevice[static_cast<std::size_t>(req.dst)]) {
        // Dead endpoint: refuse at submission, reliable or not. No
        // wire occupancy, no completion — the observers get a dropped
        // zero-wire sample so the health layer counts the loss, and
        // the returned tick is "now" (there is no delivery horizon to
        // wait out on a transfer that never entered the fabric).
        ++_refusedDeliveries;
        const Tick now = _eq.curTick();
        DeliverySample sample;
        sample.enqueued = now;
        sample.start = now;
        sample.delivered = now;
        sample.dropped = true;
        notifyObservers(req, sample);
        if (_trace) {
            _trace->record(now, now, "fault",
                           "gpu" + std::to_string(req.src) + "->gpu"
                               + std::to_string(req.dst)
                               + " refused (device down)");
        }
        return now;
    }

    if (req.bytes == 0) {
        const Tick when = std::max(_eq.curTick(), req.notBefore);
        if (req.onComplete)
            _eq.schedule(when, req.onComplete);
        return when;
    }

    const PacketModel &packet = pairwise()
        ? pairPacketModel(req.src, req.dst)
        : _packet;
    const std::uint64_t wire =
        packet.wireBytes(req.bytes, req.writeGranularity);

    // Thread-limited issue keeps the link partially idle; we model it
    // by inflating egress occupancy so achieved bandwidth matches
    // threads x per-thread store rate (see DESIGN.md).
    const double eff_rate = effectiveEgressRate(req.threads);
    const double inflate = _spec.egressRate() / eff_rate;
    const auto wire_eq =
        static_cast<std::uint64_t>(static_cast<double>(wire) * inflate);

    const std::uint32_t gran =
        std::min(req.writeGranularity, packet.maxPayloadBytes);
    const std::uint64_t packets =
        (req.bytes + gran - 1) / gran;
    _storeTransactions[req.src] += packets;

    const Tick nb = std::max(_eq.curTick(), req.notBefore);
    const std::uint64_t tag = _rebooking ? acquireFlight() : 0;
    Hops hops;

    DeliverySample sample;
    sample.enqueued = nb;
    sample.wireBytes = wire;

    if (pairwise()) {
        // Direct-attached link: single hop at the pair's rate; the
        // thread cap still applies against what the threads could
        // sustain overall.
        Channel &link = pairLink(req.src, req.dst);
        const double pair_eff =
            std::min(link.rate(), effectiveEgressRate(req.threads));
        const auto pair_wire_eq = static_cast<std::uint64_t>(
            static_cast<double>(wire) * link.rate() / pair_eff);
        const Channel::Timing t =
            link.submitTimed(nb, pair_wire_eq, req.bytes, tag);

        sample.start = t.start;
        sample.delivered = t.delivered;
        sample.queueDelay = t.queueDelay();
        sample.serviceTime = t.serviceTicks() + link.latency();

        if (_rebooking)
            hops.push(Hop{&link, link.latency(), t.serviceEnd});
        return finishDelivery(req, sample, hops, tag);
    }

    // Cut-through booking: each hop starts once the previous hop
    // begins streaming; delivery waits for the slowest hop to drain
    // plus the fabric latency (carried by the ingress channel).
    const Channel::Timing e =
        _egress[req.src]->submitTimed(nb, wire_eq, req.bytes, tag);
    if (_rebooking)
        hops.push(Hop{_egress[req.src].get(), _spec.latency, e.serviceEnd});

    Tick c_end = e.start;
    Tick c_dur = 0;
    Tick i_nb = e.start;
    if (_core) {
        const Channel::Timing c =
            _core->submitTimed(e.start, wire, req.bytes, tag);
        i_nb = c.start;
        c_end = c.serviceEnd;
        c_dur = c.serviceTicks();
        if (_rebooking)
            hops.push(Hop{_core.get(), _spec.latency, c.serviceEnd});
    }
    const Channel::Timing i =
        _ingress[req.dst]->submitTimed(i_nb, wire, req.bytes, tag);
    if (_rebooking) {
        hops.push(Hop{_ingress[req.dst].get(),
                      _ingress[req.dst]->latency(), i.serviceEnd});
    }

    const Tick delivered =
        std::max({e.serviceEnd + _spec.latency,
                  c_end + _spec.latency, i.delivered});

    // Attribution: what this delivery would have taken on an
    // otherwise-idle fabric at the hops' *current* (fault-scaled)
    // rates is wire service time; everything beyond that is queueing
    // behind other flows at the shared ports. Wire slowdowns lengthen
    // the hop service times and land in the first component;
    // contention only moves hop start ticks and lands in the second.
    sample.start = e.start;
    sample.delivered = delivered;
    sample.serviceTime =
        std::max({e.serviceTicks(), c_dur, i.serviceTicks()})
        + _spec.latency;
    sample.queueDelay = delivered - nb - sample.serviceTime;
    return finishDelivery(req, sample, hops, tag);
}

Tick
Interconnect::finishDelivery(const Request &req, DeliverySample sample,
                             const Hops &hops, std::uint64_t tag)
{
    Tick delivered = sample.delivered;
    bool dropped = false;
    Tick extra_delay = 0;
    if (_faultFilter && !req.reliable) {
        const FaultVerdict verdict = _faultFilter(req, delivered);
        dropped = verdict.drop;
        extra_delay = verdict.extraDelay;
        delivered += extra_delay;
        // A delay spike is a wire symptom (retransmit, replay, lane
        // retrain), not queueing behind a neighbor — charge it to the
        // service component the monitor classifies DEGRADED from.
        sample.delivered = delivered;
        sample.serviceTime += extra_delay;
    }
    sample.dropped = dropped;
    const Tick start = sample.start;
    const auto slot = static_cast<std::uint32_t>(tag);
    const bool tracked =
        tag != 0 && !dropped && (req.onComplete || req.onRebook);

    if (dropped) {
        ++_droppedDeliveries;
    } else if (tracked) {
        // Track the flight so a mid-run rate change can move its
        // completion.
        Flight &flight = _flights[slot];
        flight.src = req.src;
        flight.dst = req.dst;
        flight.hops = hops;
        flight.extraDelay = extra_delay;
        flight.delivered = delivered;
        flight.onComplete = req.onComplete;
        flight.onRebook = req.onRebook;
        flight.event = req.onComplete
            ? _eq.schedule(delivered, [this, tag] { completeFlight(tag); })
            : 0;
        flight.live = true;
        ++_liveFlights;
    } else if (req.onComplete) {
        _eq.schedule(delivered, req.onComplete);
    }
    // Dropped and untracked deliveries free their slot at once: their
    // wire occupancy still re-times, but their tag finds no flight.
    if (tag != 0 && !tracked)
        releaseFlight(slot);

    notifyObservers(req, sample);

    if (_trace) {
        _trace->record(start, delivered,
                       dropped ? "fault" : "transfer",
                       "gpu" + std::to_string(req.src) + "->gpu"
                           + std::to_string(req.dst)
                           + (dropped ? " dropped" : ""));
    }
    // A dropped transfer still occupied the wire: the returned tick
    // is when the delivery would have completed, which the retry
    // layer uses as its acknowledgement horizon.
    return delivered;
}

void
Interconnect::notifyObservers(const Request &req,
                              const DeliverySample &sample)
{
    // An observer may deregister (but not register) from inside its
    // callback: removal mid-dispatch only nulls the slot, so the
    // index walk stays valid; nulled slots compact afterwards.
    if (_observers.empty())
        return;
    _dispatchingObservers = true;
    for (std::size_t i = 0; i < _observers.size(); ++i) {
        if (_observers[i].observer)
            _observers[i].observer(req, sample);
    }
    _dispatchingObservers = false;
    std::erase_if(_observers, [](const ObserverSlot &slot) {
        return slot.observer == nullptr;
    });
}

void
Interconnect::setDeviceDown(int gpu, bool down)
{
    if (gpu < 0 || gpu >= _numGpus)
        fatalError("Interconnect: setDeviceDown on bad gpu ", gpu);
    _deadDevice[static_cast<std::size_t>(gpu)] = down ? 1 : 0;
}

bool
Interconnect::deviceDown(int gpu) const
{
    if (gpu < 0 || gpu >= _numGpus)
        fatalError("Interconnect: deviceDown on bad gpu ", gpu);
    return _deadDevice[static_cast<std::size_t>(gpu)] != 0;
}

std::size_t
Interconnect::quiesceDevice(int gpu)
{
    if (gpu < 0 || gpu >= _numGpus)
        fatalError("Interconnect: quiesceDevice on bad gpu ", gpu);
    std::size_t aborted = 0;
    for (std::uint32_t slot = 0; slot < _flights.size(); ++slot) {
        const Flight &flight = _flights[slot];
        if (!flight.live || (flight.src != gpu && flight.dst != gpu))
            continue;
        if (flight.event != 0)
            _eq.deschedule(flight.event);
        releaseFlight(slot);
        ++aborted;
    }
    _quiescedFlights += aborted;
    return aborted;
}

Interconnect::ObserverHandle
Interconnect::addDeliveryObserver(DeliveryObserver observer)
{
    if (!observer)
        fatalError("Interconnect: null delivery observer");
    const ObserverHandle handle = _nextObserverHandle++;
    _observers.push_back({handle, std::move(observer)});
    return handle;
}

void
Interconnect::removeDeliveryObserver(ObserverHandle handle)
{
    // While a delivery is being dispatched only the slot is nulled
    // (erasing would shift the slots under the dispatch loop's feet);
    // the loop compacts nulled slots when it finishes.
    for (auto it = _observers.begin(); it != _observers.end(); ++it) {
        if (it->handle == handle) {
            it->observer = nullptr;
            if (!_dispatchingObservers)
                _observers.erase(it);
            return;
        }
    }
}

void
Interconnect::forEachChannel(const std::function<void(Channel &)> &f)
{
    for (auto &ch : _egress)
        f(*ch);
    for (auto &ch : _ingress)
        f(*ch);
    if (_core)
        f(*_core);
    for (auto &ch : _pairs) {
        if (ch)
            f(*ch);
    }
}

void
Interconnect::setRebooking(bool on)
{
    if (on == _rebooking)
        return;
    if (!on)
        fatalError("Interconnect: rebooking cannot be turned off");
    _rebooking = true;
    forEachChannel([this](Channel &ch) {
        Channel *cp = &ch;
        ch.setRebookListener([this, cp](Channel::BookingTag tag, Tick end) {
            onHopRebooked(cp, tag, end);
        });
    });
}

std::uint64_t
Interconnect::acquireFlight()
{
    std::uint32_t slot = _freeFlight;
    if (slot != NoSlot) {
        _freeFlight = _flights[slot].nextFree;
    } else {
        slot = static_cast<std::uint32_t>(_flights.size());
        _flights.emplace_back();
    }
    return (static_cast<std::uint64_t>(_flights[slot].generation) << 32)
        | slot;
}

void
Interconnect::releaseFlight(std::uint32_t slot)
{
    Flight &flight = _flights[slot];
    if (flight.live) {
        flight.live = false;
        --_liveFlights;
    }
    flight.onComplete = nullptr;
    flight.onRebook = nullptr;
    if (++flight.generation == 0)
        flight.generation = 1;
    flight.nextFree = _freeFlight;
    _freeFlight = slot;
}

Interconnect::Flight *
Interconnect::findFlight(std::uint64_t tag)
{
    const auto slot = static_cast<std::uint32_t>(tag);
    if (slot >= _flights.size())
        return nullptr;
    Flight &flight = _flights[slot];
    return flight.live && flight.generation == (tag >> 32) ? &flight
                                                           : nullptr;
}

void
Interconnect::onHopRebooked(Channel *channel, std::uint64_t tag,
                            Tick new_service_end)
{
    Flight *const found = findFlight(tag);
    if (found == nullptr)
        return;
    Flight &flight = *found;

    Tick delivered = 0;
    for (Hop &hop : flight.hops) {
        if (hop.channel == channel)
            hop.serviceEnd = new_service_end;
        delivered = std::max(delivered,
                             hop.serviceEnd + hop.latencyAdd);
    }
    delivered = std::max(delivered + flight.extraDelay,
                         _eq.curTick());
    if (delivered == flight.delivered)
        return;

    flight.delivered = delivered;
    ++_rebookedDeliveries;
    if (flight.event != 0) {
        _eq.deschedule(flight.event);
        flight.event = _eq.schedule(
            delivered, [this, tag] { completeFlight(tag); });
    }
    if (flight.onRebook)
        flight.onRebook(delivered);
}

void
Interconnect::completeFlight(std::uint64_t tag)
{
    Flight *const flight = findFlight(tag);
    if (flight == nullptr)
        return;
    EventQueue::Callback cb = std::move(flight->onComplete);
    releaseFlight(static_cast<std::uint32_t>(tag));
    if (cb)
        cb();
}

std::uint64_t
Interconnect::storeTransactions(int src) const
{
    return _storeTransactions.at(src);
}

std::uint64_t
Interconnect::totalStoreTransactions() const
{
    return std::accumulate(_storeTransactions.begin(),
                           _storeTransactions.end(),
                           std::uint64_t(0));
}

std::uint64_t
Interconnect::totalPayloadBytes() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _ingress)
        total += ch->payloadBytes();
    for (const auto &ch : _pairs) {
        if (ch)
            total += ch->payloadBytes();
    }
    return total;
}

std::uint64_t
Interconnect::totalWireBytes() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _ingress)
        total += ch->wireBytes();
    for (const auto &ch : _pairs) {
        if (ch)
            total += ch->wireBytes();
    }
    return total;
}

void
Interconnect::resetStats()
{
    for (auto &ch : _egress)
        ch->resetStats();
    for (auto &ch : _ingress)
        ch->resetStats();
    if (_core)
        _core->resetStats();
    for (auto &ch : _pairs) {
        if (ch)
            ch->resetStats();
    }
    std::fill(_storeTransactions.begin(), _storeTransactions.end(), 0);
}

} // namespace proact
