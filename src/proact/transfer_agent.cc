#include "proact/transfer_agent.hh"

#include "gpu/gpu.hh"
#include "interconnect/rerouter.hh"
#include "sim/logging.hh"

#include <algorithm>

namespace proact {

Tick
TransferAgent::pushToPeers(std::uint64_t bytes, Tick not_before,
                           std::uint32_t threads)
{
    auto &system = *_ctx.system;
    auto &eq = queue();
    const Tick start = std::max(eq.curTick(), not_before);
    Tick last = start;

    for (int peer = 0; peer < system.numGpus(); ++peer) {
        if (peer == _ctx.gpuId)
            continue;

        auto deliver = [this, bytes] {
            if (_ctx.onDelivered)
                _ctx.onDelivered(bytes);
        };

        if (_ctx.elideTransfers) {
            eq.schedule(start, std::move(deliver));
            last = std::max(last, start);
            continue;
        }

        Interconnect::Request req;
        req.src = _ctx.gpuId;
        req.dst = peer;
        req.bytes = bytes;
        req.writeGranularity =
            system.fabric().packetModel().maxPayloadBytes;
        req.threads = threads;
        req.notBefore = start;
        req.onComplete = std::move(deliver);

        // With the fault-adaptive runtime on, the rerouter may detour
        // this push around a DOWN link or split it across a DEGRADED
        // one; every leg still flows through the retrying sender and
        // onDelivered fires exactly once, at the last leg's landing.
        // The sender also holds the rerouter so a loss streak can
        // re-plan mid-retry (refreshed here because enableReroute()
        // may run after agent construction).
        _sender.setRerouter(system.rerouter());
        if (Rerouter *rr = system.rerouter()) {
            last = std::max(
                last, rr->send(
                          [this](const Interconnect::Request &leg) {
                              return _sender.send(leg);
                          },
                          std::move(req)));
        } else {
            last = std::max(last, _sender.send(std::move(req)));
        }
    }

    _chunksPushed.inc();
    _bytesPushed.inc(static_cast<double>(bytes) * (system.numGpus() - 1));
    return last;
}

PollingAgent::PollingAgent(Context ctx)
    : TransferAgent(std::move(ctx))
{
    auto &system = *_ctx.system;
    auto &gpu = system.gpu(_ctx.gpuId);
    const GpuSpec &spec = gpu.spec();

    // The persistent kernel's poll loops occupy SM lanes (scaling
    // with the transfer thread count) and burn memory bandwidth
    // scanning the readiness bitmap — a cost of the scan loop itself,
    // independent of how many threads will move data (paper Fig. 4:
    // extra threads beyond saturation neither help nor hurt).
    _computeShare = std::min(
        0.5, _ctx.config.transferThreads / spec.maxResidentThreads());
    _memBwShare = spec.pollMemBwShare;

    gpu.reserveCompute(_computeShare);
    gpu.reserveMemBw(_memBwShare);
}

PollingAgent::~PollingAgent()
{
    auto &gpu = _ctx.system->gpu(_ctx.gpuId);
    gpu.releaseCompute(_computeShare);
    gpu.releaseMemBw(_memBwShare);
}

void
PollingAgent::chunkReady(int /*chunk*/, std::uint64_t bytes)
{
    // The producer sets the chunk's bitmap bit; the polling kernel
    // discovers it on its next bitmap scan.
    _pendingBytes.push_back(bytes);
    _bitmapSets.inc();
    schedulePoll();
}

void
PollingAgent::schedulePoll()
{
    if (_pollScheduled)
        return;
    _pollScheduled = true;

    auto &eq = queue();
    const Tick interval =
        _ctx.system->gpu(_ctx.gpuId).spec().pollInterval;
    // Discovery happens at the poll loop's next pass over the bitmap.
    const Tick next = (eq.curTick() / interval + 1) * interval;
    eq.schedule(next, [this] { poll(); });
}

void
PollingAgent::poll()
{
    _pollScheduled = false;
    _polls.inc();
    while (!_pendingBytes.empty()) {
        const std::uint64_t bytes = _pendingBytes.front();
        _pendingBytes.pop_front();
        const Tick start =
            std::max(queue().curTick(), _nextFree) + chunkSetupCost;
        _nextFree = start;
        pushToPeers(bytes, start, _ctx.config.transferThreads);
    }
}

void
CdpAgent::chunkReady(int /*chunk*/, std::uint64_t bytes)
{
    _pendingBytes.push_back(bytes);
    tryLaunch();
}

void
CdpAgent::tryLaunch()
{
    if (_active >= maxConcurrentChildren || _pendingBytes.empty())
        return;

    const std::uint64_t bytes = _pendingBytes.front();
    _pendingBytes.pop_front();
    ++_active;

    auto &eq = queue();
    auto &gpu = _ctx.system->gpu(_ctx.gpuId);
    const GpuSpec &spec = gpu.spec();

    _cdpLaunches.inc();

    // Dynamic launches serialize through the device runtime's launch
    // engine (one every cdpLaunchLatency), and the child kernel
    // occupies its transfer threads' SM share for the duration of
    // the copy.
    const Tick start =
        std::max(eq.curTick(), _launchEngineFree)
        + spec.cdpLaunchLatency;
    _launchEngineFree = start;
    const double share = std::min(
        0.5, _ctx.config.transferThreads / spec.maxResidentThreads());

    eq.schedule(start, [&gpu, share] { gpu.reserveCompute(share); });
    const Tick done =
        pushToPeers(bytes, start, _ctx.config.transferThreads);
    eq.schedule(done, [this, &gpu, share] {
        gpu.releaseCompute(share);
        --_active;
        tryLaunch();
    });
}

void
HardwareAgent::chunkReady(int /*chunk*/, std::uint64_t bytes)
{
    _hwTriggers.inc();
    // Dedicated engine: descriptor prepared in advance, trigger fires
    // without SM or driver involvement.
    pushToPeers(bytes, queue().curTick() + triggerLatency, 0);
}

std::unique_ptr<TransferAgent>
makeAgent(TransferMechanism mechanism, TransferAgent::Context ctx)
{
    switch (mechanism) {
      case TransferMechanism::Polling:
        return std::make_unique<PollingAgent>(std::move(ctx));
      case TransferMechanism::Cdp:
        return std::make_unique<CdpAgent>(std::move(ctx));
      case TransferMechanism::Hardware:
        return std::make_unique<HardwareAgent>(std::move(ctx));
      case TransferMechanism::Inline:
        fatalError("makeAgent: inline transfers have no agent");
    }
    fatalError("makeAgent: unknown mechanism");
}

} // namespace proact
