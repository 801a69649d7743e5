#include "gpu/dma_engine.hh"

#include "gpu/gpu.hh"
#include "interconnect/rerouter.hh"

#include <algorithm>

namespace proact {

DmaEngine::DmaEngine(EventQueue &eq, Gpu &gpu, Interconnect &fabric)
    : _eq(eq), _gpu(gpu), _fabric(fabric)
{
}

Tick
DmaEngine::copyToPeer(int dst_gpu, std::uint64_t bytes,
                      EventQueue::Callback on_complete, Tick not_before)
{
    ++_numCopies;
    _bytesCopied += bytes;

    Interconnect::Request req;
    req.src = _gpu.id();
    req.dst = dst_gpu;
    req.bytes = bytes;
    req.writeGranularity = _fabric.packetModel().maxPayloadBytes;
    req.threads = 0;
    req.onComplete = std::move(on_complete);
    req.notBefore = std::max(_eq.curTick(), not_before)
        + _gpu.spec().dmaInitLatency;
    // Copy engines retry at the hardware level; a DMA delivery is
    // never lost, only slowed by degraded links.
    req.reliable = true;
    if (_rerouter) {
        return _rerouter->send(
            [this](const Interconnect::Request &leg) {
                return _fabric.transfer(leg);
            },
            std::move(req));
    }
    return _fabric.transfer(req);
}

} // namespace proact
