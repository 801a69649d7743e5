/**
 * @file
 * Hardware copy-engine model backing cudaMemcpy-style bulk transfers.
 *
 * A DMA copy pays the paper's "several microseconds" of initiation
 * (host return + engine programming, Sec. II-B) and then streams at
 * the protocol's best packet granularity, which is why bulk copies
 * saturate the fabric while exposing their full latency on the
 * critical path.
 */

#ifndef PROACT_GPU_DMA_ENGINE_HH
#define PROACT_GPU_DMA_ENGINE_HH

#include "interconnect/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

#include <cstdint>

namespace proact {

class Gpu;
class Rerouter;

/** Per-GPU DMA engine issuing peer-to-peer bulk copies. */
class DmaEngine
{
  public:
    DmaEngine(EventQueue &eq, Gpu &gpu, Interconnect &fabric);

    /**
     * Route future copies through @p rerouter (nullptr restores
     * direct booking): a copy whose direct link is DOWN detours via a
     * relay GPU, a DEGRADED one splits across direct + relay.
     */
    void setRerouter(Rerouter *rerouter) { _rerouter = rerouter; }

    /**
     * Start a bulk copy of @p bytes from this GPU to @p dst_gpu.
     *
     * The copy may not enter the fabric before initiation completes
     * (spec.dmaInitLatency past @p not_before or now, whichever is
     * later).
     *
     * @return Absolute delivery tick at the destination.
     */
    Tick copyToPeer(int dst_gpu, std::uint64_t bytes,
                    EventQueue::Callback on_complete = nullptr,
                    Tick not_before = 0);

    /** Copies issued so far. */
    std::uint64_t numCopies() const { return _numCopies; }
    std::uint64_t bytesCopied() const { return _bytesCopied; }

  private:
    EventQueue &_eq;
    Gpu &_gpu;
    Interconnect &_fabric;
    Rerouter *_rerouter = nullptr;
    std::uint64_t _numCopies = 0;
    std::uint64_t _bytesCopied = 0;
};

} // namespace proact

#endif // PROACT_GPU_DMA_ENGINE_HH
