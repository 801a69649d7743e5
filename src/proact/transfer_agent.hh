/**
 * @file
 * Decoupled transfer agents (paper Sec. III-C).
 *
 * An agent receives chunk-ready events from the readiness counters
 * and pushes the chunk from its GPU's staging region to every peer.
 * Three implementations mirror the paper's design space:
 *
 *  - PollingAgent: persistent warp-specialized kernel scanning a
 *    readiness bitmap. No per-chunk initiation cost beyond the poll
 *    period, but its loops permanently occupy SM and memory-bandwidth
 *    resources while resident.
 *  - CdpAgent: a CUDA-Dynamic-Parallelism child kernel launched per
 *    ready chunk. Consumes resources only during transfers, but pays
 *    the (architecture-dependent) dynamic launch latency per chunk.
 *  - HardwareAgent: the paper's proposed hardware support (Sec.
 *    III-D): counters and transfer triggering in dedicated hardware,
 *    zero SM overhead and near-zero initiation.
 */

#ifndef PROACT_PROACT_TRANSFER_AGENT_HH
#define PROACT_PROACT_TRANSFER_AGENT_HH

#include "faults/retry.hh"
#include "proact/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "system/multi_gpu_system.hh"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

namespace proact {

/** Common machinery for the decoupled agents. */
class TransferAgent
{
  public:
    /** Wiring between an agent, its GPU, and the PROACT runtime. */
    struct Context
    {
        MultiGpuSystem *system = nullptr;
        int gpuId = 0;
        TransferConfig config;

        /**
         * Analysis mode (paper Figs. 8/9): keep tracking and
         * initiation costs but skip the stores that move data.
         */
        bool elideTransfers = false;

        /** Fires once per (chunk, peer) delivery. */
        std::function<void(std::uint64_t bytes)> onDelivered;

        /** Shared statistics sink (may be null). */
        StatSet *stats = nullptr;
    };

    explicit TransferAgent(Context ctx)
        : _ctx(std::move(ctx)),
          _sender(_ctx.system->eventQueue(), _ctx.system->fabric(),
                  _ctx.config.retry, _ctx.stats, _ctx.system->trace())
    {
    }

    virtual ~TransferAgent() = default;

    TransferAgent(const TransferAgent &) = delete;
    TransferAgent &operator=(const TransferAgent &) = delete;

    /** A chunk's readiness counter reached zero. */
    virtual void chunkReady(int chunk, std::uint64_t bytes) = 0;

    /** Mechanism this agent implements. */
    virtual TransferMechanism mechanism() const = 0;

    const Context &context() const { return _ctx; }

    /** The agent's retrying sender (for fault-injection tests). */
    const RetryingSender &sender() const { return _sender; }

  protected:
    /**
     * Push one chunk to every peer starting no earlier than
     * @p not_before, using @p threads transfer threads (0 = engine).
     *
     * When the retry policy is enabled, each per-peer push is an
     * acknowledged delivery: lost chunks are re-pushed with backoff
     * and eventually fall back to the reliable bulk path.
     *
     * @return Tick of the last peer's first-attempt delivery (retries
     *         may land later; onDelivered fires exactly once each).
     */
    Tick pushToPeers(std::uint64_t bytes, Tick not_before,
                     std::uint32_t threads);

    /** The system's event queue. */
    EventQueue &queue() const { return _ctx.system->eventQueue(); }

    Context _ctx;
    RetryingSender _sender;

  private:
    StatSet::Counter _chunksPushed{_ctx.stats, "chunks_pushed"};
    StatSet::Counter _bytesPushed{_ctx.stats, "bytes_pushed"};
};

/** Persistent polling kernel (warp-specialized transfer loop). */
class PollingAgent : public TransferAgent
{
  public:
    /**
     * Creating the agent launches the persistent kernel: its SM and
     * memory-bandwidth shares are reserved for the agent's lifetime.
     */
    explicit PollingAgent(Context ctx);
    ~PollingAgent() override;

    void chunkReady(int chunk, std::uint64_t bytes) override;

    TransferMechanism
    mechanism() const override
    {
        return TransferMechanism::Polling;
    }

    /** Resource shares this agent's loops occupy (for tests). */
    double computeShare() const { return _computeShare; }
    double memBwShare() const { return _memBwShare; }

    /**
     * Per-chunk dispatch work of the transfer loop (bitmap clear,
     * address generation, store-issue setup), serialized within one
     * agent. Makes very fine granularities initiation-bound (the
     * left region of the paper's Fig. 6 curves).
     */
    static constexpr Tick chunkSetupCost = 1 * ticksPerMicrosecond;

  private:
    double _computeShare = 0.0;
    double _memBwShare = 0.0;
    Tick _nextFree = 0;

    /** Chunks set in the bitmap, awaiting the next poll. */
    std::deque<std::uint64_t> _pendingBytes;
    bool _pollScheduled = false;

    StatSet::Counter _bitmapSets{_ctx.stats, "bitmap_sets"};
    StatSet::Counter _polls{_ctx.stats, "polls"};

    void schedulePoll();
    void poll();
};

/** CUDA Dynamic Parallelism child-kernel agent. */
class CdpAgent : public TransferAgent
{
  public:
    explicit CdpAgent(Context ctx) : TransferAgent(std::move(ctx)) {}

    void chunkReady(int chunk, std::uint64_t bytes) override;

    TransferMechanism
    mechanism() const override
    {
        return TransferMechanism::Cdp;
    }

    /**
     * Device-runtime limit on concurrently executing child kernels;
     * additional ready chunks queue behind the window (mirrors the
     * CUDA pending-launch/ HW-queue limits).
     */
    static constexpr int maxConcurrentChildren = 32;

    int activeChildren() const { return _active; }

  private:
    std::deque<std::uint64_t> _pendingBytes;
    int _active = 0;
    Tick _launchEngineFree = 0;
    StatSet::Counter _cdpLaunches{_ctx.stats, "cdp_launches"};

    void tryLaunch();
};

/** Proposed dedicated-hardware agent (paper Sec. III-D). */
class HardwareAgent : public TransferAgent
{
  public:
    explicit HardwareAgent(Context ctx) : TransferAgent(std::move(ctx))
    {}

    void chunkReady(int chunk, std::uint64_t bytes) override;

    TransferMechanism
    mechanism() const override
    {
        return TransferMechanism::Hardware;
    }

    /** Trigger-to-transfer latency of the hardware engine. */
    static constexpr Tick triggerLatency = 100 * ticksPerNanosecond;

  private:
    StatSet::Counter _hwTriggers{_ctx.stats, "hw_triggers"};
};

/** Factory for the decoupled mechanisms (Inline has no agent). */
std::unique_ptr<TransferAgent>
makeAgent(TransferMechanism mechanism, TransferAgent::Context ctx);

} // namespace proact

#endif // PROACT_PROACT_TRANSFER_AGENT_HH
