/**
 * @file
 * Timing model of one GPU.
 *
 * Kernels launch onto a single in-order stream. CTAs are scheduled in
 * waves onto the SM array (spec.maxResidentCtas() concurrent CTAs).
 * A CTA's compute part runs on its SM at smFlops; its memory traffic
 * drains through the GPU-wide HBM channel (a rate-limited FIFO at
 * the spec's memory bandwidth), so memory-bound kernels take
 * totalTraffic/memBw overall while a lone straggler CTA drains at
 * full bandwidth — matching real GPU occupancy behaviour on skewed
 * work. computeFactor and the HBM rate shrink while transfer agents
 * (polling loops, CDP child kernels) occupy SM or memory resources.
 * Instrumented kernels route each CTA's completion through the L2
 * atomic unit — a rate-limited channel — so readiness-counter
 * contention naturally slows tracking-heavy workloads (paper Fig. 8).
 */

#ifndef PROACT_GPU_GPU_HH
#define PROACT_GPU_GPU_HH

#include "gpu/gpu_spec.hh"
#include "gpu/kernel.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

#include <cstdint>
#include <deque>
#include <memory>

namespace proact {

/**
 * One simulated GPU: in-order kernel stream, SM-wave CTA scheduler,
 * L2 atomic unit, and interference accounting for co-resident
 * transfer agents.
 */
class Gpu
{
  public:
    Gpu(EventQueue &eq, const GpuSpec &spec, int id);

    // Counters below point into stats' map nodes.
    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    int id() const { return _id; }
    const GpuSpec &spec() const { return _spec; }
    EventQueue &eventQueue() { return _eq; }

    /**
     * Enqueue a kernel on the GPU's stream. Launches incur
     * spec.kernelLaunchLatency; kernels on one GPU never overlap.
     */
    void launch(KernelLaunch launch);

    /** Whether a kernel is running or queued. */
    bool busy() const { return _running || !_streamQueue.empty(); }

    /** Set timing-only mode for subsequently launched kernels. */
    void setFunctional(bool functional) { _functional = functional; }
    bool functional() const { return _functional; }

    /** @{ @name Transfer-agent interference
     * Agents reserve fractional shares; reservations affect CTAs that
     * start after the change (quasi-static approximation).
     */
    void reserveCompute(double share);
    void releaseCompute(double share);
    void reserveMemBw(double share);
    void releaseMemBw(double share);
    double computeFactor() const { return 1.0 - _computeReserved; }
    double memBwFactor() const { return 1.0 - _memBwReserved; }
    /** @} */

    /** L2 atomic unit; "bytes" are atomic operations. */
    Channel &atomicUnit() { return *_atomicUnit; }

    /** GPU-wide HBM interface draining all CTA memory traffic. */
    Channel &hbm() { return *_hbm; }

    /** Serial (compute-side) duration of a CTA's footprint, now. */
    Tick ctaComputeTicks(const CtaWork &work) const;

    /** Accumulated statistics (kernels, CTAs, busy time). */
    StatSet stats;

    /** Attach a span tracer (nullptr disables tracing). */
    void setTrace(Trace *trace) { _trace = trace; }

  private:
    struct ActiveKernel
    {
        KernelLaunch launch;
        int nextCta = 0;
        int completedCtas = 0;
        int residentCtas = 0;
    };

    EventQueue &_eq;
    GpuSpec _spec;
    int _id;
    bool _functional = true;

    double _computeReserved = 0.0;
    double _memBwReserved = 0.0;

    std::unique_ptr<Channel> _atomicUnit;
    std::unique_ptr<Channel> _hbm;

    std::deque<KernelLaunch> _streamQueue;
    std::unique_ptr<ActiveKernel> _running;
    Tick _kernelStart = 0;
    Trace *_trace = nullptr;

    /** @{ Per-CTA statistics. */
    StatSet::Counter _ctas{&stats, "ctas"};
    StatSet::Counter _flops{&stats, "flops"};
    StatSet::Counter _localBytes{&stats, "local_bytes"};
    StatSet::Counter _trackingAtomics{&stats, "tracking_atomics"};
    /** @} */

    void startNextKernel();
    void beginKernel();
    void fillWave();
    void startCta(int cta);
    void ctaComputeDone(int cta);
    void ctaFinished(int cta);
};

} // namespace proact

#endif // PROACT_GPU_GPU_HH
