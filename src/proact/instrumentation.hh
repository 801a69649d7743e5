/**
 * @file
 * Compile-time-style kernel instrumentation (paper Listing 1).
 *
 * The paper's compiler pass emits two variants of every producer
 * kernel: an *inline* variant whose stores are replicated to every
 * peer GPU as they are issued, and a *decoupled* variant whose first
 * thread per CTA decrements the readiness counters of the chunks the
 * CTA wrote (triggering the transfer agent on the final decrement).
 * This module performs the same transformation on our kernel IR: it
 * takes the user's KernelDesc plus the CTA write footprints of every
 * PROACT-enabled region the kernel produces (Listing 1's region1,
 * region2, ...) and returns a KernelLaunch with the tracking or
 * store-replication hooks attached.
 */

#ifndef PROACT_PROACT_INSTRUMENTATION_HH
#define PROACT_PROACT_INSTRUMENTATION_HH

#include "proact/region.hh"
#include "proact/transfer_agent.hh"
#include "sim/types.hh"
#include "workloads/workload.hh"

#include <cstdint>
#include <functional>
#include <vector>

namespace proact {

/**
 * Memory-fence + counter-index cost added to each tracked CTA: a
 * gpu-scope membar draining the SM's store path plus the bounds and
 * chunk-id arithmetic of Listing 1, holding the CTA's SM slot. On a
 * loaded GPU this is microseconds, and it is part of the paper's
 * Fig. 8 software-tracking slowdown.
 */
constexpr Tick trackingFenceCost = 2 * ticksPerMicrosecond;

/**
 * Fraction of a tracked CTA's memory traffic lost to fence-drain
 * bubbles in the SM's memory pipeline (paper Fig. 8: 10-15 % mean
 * software-tracking slowdown).
 */
constexpr double trackingHbmOverhead = 0.12;

/** One region's tracker paired with its CTA write footprints. */
struct TrackedRegion
{
    RegionTracker *tracker = nullptr;
    std::function<ByteRange(int cta)> ctaRange;
};

/**
 * Build the decoupled variant: per-CTA readiness decrements (one per
 * region the CTA wrote) routed through the GPU's L2 atomic unit,
 * chunk-ready events forwarded to @p agent. The Hardware mechanism
 * skips the software atomic path (counters update in dedicated
 * hardware, Sec. III-D).
 *
 * The caller must keep every tracker and @p agent alive until the
 * launch completes.
 *
 * @param atomic_fanout Atomic operations per logical decrement: under
 *        footprint scaling one modeled CTA stands for that many real
 *        CTAs, each of which issues its own counter decrement.
 * @param on_complete Fires when the kernel's last CTA retires.
 */
KernelLaunch
instrumentDecoupled(const KernelDesc &kernel,
                    std::vector<TrackedRegion> regions,
                    TransferAgent &agent, Gpu &gpu, StatSet *stats,
                    EventQueue::Callback on_complete,
                    std::uint64_t atomic_fanout = 1);

/**
 * Build the inline variant: each CTA's writes to every region are
 * mirrored to every peer at the workload's effective store
 * granularity (Listing 1's user_kernel_inline). No tracking state is
 * needed.
 *
 * @param store_bytes Effective per-store wire granularity after SM
 *        write coalescing (TrafficProfile::inlineStoreBytes).
 * @param elide_transfers Analysis mode: count deliveries instantly
 *        without touching the fabric.
 * @param on_delivered Fires once per (CTA, region, peer) delivery.
 * @param sender Optional retrying sender (fault-tolerant runs): the
 *        inline store stream gains the same acknowledged-delivery
 *        semantics as the decoupled agents. Must outlive the launch.
 */
KernelLaunch
instrumentInline(const GpuPhaseWork &work, MultiGpuSystem &system,
                 int gpu_id, std::uint32_t store_bytes,
                 bool elide_transfers,
                 std::function<void(std::uint64_t)> on_delivered,
                 StatSet *stats, EventQueue::Callback on_complete,
                 RetryingSender *sender = nullptr);

} // namespace proact

#endif // PROACT_PROACT_INSTRUMENTATION_HH
