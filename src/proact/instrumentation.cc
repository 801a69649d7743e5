#include "proact/instrumentation.hh"

#include "gpu/gpu.hh"
#include "sim/logging.hh"

#include <vector>

namespace proact {

KernelLaunch
instrumentDecoupled(const KernelDesc &kernel,
                    std::vector<TrackedRegion> regions,
                    TransferAgent &agent, Gpu &gpu, StatSet *stats,
                    EventQueue::Callback on_complete,
                    std::uint64_t atomic_fanout)
{
    if (regions.empty())
        fatalError("instrumentDecoupled: kernel '", kernel.name,
                   "' has no tracked regions");
    for (const auto &region : regions) {
        if (region.tracker == nullptr || !region.ctaRange)
            fatalError("instrumentDecoupled: kernel '", kernel.name,
                       "' has a region without tracker/footprints");
    }

    const bool hardware =
        agent.mechanism() == TransferMechanism::Hardware;

    KernelLaunch launch;
    launch.desc = kernel;
    // Software tracking routes each CTA's retirement through the L2
    // atomic unit and pays the fence cost; the proposed hardware
    // support updates counters transparently (Sec. III-D).
    launch.instrumented = !hardware;
    launch.extraCtaTicks = hardware ? 0 : trackingFenceCost;
    launch.hbmTrafficOverhead = hardware ? 0.0 : trackingHbmOverhead;
    launch.onComplete = std::move(on_complete);

    launch.onCtaComplete = [regions = std::move(regions), &agent,
                            &gpu, hardware, atomic_fanout,
                            decrement_stat = StatSet::Counter(
                                stats, "counter_decrements")](
                               int cta) mutable {
        std::vector<int> ready;
        std::uint64_t decrements = 0;
        for (const auto &region : regions) {
            ready.clear();
            decrements += static_cast<std::uint64_t>(
                region.tracker->ctaArrived(region.ctaRange(cta),
                                           ready));
            for (int chunk : ready) {
                agent.chunkReady(chunk,
                                 region.tracker->chunkSize(chunk));
            }
        }
        decrement_stat.inc(static_cast<double>(decrements)
                           * static_cast<double>(atomic_fanout));
        if (!hardware) {
            // The first decrement's latency is already modeled by
            // the instrumented CTA retirement; the remaining real
            // CTAs this modeled CTA stands for, and chunks beyond
            // the first, add atomic traffic that occupies (but does
            // not block on) the atomic unit.
            const std::uint64_t total_ops = decrements * atomic_fanout;
            if (total_ops > 1)
                gpu.atomicUnit().submit(total_ops - 1, total_ops - 1);
        }
    };
    return launch;
}

KernelLaunch
instrumentInline(const GpuPhaseWork &work, MultiGpuSystem &system,
                 int gpu_id, std::uint32_t store_bytes,
                 bool elide_transfers,
                 std::function<void(std::uint64_t)> on_delivered,
                 StatSet *stats, EventQueue::Callback on_complete,
                 RetryingSender *sender)
{
    const auto outputs = work.allOutputs();
    if (outputs.empty())
        fatalError("instrumentInline: kernel '", work.kernel.name,
                   "' produces no regions");
    for (const auto &output : outputs) {
        if (!output.ctaRange)
            fatalError("instrumentInline: kernel '",
                       work.kernel.name,
                       "' lacks CTA write footprints");
    }
    if (store_bytes == 0)
        fatalError("instrumentInline: zero store granularity");

    KernelLaunch launch;
    launch.desc = work.kernel;
    launch.instrumented = false;
    launch.onComplete = std::move(on_complete);

    launch.onCtaComplete = [&system, gpu_id, store_bytes,
                            elide_transfers, on_delivered, outputs,
                            sender,
                            store_stat = StatSet::Counter(
                                stats, "inline_store_bytes")](
                               int cta) mutable {
        auto &eq = system.eventQueue();
        std::uint64_t total_bytes = 0;

        for (const auto &output : outputs) {
            const std::uint64_t bytes = output.ctaRange(cta).size();
            total_bytes += bytes;

            for (int peer = 0; peer < system.numGpus(); ++peer) {
                if (peer == gpu_id)
                    continue;

                auto deliver = [on_delivered, bytes] {
                    if (on_delivered)
                        on_delivered(bytes);
                };

                if (elide_transfers || bytes == 0) {
                    eq.schedule(eq.curTick(), std::move(deliver));
                    continue;
                }

                Interconnect::Request req;
                req.src = gpu_id;
                req.dst = peer;
                req.bytes = bytes;
                req.writeGranularity = store_bytes;
                req.threads = 0; // Every producer thread stores.
                req.onComplete = std::move(deliver);
                if (sender)
                    sender->send(std::move(req));
                else
                    system.fabric().transfer(req);
            }
        }
        store_stat.inc(static_cast<double>(total_bytes)
                       * (system.numGpus() - 1));
    };
    return launch;
}

} // namespace proact
