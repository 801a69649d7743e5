#include "baselines/runner.hh"

#include "sim/joiner.hh"
#include "sim/logging.hh"

#include <algorithm>
#include <vector>

namespace proact {

namespace {

/**
 * Serial host-side cost of one cudaMemcpyPeer issue beyond the base
 * API call: returning to the host program and synchronizing before
 * the DMA engine can be programmed (paper Sec. II-B). Paid per copy
 * on the single host thread, which is why bulk duplication scales
 * poorly with GPU count (N*(N-1) copies per iteration).
 */
constexpr Tick dmaHostSyncCost = 8 * ticksPerMicrosecond;

} // namespace

void
launchPlainKernels(MultiGpuSystem &system, const Phase &phase,
                   EventQueue::Callback on_all_done)
{
    const int n = system.numGpus();
    if (static_cast<int>(phase.perGpu.size()) != n)
        fatalError("launchPlainKernels: phase describes ",
                   phase.perGpu.size(), " GPUs, system has ", n);

    auto &eq = system.eventQueue();
    auto joiner = Joiner::make(n, std::move(on_all_done));

    for (int g = 0; g < n; ++g) {
        KernelLaunch launch;
        launch.desc = phase.perGpu[g].kernel;
        launch.onComplete = Joiner::arrival(joiner);

        const Tick issue = system.host().issue();
        eq.schedule(issue, [&system, g, launch] {
            system.gpu(g).launch(launch);
        });
    }
}

Tick
IdealRuntime::run(Workload &workload)
{
    if (workload.numGpus() != _system.numGpus())
        fatalError("IdealRuntime: workload set up for ",
                   workload.numGpus(), " GPUs, system has ",
                   _system.numGpus());

    const Tick start = _system.now();
    for (int iter = 0; iter < workload.numIterations(); ++iter) {
        const Phase phase = workload.phase(iter);
        launchPlainKernels(_system, phase, nullptr);
        _system.eventQueue().run();
    }
    return _system.now() - start;
}

Tick
BulkMemcpyRuntime::run(Workload &workload)
{
    if (workload.numGpus() != _system.numGpus())
        fatalError("BulkMemcpyRuntime: workload set up for ",
                   workload.numGpus(), " GPUs, system has ",
                   _system.numGpus());

    const Tick start = _system.now();
    for (int iter = 0; iter < workload.numIterations(); ++iter) {
        const Phase phase = workload.phase(iter);
        runPhase(phase);
    }
    _stats.set("copy_ticks", static_cast<double>(_copyTicks));
    return _system.now() - start;
}

void
BulkMemcpyRuntime::runPhase(const Phase &phase)
{
    auto &eq = _system.eventQueue();
    const int n = _system.numGpus();

    Tick kernels_done = 0;
    Tick last_delivery = 0;

    launchPlainKernels(_system, phase, [&] {
        kernels_done = eq.curTick();
        if (n == 1)
            return;

        // Bulk synchronization: only now does the host program the
        // DMA engines to duplicate every partition everywhere.
        for (int src = 0; src < n; ++src) {
            const std::uint64_t bytes =
                phase.perGpu[src].totalBytesProduced();
            for (int dst = 0; dst < n; ++dst) {
                if (dst == src)
                    continue;
                const Tick issue =
                    _system.host().issue(dmaHostSyncCost);
                _stats.inc("memcpy_calls");
                _stats.inc("memcpy_bytes", static_cast<double>(bytes));
                _system.dma(src).copyToPeer(
                    dst, bytes,
                    [&] { last_delivery = eq.curTick(); }, issue);
            }
        }
    });

    eq.run();

    if (last_delivery > kernels_done)
        _copyTicks += last_delivery - kernels_done;
}

Tick
UnifiedMemoryRuntime::run(Workload &workload)
{
    if (workload.numGpus() != _system.numGpus())
        fatalError("UnifiedMemoryRuntime: workload set up for ",
                   workload.numGpus(), " GPUs, system has ",
                   _system.numGpus());

    auto &eq = _system.eventQueue();
    const int n = _system.numGpus();
    const TrafficProfile traffic = workload.traffic();

    // Best-effort hinting (Sec. IV-B): prefetch + overlap for
    // sequential access; the fault path is unavoidable for sporadic
    // accesses even with hand tuning.
    UmHints hints;
    hints.prefetch = traffic.sequentialAccess;
    hints.readDuplicate = false;
    if (_hintsForced)
        hints = _forcedHints;

    const Tick start = _system.now();

    // Region layout: concatenated per-GPU partitions at the first
    // iteration's offsets. Later phases may produce more (ALS's user
    // and item phases differ in per-GPU size), so each phase grows
    // the region to its own extent before it touches it.
    const Phase first = workload.phase(0);
    std::vector<std::uint64_t> offsets(n, 0);
    std::uint64_t region_bytes = 0;
    for (int g = 0; g < n; ++g) {
        offsets[g] = region_bytes;
        region_bytes += first.perGpu[g].totalBytesProduced();
    }
    UmDriver driver(_system, std::max<std::uint64_t>(1, region_bytes));

    for (int iter = 0; iter < workload.numIterations(); ++iter) {
        const Phase phase = workload.phase(iter);
        std::uint64_t extent = 0;
        for (int g = 0; g < n; ++g) {
            extent = std::max(extent,
                              offsets[g]
                                  + phase.perGpu[g].totalBytesProduced());
        }
        driver.pageTable().growTo(extent);

        // Pull the peer partitions produced last iteration while the
        // kernels run; the iteration ends when both the compute and
        // the migrations have finished.
        int outstanding = 1; // launchPlainKernels fires exactly once.

        launchPlainKernels(_system, phase, [&] { --outstanding; });

        if (iter > 0 && n > 1) {
            for (int g = 0; g < n; ++g) {
                for (int p = 0; p < n; ++p) {
                    if (p == g)
                        continue;
                    const std::uint64_t bytes =
                        phase.perGpu[p].totalBytesProduced();
                    if (bytes == 0)
                        continue;
                    ++outstanding;
                    _stats.inc("um_accesses");
                    driver.access(g, p, offsets[p], bytes,
                                  traffic.sequentialAccess, hints,
                                  _system.now(),
                                  [&] { --outstanding; });
                }
            }
        }

        eq.run();

        if (outstanding != 0)
            panicError("UnifiedMemoryRuntime: phase did not drain");

        // Producer writes invalidate peer replicas for next iter.
        for (int g = 0; g < n; ++g) {
            driver.producerWrote(
                g, offsets[g],
                phase.perGpu[g].totalBytesProduced());
        }
    }

    _stats.merge(driver.stats);
    return _system.now() - start;
}

} // namespace proact
