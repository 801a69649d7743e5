#include "proact/runtime.hh"

#include "proact/instrumentation.hh"
#include "sim/logging.hh"

#include <algorithm>
#include <vector>

namespace proact {

ProactRuntime::ProactRuntime(MultiGpuSystem &system, Options options)
    : _system(system), _options(std::move(options))
{
    if (_options.config.decoupled() &&
        _options.config.chunkBytes == 0) {
        fatalError("ProactRuntime: zero chunk granularity");
    }
}

std::string
ProactRuntime::name() const
{
    return _options.config.mechanism == TransferMechanism::Inline
        ? "PROACT-inline"
        : "PROACT-decoupled(" + _options.config.toString() + ")";
}

Tick
ProactRuntime::run(Workload &workload)
{
    if (workload.numGpus() != _system.numGpus())
        fatalError("ProactRuntime: workload set up for ",
                   workload.numGpus(), " GPUs, system has ",
                   _system.numGpus());

    int iterations = workload.numIterations();
    if (_options.maxIterations >= 0)
        iterations = std::min(iterations, _options.maxIterations);
    if (_options.firstIteration < 0 ||
        _options.firstIteration > iterations) {
        fatalError("ProactRuntime: firstIteration ",
                   _options.firstIteration, " outside [0, ",
                   iterations, "]");
    }

    const TrafficProfile traffic = workload.traffic();
    _atomicFanout = workload.footprintScale();
    _completedIterations = _options.firstIteration;
    const Tick start = _system.now();
    for (int iter = _options.firstIteration; iter < iterations;
         ++iter) {
        const Phase phase = workload.phase(iter);
        if (_system.numGpus() == 1)
            runPhaseSingleGpu(phase);
        else
            runPhase(phase, traffic);

        // A device declared LOST mid-phase aborts at the boundary:
        // the phase's surviving traffic drained (lost transfers were
        // orphaned or quiesced), nothing new launches, and the caller
        // restarts from the latest checkpoint on surviving GPUs.
        if (_system.anyDeviceLost()) {
            _aborted = true;
            _lostGpu = _system.lostDevices().front();
            _stats.inc("aborts");
            break;
        }

        _completedIterations = iter + 1;
        if (_options.checkpoint &&
            (iter + 1) % checkpointInterval == 0) {
            _checkpointIteration = iter;
            ++_checkpoints;
            _checkpointTicks += checkpointCost;
            _stats.inc("checkpoints");
            _stats.inc("checkpoint_ticks",
                       static_cast<double>(checkpointCost));
            advanceTimeline(checkpointCost);
        }
    }
    // A loss declared after the last boundary check (e.g. during the
    // final checkpoint's drain) still poisons the run: iterations
    // that overlapped the death ran with orphaned transfers, so the
    // result cannot be trusted or verified. The caller restarts from
    // the latest checkpoint as usual.
    if (!_aborted && _system.anyDeviceLost()) {
        _aborted = true;
        _lostGpu = _system.lostDevices().front();
        _stats.inc("aborts");
    }
    _stats.set("iterations",
               _completedIterations - _options.firstIteration);
    return _system.now() - start;
}

void
ProactRuntime::advanceTimeline(Tick cost)
{
    if (cost == 0)
        return;
    // Bounded drain: concurrent machinery (fault boundaries,
    // watchdog beats) observes the span, but events past the window
    // stay queued — a run() here would pull a far-future device-loss
    // boundary into this checkpoint and distort the timeline.
    _system.runTimelineTo(_system.now() + cost);
}

void
ProactRuntime::runPhaseSingleGpu(const Phase &phase)
{
    // No peers: PROACT degenerates to plain kernel execution.
    auto &eq = _system.eventQueue();
    KernelLaunch launch;
    launch.desc = phase.perGpu.at(0).kernel;
    const Tick issue = _system.host().issue();
    eq.schedule(issue, [this, launch] {
        _system.gpu(0).launch(launch);
    });
    eq.run();
}

void
ProactRuntime::runPhase(const Phase &phase,
                        const TrafficProfile &traffic)
{
    const int n = _system.numGpus();
    if (static_cast<int>(phase.perGpu.size()) != n)
        fatalError("ProactRuntime: phase describes ",
                   phase.perGpu.size(), " GPUs, system has ", n);

    auto &eq = _system.eventQueue();
    const bool inline_mode =
        _options.config.mechanism == TransferMechanism::Inline;

    // Per-phase tracking state (one tracker per produced region per
    // GPU); must outlive the drain below. Inline mode gets a
    // per-GPU retrying sender when the retry policy is on, giving the
    // inline store stream the same loss tolerance as the agents.
    std::vector<std::vector<std::unique_ptr<RegionTracker>>>
        trackers(n);
    std::vector<std::unique_ptr<TransferAgent>> agents(n);
    std::vector<std::unique_ptr<RetryingSender>> senders(n);

    std::uint64_t expected_deliveries = 0;
    std::uint64_t seen_deliveries = 0;
    int kernels_remaining = n;
    Tick kernels_done = 0;
    Tick last_delivery = 0;
    std::uint64_t delivered_bytes = 0;
    // Read before every event the watchdog drain dispatches.
    const StatSet::Counter orphaned_stat(&_stats, "transfers.orphaned");
    const double orphaned_before = orphaned_stat.value();
    const std::uint64_t refused_before =
        _system.fabric().refusedDeliveries();

    auto on_delivered = [&](std::uint64_t bytes) {
        ++seen_deliveries;
        last_delivery = eq.curTick();
        delivered_bytes += bytes;
    };
    auto on_kernel_done = [&] {
        kernels_done = eq.curTick();
        --kernels_remaining;
    };

    std::vector<KernelLaunch> launches;
    launches.reserve(n);

    for (int g = 0; g < n; ++g) {
        const GpuPhaseWork &work = phase.perGpu[g];
        const auto outputs = work.allOutputs();

        if (outputs.empty()) {
            // Nothing to communicate: run the kernel untouched.
            KernelLaunch launch;
            launch.desc = work.kernel;
            launch.onComplete = on_kernel_done;
            launches.push_back(std::move(launch));
            continue;
        }

        if (inline_mode) {
            expected_deliveries +=
                static_cast<std::uint64_t>(work.kernel.numCtas)
                * outputs.size() * (n - 1);
            RetryingSender *sender = nullptr;
            if (_options.config.retry.enabled) {
                senders[g] = std::make_unique<RetryingSender>(
                    eq, _system.fabric(), _options.config.retry,
                    &_stats, _system.trace());
                senders[g]->setRerouter(_system.rerouter());
                sender = senders[g].get();
            }
            launches.push_back(instrumentInline(
                work, _system, g, traffic.inlineStoreBytes,
                _options.elideTransfers, on_delivered, &_stats,
                on_kernel_done, sender));
            continue;
        }

        TransferAgent::Context ctx;
        ctx.system = &_system;
        ctx.gpuId = g;
        ctx.config = _options.config;
        ctx.elideTransfers = _options.elideTransfers;
        ctx.onDelivered = on_delivered;
        ctx.stats = &_stats;
        agents[g] = makeAgent(_options.config.mechanism,
                              std::move(ctx));

        std::vector<TrackedRegion> tracked;
        for (const RegionOutput &output : outputs) {
            auto tracker = std::make_unique<RegionTracker>(
                output.bytesProduced, _options.config.chunkBytes);
            tracker->initCounters(work.kernel.numCtas,
                                  output.ctaRange);

            expected_deliveries +=
                static_cast<std::uint64_t>(tracker->numChunks())
                * (n - 1);
            _stats.inc("chunks_total", tracker->numChunks());

            // Chunks no CTA writes (possible under user-defined
            // mappings) are ready from the start.
            for (int c = 0; c < tracker->numChunks(); ++c) {
                if (tracker->counters().expected(c) == 0) {
                    agents[g]->chunkReady(c, tracker->chunkSize(c));
                    warn("PROACT: chunk with no writer CTAs in "
                         "kernel '" + work.kernel.name + "'");
                }
            }

            tracked.push_back(
                TrackedRegion{tracker.get(), output.ctaRange});
            trackers[g].push_back(std::move(tracker));
        }

        launches.push_back(instrumentDecoupled(
            work.kernel, std::move(tracked), *agents[g],
            _system.gpu(g), &_stats, on_kernel_done, _atomicFanout));
    }

    // Host issues the per-GPU launches back-to-back.
    for (int g = 0; g < n; ++g) {
        const Tick issue = _system.host().issue();
        const KernelLaunch &launch = launches[g];
        eq.schedule(issue, [this, g, launch] {
            _system.gpu(g).launch(launch);
        });
    }

    if (_system.deviceHealth()) {
        // Bounded drain under the device watchdog: stop once the
        // phase's own work is accounted for (kernels done; every
        // expected delivery seen, orphaned, or refused at a dead
        // endpoint). A plain run() would also drain *future* fault
        // boundaries — scheduled at absolute ticks when the plan was
        // armed — dragging the clock to the loss tick inside the
        // first phase, so a mid-run death would always abort at
        // iteration 0 with no checkpointed progress to preserve.
        // Background events left behind (heartbeats, boundaries,
        // stale ack timeouts) fire during later phase or checkpoint
        // drains at their proper ticks.
        auto accounted = [&] {
            const auto orphaned = static_cast<std::uint64_t>(
                orphaned_stat.value() - orphaned_before);
            const std::uint64_t refused =
                _system.fabric().refusedDeliveries() - refused_before;
            return kernels_remaining == 0
                && seen_deliveries + orphaned + refused
                >= expected_deliveries;
        };
        _system.drainWhile([&] { return !accounted(); });
    } else {
        _system.run();
    }

    if (delivered_bytes > 0) {
        _stats.inc("delivered_bytes",
                   static_cast<double>(delivered_bytes));
    }

    // A device loss legitimately leaves deliveries missing (orphaned
    // or quiesced); the abort path in run() deals with it. A
    // transient device-down window that never reached LOST also
    // orphans transfers — those are accounted one-for-one, so the
    // conservation law still closes. On a healthy system the
    // invariants hold as ever.
    if (!_system.anyDeviceLost()) {
        const auto orphaned = static_cast<std::uint64_t>(
            orphaned_stat.value() - orphaned_before);
        if (seen_deliveries + orphaned != expected_deliveries)
            panicError("ProactRuntime: expected ",
                       expected_deliveries, " deliveries, saw ",
                       seen_deliveries, " (+", orphaned,
                       " orphaned)");
        if (kernels_remaining != 0)
            panicError("ProactRuntime: ", kernels_remaining,
                       " kernels never completed");
    }

    if (last_delivery > kernels_done)
        _tailTicks += last_delivery - kernels_done;
    _stats.inc("phases");
}

} // namespace proact
