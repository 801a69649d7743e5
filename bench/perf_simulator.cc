/**
 * @file
 * Simulator microbenchmarks (google-benchmark).
 *
 * The profiler sweeps hundreds of transfer configurations per
 * application and the fleet elector re-runs narrowed sweeps on every
 * cache miss, so simulation throughput is a product feature. These
 * benches time its building blocks: event dispatch, cancellation and
 * steady-depth dispatch on the slab/4-ary-heap EventQueue, FIFO
 * channel booking, R-MAT graph generation, one timing-only PROACT run
 * (the profiler's unit of work), one run through a baseboard loss
 * under the adaptive fault stack (the unit of work perfbench's faults
 * workload repeats), and one cold fleet serve (election sweeps,
 * tenant set-up and tenant runs, as perfbench's fleet workload serves
 * them). The committed perfbench baseline (sim.ns_per_event, simulate_s) is
 * the regression record for the event core.
 *
 * Usage: perf_simulator [google-benchmark flags]
 */

#include "faults/fault_plan.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "health/link_health.hh"
#include "proact/runtime.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "system/platform.hh"
#include "workloads/graph.hh"
#include "workloads/registry.hh"

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

using namespace proact;

namespace {

void
BM_EventQueueDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        long fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule((i * 7919) % 100000, [&fired] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueDispatch)->Arg(1 << 10)->Arg(1 << 16);

void
BM_EventQueueCancel(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        long fired = 0;
        std::vector<EventId> ids;
        for (int i = 0; i < state.range(0); ++i)
            ids.push_back(eq.schedule((i * 7919) % 100000,
                                      [&fired] { ++fired; }));
        for (int i = 0; i < state.range(0); i += 2)
            eq.deschedule(ids[static_cast<std::size_t>(i)]);
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueCancel)->Arg(1 << 16);

/**
 * Hold model: the queue keeps state.range(0) events pending, and each
 * dispatch schedules one successor a seeded pseudo-random distance
 * ahead, so every timed pop runs at a steady depth. (The dispatch
 * bench above drains a pre-filled queue, whose depth falls to zero.)
 */
void
BM_EventQueueHold(benchmark::State &state)
{
    struct Hold
    {
        EventQueue eq;
        Rng rng{1};
        long fired = 0;

        void
        fire()
        {
            ++fired;
            eq.scheduleIn(1 + rng.below(1 << 20), [this] { fire(); });
        }
    } hold;
    for (int i = 0; i < state.range(0); ++i) {
        hold.eq.schedule(hold.rng.below(1 << 20),
                         [&hold] { hold.fire(); });
    }
    for (auto _ : state)
        hold.eq.runNext();
    benchmark::DoNotOptimize(hold.fired);
    state.SetItemsProcessed(state.iterations());
}
// The mean pending counts per pop of perfbench sweep (483) and
// scaling (4,475).
BENCHMARK(BM_EventQueueHold)->Arg(512)->Arg(4096);

void
BM_ChannelBooking(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        Channel ch(eq, "bench", 100.0e9);
        Tick last = 0;
        for (int i = 0; i < state.range(0); ++i)
            last = ch.submit(4096, 4096);
        eq.run();
        benchmark::DoNotOptimize(last);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelBooking)->Arg(1 << 14);

void
BM_RmatGeneration(benchmark::State &state)
{
    RmatParams params;
    params.numVertices = state.range(0);
    params.numEdges = state.range(1);
    for (auto _ : state) {
        const Graph g = generateRmat(params);
        benchmark::DoNotOptimize(g.numEdges());
    }
    state.SetItemsProcessed(state.iterations() * state.range(1));
}
// (vertices, edges): a small graph, and the Pagerank/SSSP size the
// repository benchmark builds (registry size at scale shift 4).
BENCHMARK(BM_RmatGeneration)
    ->ArgNames({"vertices", "edges"})
    ->Args({1 << 14, 1 << 17})
    ->Args({1 << 15, 1 << 20})
    ->Unit(benchmark::kMillisecond);

void
BM_RmatInOffsets(benchmark::State &state)
{
    // The degree pass a timing-only set-up runs instead of the build.
    RmatParams params;
    params.numVertices = state.range(0);
    params.numEdges = state.range(1);
    for (auto _ : state) {
        const auto offsets = generateRmatInOffsets(params);
        benchmark::DoNotOptimize(offsets.back());
    }
    state.SetItemsProcessed(state.iterations() * state.range(1));
}
// The BM_RmatGeneration sizes.
BENCHMARK(BM_RmatInOffsets)
    ->ArgNames({"vertices", "edges"})
    ->Args({1 << 14, 1 << 17})
    ->Args({1 << 15, 1 << 20})
    ->Unit(benchmark::kMillisecond);

void
BM_TimingOnlyRun(benchmark::State &state)
{
    // Full 4-GPU PROACT-decoupled Pagerank iteration sweep in
    // timing-only mode — the profiler's unit of work.
    auto workload = makeWorkload("Pagerank", 4); // Scaled down 16x.
    workload->setup(4);
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 128 * KiB;
    config.transferThreads = 2048;

    for (auto _ : state) {
        MultiGpuSystem system(voltaPlatform());
        system.setFunctional(false);
        ProactRuntime::Options options;
        options.config = config;
        options.maxIterations = 2;
        ProactRuntime runtime(system, options);
        benchmark::DoNotOptimize(runtime.run(*workload));
    }
}
BENCHMARK(BM_TimingOnlyRun);

void
BM_FaultedRun(benchmark::State &state)
{
    // Timing-only Jacobi on the DGX-2, losing baseboard 0 a quarter
    // of the way in, under the adaptive stack of the fault studies:
    // health with a 50 us holdoff, rebooking, rerouting, and acked
    // retry that re-plans after two lost attempts.
    const PlatformSpec platform = dgx2Platform();
    auto workload = makeWorkload("Jacobi", 3);
    workload->setFootprintScale(16);
    workload->setup(platform.numGpus);

    ProactRuntime::Options options;
    options.config.mechanism = TransferMechanism::Polling;
    options.config.chunkBytes = 64 * KiB;
    options.config.transferThreads = 2048;
    options.config.retry.enabled = true;
    options.config.retry.maxAttempts = 5;
    options.config.retry.rerouteAfterAttempts = 2;

    auto run = [&](const FaultPlan &plan) {
        MultiGpuSystem system(platform);
        system.setFunctional(false);
        if (!plan.empty()) {
            system.installFaults(plan);
            HealthPolicy health;
            health.transitionHoldoff = 50 * ticksPerMicrosecond;
            system.enableHealth(health);
            system.fabric().setRebooking(true);
            system.enableReroute();
        }
        ProactRuntime runtime(system, options);
        const Tick ticks = runtime.run(*workload);
        return std::pair<Tick, std::size_t>(
            ticks, system.fabric().numTrackedFlights());
    };
    const Tick clean = run(FaultPlan{}).first;
    FaultPlan plan;
    dgx2DownBaseboard(plan, clean / 4, maxTick, 0);

    for (auto _ : state) {
        const auto [ticks, flights] = run(plan);
        if (ticks == 0 || flights != 0) {
            state.SkipWithError("faulted run took no time or left "
                                "tracked flights");
            break;
        }
        benchmark::DoNotOptimize(ticks);
    }
}
BENCHMARK(BM_FaultedRun)->Unit(benchmark::kMillisecond);

void
BM_FleetServe(benchmark::State &state)
{
    // A seeded 12-job stream of registry workloads served on the
    // DGX-2 with up to two tenants per plane, on a fresh session per
    // iteration: every election misses the empty cache, and each
    // application's graph is built once for the session.
    fleet::ArrivalModel model;
    model.seed = 7;
    model.numJobs = 12;
    const std::vector<fleet::JobSpec> jobs =
        fleet::generateJobStream(model);

    fleet::FleetSession::Options options;
    options.placement = fleet::PlacementMode::PlaneSharing;
    options.maxTenantsPerPlane = 2;
    options.chargeElections = false;

    for (auto _ : state) {
        fleet::FleetSession session(dgx2Platform(), options);
        const fleet::FleetReport report = session.serve(jobs);
        bool complete = report.tenants.size() == jobs.size();
        for (const fleet::TenantRecord &t : report.tenants)
            complete = complete && !t.run.aborted;
        if (!complete) {
            state.SkipWithError("fleet serve left a job incomplete");
            break;
        }
        benchmark::DoNotOptimize(report.makespan);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FleetServe)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
