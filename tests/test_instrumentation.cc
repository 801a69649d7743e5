/**
 * @file
 * Unit tests for the compile-time-style instrumentation layer
 * (paper Listing 1).
 */

#include "proact/instrumentation.hh"
#include "tests/toy_workload.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <vector>

using namespace proact;
using proact::test::ToyWorkload;

namespace {

struct Fixture
{
    MultiGpuSystem system{voltaPlatform()};
    StatSet stats;
    int deliveries = 0;
    ToyWorkload workload;
    GpuPhaseWork work;

    Fixture()
    {
        workload.setup(4);
        work = workload.phase(0).perGpu[0];
    }

    TransferAgent::Context
    agentContext()
    {
        TransferAgent::Context ctx;
        ctx.system = &system;
        ctx.gpuId = 0;
        ctx.config.mechanism = TransferMechanism::Hardware;
        ctx.config.chunkBytes = 64 * KiB;
        ctx.stats = &stats;
        ctx.onDelivered = [this](std::uint64_t) { ++deliveries; };
        return ctx;
    }
};

/** @p work's one output region, tracked by @p tracker. */
std::vector<TrackedRegion>
tracked(RegionTracker &tracker, const GpuPhaseWork &work)
{
    return {TrackedRegion{&tracker, work.ctaRange}};
}

} // namespace

TEST(Instrumentation, DecoupledWiresTrackingHooks)
{
    Fixture f;
    RegionTracker tracker(f.work.bytesProduced, 64 * KiB);
    tracker.initCounters(f.work.kernel.numCtas, f.work.ctaRange);
    HardwareAgent agent(f.agentContext());

    bool kernel_done = false;
    KernelLaunch launch = instrumentDecoupled(
        f.work.kernel, tracked(tracker, f.work), agent,
        f.system.gpu(0), &f.stats, [&] { kernel_done = true; });

    // Hardware agents skip the software atomic path.
    EXPECT_FALSE(launch.instrumented);
    EXPECT_EQ(launch.extraCtaTicks, 0u);
    EXPECT_DOUBLE_EQ(launch.hbmTrafficOverhead, 0.0);

    f.system.gpu(0).launch(launch);
    f.system.run();
    EXPECT_TRUE(kernel_done);
    EXPECT_TRUE(tracker.allReady());
    EXPECT_EQ(f.deliveries,
              tracker.numChunks() * (f.system.numGpus() - 1));
    EXPECT_DOUBLE_EQ(f.stats.get("counter_decrements"),
                     f.work.kernel.numCtas);
}

TEST(Instrumentation, SoftwareAgentsPayTrackingCosts)
{
    Fixture f;
    RegionTracker tracker(f.work.bytesProduced, 64 * KiB);
    tracker.initCounters(f.work.kernel.numCtas, f.work.ctaRange);
    auto ctx = f.agentContext();
    ctx.config.mechanism = TransferMechanism::Polling;
    PollingAgent agent(ctx);

    const KernelLaunch launch = instrumentDecoupled(
        f.work.kernel, tracked(tracker, f.work), agent,
        f.system.gpu(0), &f.stats, nullptr);
    EXPECT_TRUE(launch.instrumented);
    EXPECT_EQ(launch.extraCtaTicks, trackingFenceCost);
    EXPECT_DOUBLE_EQ(launch.hbmTrafficOverhead, trackingHbmOverhead);
}

TEST(Instrumentation, AtomicFanoutScalesDecrementTraffic)
{
    Fixture f;
    RegionTracker tracker(f.work.bytesProduced, 64 * KiB);
    tracker.initCounters(f.work.kernel.numCtas, f.work.ctaRange);
    auto ctx = f.agentContext();
    ctx.config.mechanism = TransferMechanism::Polling;
    PollingAgent agent(ctx);

    KernelLaunch launch = instrumentDecoupled(
        f.work.kernel, tracked(tracker, f.work), agent,
        f.system.gpu(0), &f.stats, nullptr, /*atomic_fanout=*/16);
    f.system.gpu(0).launch(launch);
    f.system.run();
    EXPECT_DOUBLE_EQ(f.stats.get("counter_decrements"),
                     16.0 * f.work.kernel.numCtas);
}

TEST(Instrumentation, InlineMirrorsWritesToPeers)
{
    Fixture f;
    bool kernel_done = false;
    std::uint64_t delivered_bytes = 0;
    int deliveries = 0;
    KernelLaunch launch = instrumentInline(
        f.work, f.system, 0, /*store_bytes=*/8,
        /*elide_transfers=*/false,
        [&](std::uint64_t bytes) {
            ++deliveries;
            delivered_bytes += bytes;
        },
        &f.stats, [&] { kernel_done = true; });

    EXPECT_FALSE(launch.instrumented);
    f.system.gpu(0).launch(launch);
    f.system.run();

    EXPECT_TRUE(kernel_done);
    EXPECT_EQ(deliveries,
              f.work.kernel.numCtas * (f.system.numGpus() - 1));
    EXPECT_EQ(delivered_bytes,
              f.work.bytesProduced * (f.system.numGpus() - 1));
    // 8-byte effective stores hit the wire with heavy packet
    // overhead: wire >> payload.
    EXPECT_GT(f.system.fabric().totalWireBytes(),
              4 * f.system.fabric().totalPayloadBytes());
}

TEST(Instrumentation, InlineElideSkipsFabric)
{
    Fixture f;
    int deliveries = 0;
    KernelLaunch launch = instrumentInline(
        f.work, f.system, 0, 256, /*elide_transfers=*/true,
        [&](std::uint64_t) { ++deliveries; }, &f.stats, nullptr);
    f.system.gpu(0).launch(launch);
    f.system.run();
    EXPECT_EQ(deliveries,
              f.work.kernel.numCtas * (f.system.numGpus() - 1));
    EXPECT_EQ(f.system.fabric().totalPayloadBytes(), 0u);
}

TEST(Instrumentation, RejectsMissingFootprints)
{
    Fixture f;
    GpuPhaseWork work = f.work;
    work.ctaRange = nullptr;
    RegionTracker tracker(1024, 1024);
    HardwareAgent agent(f.agentContext());
    EXPECT_THROW(instrumentDecoupled(work.kernel,
                                     tracked(tracker, work), agent,
                                     f.system.gpu(0), nullptr,
                                     nullptr),
                 FatalError);
    EXPECT_THROW(instrumentInline(work, f.system, 0, 256, false,
                                  nullptr, nullptr, nullptr),
                 FatalError);
    EXPECT_THROW(instrumentInline(f.work, f.system, 0, 0, false,
                                  nullptr, nullptr, nullptr),
                 FatalError);
}
