/**
 * @file
 * Unit tests for the compile-time profiler (paper Sec. III-A).
 */

#include "proact/profiler.hh"
#include "proact/runtime.hh"
#include "system/multi_gpu_system.hh"
#include "tests/toy_workload.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <algorithm>

using namespace proact;
using proact::test::ToyWorkload;

namespace {

Profiler::Options
tinyOptions()
{
    Profiler::Options options;
    options.chunkSizes = {16 * KiB, 64 * KiB, 1 * MiB};
    options.threadCounts = {256, 2048};
    options.profileIterations = 1;
    return options;
}

} // namespace

TEST(Profiler, SweepCoversFullGrid)
{
    ToyWorkload workload;
    workload.setup(4);
    Profiler profiler(voltaPlatform(), tinyOptions());
    const ProfileResult result = profiler.profile(workload);
    // 2 mechanisms x 3 chunk sizes x 2 thread counts.
    EXPECT_EQ(result.entries.size(), 12u);
    EXPECT_GT(result.inlineTicks, 0u);
}

TEST(Profiler, BestIsMinimumOverSweep)
{
    ToyWorkload workload;
    workload.setup(4);
    Profiler profiler(voltaPlatform(), tinyOptions());
    const ProfileResult result = profiler.profile(workload);
    for (const auto &entry : result.entries)
        EXPECT_LE(result.bestTicks, entry.ticks);
    EXPECT_LE(result.bestTicks, result.inlineTicks);
    EXPECT_EQ(result.bestDecoupled().ticks,
              [&] {
                  Tick best = ~Tick(0);
                  for (const auto &e : result.entries)
                      best = std::min(best, e.ticks);
                  return best;
              }());
}

TEST(Profiler, MeasureMatchesDirectRun)
{
    ToyWorkload workload;
    workload.setup(4);
    Profiler profiler(voltaPlatform(), tinyOptions());
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    const Tick measured = profiler.measure(workload, config);

    MultiGpuSystem system(voltaPlatform());
    system.setFunctional(false);
    ProactRuntime::Options options;
    options.config = config;
    options.maxIterations = 1;
    ProactRuntime runtime(system, options);
    EXPECT_EQ(measured, runtime.run(workload));
}

TEST(Profiler, TimingOnlyLeavesFunctionalStateUntouched)
{
    ToyWorkload workload;
    workload.setup(4);
    Profiler profiler(voltaPlatform(), tinyOptions());
    profiler.profile(workload);
    // No functional writes happened: verify() must FAIL (data still
    // zero), proving the sweep did not corrupt workload state.
    EXPECT_FALSE(workload.verify());
}

TEST(Profiler, ChunkCountGuardSkipsPathologicalConfigs)
{
    ToyWorkload::Params params;
    params.partitionBytes = 8 * MiB;
    ToyWorkload workload(params);
    workload.setup(4);

    auto options = tinyOptions();
    options.chunkSizes = {4 * KiB, 1 * MiB};
    options.maxChunksPerGpu = 256; // Excludes the 4 kB point.
    Profiler profiler(voltaPlatform(), options);
    const ProfileResult result = profiler.profile(workload);
    EXPECT_EQ(result.entries.size(), 4u); // 2 mech x 1 chunk x 2 thr.
    for (const auto &entry : result.entries)
        EXPECT_EQ(entry.config.chunkBytes, 1 * MiB);
}

TEST(Profiler, RejectsGpuCountMismatch)
{
    ToyWorkload workload;
    workload.setup(2);
    Profiler profiler(voltaPlatform(), tinyOptions());
    EXPECT_THROW(profiler.profile(workload), FatalError);
}

TEST(Profiler, InlineCanWinForDenseTraffic)
{
    // Dense 256B stores with tiny transfer volume: inline avoids all
    // tracking overhead and should beat decoupled.
    ToyWorkload::Params params;
    params.partitionBytes = 64 * KiB;
    params.ctaLocalBytes = 1 * MiB; // Compute-heavy.
    params.inlineStoreBytes = 256;
    ToyWorkload workload(params);
    workload.setup(4);

    Profiler profiler(voltaPlatform(), tinyOptions());
    const ProfileResult result = profiler.profile(workload);
    EXPECT_EQ(result.best.mechanism, TransferMechanism::Inline);
}

TEST(Profiler, DecoupledWinsForScatteredTraffic)
{
    // 4B effective stores and communication-heavy shape: inline's
    // wire blowup must lose to the decoupled agents.
    ToyWorkload::Params params;
    params.partitionBytes = 8 * MiB;
    params.ctaLocalBytes = 16 * KiB;
    params.inlineStoreBytes = 4;
    ToyWorkload workload(params);
    workload.setup(4);

    Profiler profiler(voltaPlatform(), tinyOptions());
    const ProfileResult result = profiler.profile(workload);
    EXPECT_TRUE(result.best.decoupled());
    EXPECT_LT(result.bestTicks, result.inlineTicks);
}

TEST(Profiler, ConfigRendering)
{
    TransferConfig inline_cfg;
    inline_cfg.mechanism = TransferMechanism::Inline;
    EXPECT_EQ(inline_cfg.toString(), "I");

    TransferConfig decoupled;
    decoupled.mechanism = TransferMechanism::Polling;
    decoupled.chunkBytes = 128 * KiB;
    decoupled.transferThreads = 2048;
    EXPECT_EQ(decoupled.toString(), "D 128kB 2048 Poll");

    decoupled.mechanism = TransferMechanism::Cdp;
    decoupled.chunkBytes = 1 * MiB;
    EXPECT_EQ(decoupled.toString(), "D 1MB 2048 CDP");
}

TEST(Profiler, SweepRangesMatchPaper)
{
    const auto chunks = chunkSizeSweep();
    EXPECT_EQ(chunks.front(), 4 * KiB);
    EXPECT_EQ(chunks.back(), 16 * MiB);
    const auto threads = threadCountSweep();
    EXPECT_EQ(threads.front(), 32u);
    EXPECT_EQ(threads.back(), 8192u);
}
