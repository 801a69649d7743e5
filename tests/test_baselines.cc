/**
 * @file
 * Unit tests for the baseline runtimes (cudaMemcpy, UM, infinite-BW).
 */

#include "baselines/runner.hh"
#include "tests/toy_workload.hh"

#include "sim/logging.hh"
#include "workloads/registry.hh"

#include <gtest/gtest.h>

using namespace proact;
using proact::test::ToyWorkload;

TEST(IdealRuntime, RunsKernelsOnly)
{
    ToyWorkload workload;
    workload.setup(4);
    MultiGpuSystem system(voltaPlatform());
    IdealRuntime runtime(system);
    EXPECT_GT(runtime.run(workload), 0u);
    EXPECT_EQ(system.fabric().totalPayloadBytes(), 0u);
    EXPECT_TRUE(workload.verify());
}

TEST(BulkMemcpyRuntime, DuplicatesEveryPartition)
{
    ToyWorkload::Params params;
    params.iterations = 2;
    ToyWorkload workload(params);
    workload.setup(4);
    MultiGpuSystem system(voltaPlatform());
    BulkMemcpyRuntime runtime(system);
    runtime.run(workload);

    EXPECT_EQ(system.fabric().totalPayloadBytes(),
              4ull * 3ull * params.partitionBytes * 2ull);
    EXPECT_DOUBLE_EQ(runtime.stats().get("memcpy_calls"),
                     4.0 * 3.0 * 2.0);
    EXPECT_TRUE(workload.verify());
}

TEST(BulkMemcpyRuntime, NoComputeTransferOverlap)
{
    // The bulk paradigm's copy time is fully exposed: runtime ==
    // ideal + copyTicks (modulo the host-serialization slack counted
    // inside copyTicks).
    ToyWorkload::Params params;
    params.partitionBytes = 4 * MiB;
    params.iterations = 2;

    ToyWorkload w1(params);
    w1.setup(4);
    MultiGpuSystem s1(voltaPlatform());
    IdealRuntime ideal(s1);
    const Tick t_ideal = ideal.run(w1);

    ToyWorkload w2(params);
    w2.setup(4);
    MultiGpuSystem s2(voltaPlatform());
    BulkMemcpyRuntime memcpy_rt(s2);
    const Tick t_memcpy = memcpy_rt.run(w2);

    EXPECT_GT(memcpy_rt.copyTicks(), 0u);
    EXPECT_NEAR(static_cast<double>(t_memcpy),
                static_cast<double>(t_ideal + memcpy_rt.copyTicks()),
                static_cast<double>(t_memcpy) * 0.02);
}

TEST(BulkMemcpyRuntime, SingleGpuCopiesNothing)
{
    ToyWorkload workload;
    workload.setup(1);
    MultiGpuSystem system(voltaPlatform().withGpuCount(1));
    BulkMemcpyRuntime runtime(system);
    EXPECT_GT(runtime.run(workload), 0u);
    EXPECT_EQ(system.fabric().totalPayloadBytes(), 0u);
    EXPECT_EQ(runtime.copyTicks(), 0u);
}

TEST(BulkMemcpyRuntime, HostSerializationScalesWithGpuCount)
{
    // Per-copy host cost makes N*(N-1) copies increasingly painful —
    // the paper's Fig. 10 flattening mechanism: 2 GPUs issue 2
    // copies, 8 GPUs issue 56, so the exposed copy section grows
    // far faster than linearly in GPU count.
    auto copy_ticks = [](int gpus) {
        ToyWorkload::Params params;
        params.partitionBytes = 512 * KiB;
        params.iterations = 1;
        ToyWorkload workload(params);
        workload.setup(gpus);
        MultiGpuSystem system(dgx2Platform().withGpuCount(gpus));
        BulkMemcpyRuntime runtime(system);
        runtime.run(workload);
        return runtime.copyTicks();
    };
    EXPECT_GT(copy_ticks(8), 6 * copy_ticks(2));
}

TEST(UnifiedMemoryRuntime, RunsAndMigrates)
{
    ToyWorkload::Params params;
    params.iterations = 3;
    ToyWorkload workload(params);
    workload.setup(4);
    MultiGpuSystem system(voltaPlatform());
    UnifiedMemoryRuntime runtime(system);
    EXPECT_GT(runtime.run(workload), 0u);
    // Iterations beyond the first pull peer partitions.
    EXPECT_GT(runtime.stats().get("um_accesses"), 0.0);
    EXPECT_GT(system.fabric().totalPayloadBytes(), 0u);
    EXPECT_TRUE(workload.verify());
}

TEST(UnifiedMemoryRuntime, SequentialBeatsSporadicAccess)
{
    auto run = [](bool sequential) {
        ToyWorkload::Params params;
        params.partitionBytes = 4 * MiB;
        params.iterations = 3;
        params.sequential = sequential;
        ToyWorkload workload(params);
        workload.setup(4);
        MultiGpuSystem system(voltaPlatform());
        UnifiedMemoryRuntime runtime(system);
        return runtime.run(workload);
    };
    EXPECT_LT(run(true), run(false));
}

TEST(UnifiedMemoryRuntime, LegacyModeOnKepler)
{
    ToyWorkload::Params params;
    params.iterations = 2;
    ToyWorkload workload(params);
    workload.setup(4);
    MultiGpuSystem system(keplerPlatform());
    UnifiedMemoryRuntime runtime(system);
    EXPECT_GT(runtime.run(workload), 0u);
    EXPECT_GT(runtime.stats().get("legacy_migrations"), 0.0);
    EXPECT_DOUBLE_EQ(runtime.stats().get("faults"), 0.0);
}

TEST(UnifiedMemoryRuntime, SingleGpuDoesNotMigrate)
{
    ToyWorkload workload;
    workload.setup(1);
    MultiGpuSystem system(voltaPlatform().withGpuCount(1));
    UnifiedMemoryRuntime runtime(system);
    EXPECT_GT(runtime.run(workload), 0u);
    EXPECT_DOUBLE_EQ(runtime.stats().get("um_accesses"), 0.0);
}

TEST(UnifiedMemoryRuntime, CoversPhasesLargerThanTheFirst)
{
    // ALS's user and item phases write different per-GPU sizes: here
    // GPU 3's odd iterations write past the region iteration 0 sizes.
    auto workload = makeWorkload("ALS", 3);
    workload->setFootprintScale(16);
    workload->setup(4);
    MultiGpuSystem system(voltaPlatform());
    system.setFunctional(false);
    UnifiedMemoryRuntime runtime(system);
    EXPECT_GT(runtime.run(*workload), 0u);
    EXPECT_GT(runtime.stats().get("um_accesses"), 0.0);
}

TEST(Baselines, ParadigmsComputeIdenticalResults)
{
    auto data_after = [](auto make_runtime) {
        ToyWorkload workload;
        workload.setup(4);
        MultiGpuSystem system(voltaPlatform());
        auto runtime = make_runtime(system);
        runtime->run(workload);
        return workload.verify();
    };
    EXPECT_TRUE(data_after([](MultiGpuSystem &s) {
        return std::make_unique<IdealRuntime>(s);
    }));
    EXPECT_TRUE(data_after([](MultiGpuSystem &s) {
        return std::make_unique<BulkMemcpyRuntime>(s);
    }));
    EXPECT_TRUE(data_after([](MultiGpuSystem &s) {
        return std::make_unique<UnifiedMemoryRuntime>(s);
    }));
}

TEST(Baselines, LaunchPlainKernelsJoinsAll)
{
    ToyWorkload workload;
    workload.setup(4);
    MultiGpuSystem system(voltaPlatform());
    bool done = false;
    launchPlainKernels(system, workload.phase(0),
                       [&] { done = true; });
    system.run();
    EXPECT_TRUE(done);
}

TEST(Baselines, LaunchPlainKernelsValidatesShape)
{
    ToyWorkload workload;
    workload.setup(2);
    MultiGpuSystem system(voltaPlatform()); // 4 GPUs vs 2 described.
    EXPECT_THROW(
        launchPlainKernels(system, workload.phase(0), nullptr),
        FatalError);
}
