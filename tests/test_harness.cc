/**
 * @file
 * Unit tests for the harness layer (paradigm factory + session).
 */

#include "harness/session.hh"
#include "tests/toy_workload.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

using namespace proact;
using proact::test::ToyWorkload;

TEST(Paradigm, NamesAndOrder)
{
    EXPECT_EQ(paradigmName(Paradigm::CudaMemcpy), "cudaMemcpy");
    EXPECT_EQ(paradigmName(Paradigm::ProactDecoupled),
              "PROACT-decoupled");
    const auto all = allParadigms();
    EXPECT_EQ(all.size(), 5u);
    EXPECT_EQ(all.front(), Paradigm::UnifiedMemory);
    EXPECT_EQ(all.back(), Paradigm::InfiniteBw);
}

TEST(Paradigm, FactoryBuildsEachRuntime)
{
    MultiGpuSystem system(voltaPlatform());
    for (const Paradigm p : allParadigms()) {
        auto runtime = makeRuntime(p, system);
        ASSERT_NE(runtime, nullptr) << paradigmName(p);
        EXPECT_FALSE(runtime->name().empty());
    }
}

TEST(Paradigm, DecoupledFactoryHonorsConfig)
{
    MultiGpuSystem system(voltaPlatform());
    TransferConfig config;
    config.mechanism = TransferMechanism::Cdp;
    config.chunkBytes = 1 * MiB;
    config.transferThreads = 512;
    auto runtime =
        makeRuntime(Paradigm::ProactDecoupled, system, config);
    EXPECT_NE(runtime->name().find("1MB"), std::string::npos);
    EXPECT_NE(runtime->name().find("CDP"), std::string::npos);

    // An inline config passed to the decoupled paradigm falls back
    // to a decoupled mechanism rather than silently going inline.
    TransferConfig inline_cfg;
    inline_cfg.mechanism = TransferMechanism::Inline;
    auto fallback =
        makeRuntime(Paradigm::ProactDecoupled, system, inline_cfg);
    EXPECT_NE(fallback->name().find("PROACT-decoupled"),
              std::string::npos);
}

TEST(Session, RunExecutesAndCollectsFabricStats)
{
    Session session(voltaPlatform());
    ToyWorkload workload;
    workload.setup(4);
    const ParadigmRun run =
        session.run(workload, Paradigm::CudaMemcpy, {.functional = true});
    EXPECT_GT(run.ticks, 0u);
    EXPECT_GT(run.payloadBytes, 0u);
    EXPECT_GE(run.wireBytes, run.payloadBytes);
    EXPECT_GT(run.storeTransactions, 0u);
}

TEST(Session, FunctionalRunVerifiesOrThrows)
{
    Session session(voltaPlatform());
    ToyWorkload workload;
    workload.setup(4);
    // Paradigm runs verify internally; a timing-only run must not.
    EXPECT_NO_THROW(session.run(workload, Paradigm::InfiniteBw,
                                {.functional = false}));
    EXPECT_FALSE(workload.verify()); // No math happened.
    EXPECT_NO_THROW(session.run(workload, Paradigm::InfiniteBw,
                                {.functional = true}));
    EXPECT_TRUE(workload.verify());
}

TEST(Session, CompareParadigmsNormalizesAgainstSingleGpu)
{
    Session session(voltaPlatform());
    const WorkloadFactory factory = [](int gpus) {
        ToyWorkload::Params params;
        params.partitionBytes = 1 * MiB;
        params.ctaLocalBytes = 256 * KiB;
        auto workload = std::make_unique<ToyWorkload>(params);
        workload->setup(gpus);
        return workload;
    };

    Profiler::Options quick;
    quick.chunkSizes = {128 * KiB};
    quick.threadCounts = {2048};
    quick.profileIterations = 1;

    const auto results = session.compareParadigms(
        factory, /*functional=*/false, quick);
    ASSERT_EQ(results.size(), allParadigms().size());
    for (const auto &run : results) {
        EXPECT_GT(run.speedup, 0.0)
            << paradigmName(run.paradigm);
        EXPECT_LT(run.speedup, 4.2)
            << paradigmName(run.paradigm);
    }

    // The limit study must dominate every real paradigm.
    double ideal = 0.0;
    for (const auto &run : results) {
        if (run.paradigm == Paradigm::InfiniteBw)
            ideal = run.speedup;
    }
    for (const auto &run : results)
        EXPECT_LE(run.speedup, ideal + 1e-9)
            << paradigmName(run.paradigm);
}

TEST(Session, SingleGpuTicksUsesOneGpu)
{
    Session session(voltaPlatform());
    int seen_gpus = -1;
    const WorkloadFactory factory = [&](int gpus) {
        seen_gpus = gpus;
        auto workload = std::make_unique<ToyWorkload>();
        workload->setup(gpus);
        return workload;
    };
    EXPECT_GT(session.singleGpuTicks(factory), 0u);
    EXPECT_EQ(seen_gpus, 1);
}
