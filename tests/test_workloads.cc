/**
 * @file
 * Per-application tests: footprint consistency, functional
 * correctness under multi-GPU execution, determinism, and the
 * workload-specific numerical properties.
 */

#include "baselines/runner.hh"
#include "proact/profiler.hh"
#include "proact/runtime.hh"
#include "tests/small_workloads.hh"
#include "workloads/registry.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

using namespace proact;
using namespace proact::test;

/** Test name of a (workload, gpu count) case: "X_ray_CT_4gpu". */
std::string
appGpuName(
    const ::testing::TestParamInfo<std::tuple<std::string, int>> &info)
{
    std::string name = std::get<0>(info.param);
    for (auto &c : name) {
        if (c == ' ' || c == '-')
            c = '_';
    }
    return name + "_" + std::to_string(std::get<1>(info.param)) + "gpu";
}

/** Parameterized over (workload, gpu count). */
class WorkloadProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, int>>
{
  protected:
    std::unique_ptr<Workload> workload;
    int gpus = 0;

    void
    SetUp() override
    {
        const auto &[name, n] = GetParam();
        gpus = n;
        workload = makeSmallWorkload(name);
        ASSERT_NE(workload, nullptr);
        workload->setup(n);
    }
};

TEST_P(WorkloadProperty, FootprintsTilePartitionExactly)
{
    for (int iter = 0; iter < 2; ++iter) {
        const Phase phase = workload->phase(iter);
        ASSERT_EQ(static_cast<int>(phase.perGpu.size()), gpus);
        for (int g = 0; g < gpus; ++g) {
            const GpuPhaseWork &work = phase.perGpu[g];
            ASSERT_TRUE(work.ctaRange);
            std::uint64_t prev_hi = 0;
            for (int cta = 0; cta < work.kernel.numCtas; ++cta) {
                const ByteRange r = work.ctaRange(cta);
                EXPECT_EQ(r.lo, prev_hi)
                    << "gpu " << g << " cta " << cta;
                EXPECT_GE(r.hi, r.lo);
                prev_hi = r.hi;
            }
            EXPECT_EQ(prev_hi, work.bytesProduced) << "gpu " << g;
        }
    }
}

TEST_P(WorkloadProperty, PartitionsCoverTheRegion)
{
    const Phase phase = workload->phase(0);
    std::uint64_t total = 0;
    for (const auto &work : phase.perGpu) {
        total += work.bytesProduced;
        EXPECT_GE(work.kernel.numCtas, 1);
        EXPECT_TRUE(work.kernel.body);
    }
    EXPECT_GT(total, 0u);

    // The region size must not depend on the GPU count: compare
    // against a single-GPU setup of the same workload.
    auto reference = makeSmallWorkload(std::get<0>(GetParam()));
    reference->setup(1);
    const Phase ref_phase = reference->phase(0);
    EXPECT_EQ(total, ref_phase.perGpu.at(0).bytesProduced);
}

TEST_P(WorkloadProperty, FunctionalRunVerifies)
{
    MultiGpuSystem system(
        voltaPlatform().withGpuCount(gpus));
    IdealRuntime runtime(system);
    runtime.run(*workload);
    EXPECT_TRUE(workload->verify());
}

TEST_P(WorkloadProperty, FootprintsAreDataIndependent)
{
    // The paper requires deterministic stores (Sec. III-B): the
    // declared footprints must match between a fresh workload and
    // one that has already run.
    auto fresh = makeSmallWorkload(std::get<0>(GetParam()));
    fresh->setup(gpus);

    MultiGpuSystem system(voltaPlatform().withGpuCount(gpus));
    IdealRuntime runtime(system);
    runtime.run(*workload);

    const Phase after = workload->phase(0);
    const Phase before = fresh->phase(0);
    for (int g = 0; g < gpus; ++g) {
        EXPECT_EQ(after.perGpu[g].bytesProduced,
                  before.perGpu[g].bytesProduced);
        EXPECT_EQ(after.perGpu[g].kernel.numCtas,
                  before.perGpu[g].kernel.numCtas);
        CtaContext ctx{g, 0, after.perGpu[g].kernel.numCtas, false};
        const CtaWork wa = after.perGpu[g].kernel.body(ctx);
        const CtaWork wb = before.perGpu[g].kernel.body(ctx);
        EXPECT_DOUBLE_EQ(wa.flops, wb.flops);
        EXPECT_EQ(wa.localBytes, wb.localBytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, WorkloadProperty,
    ::testing::Combine(::testing::Values("X-ray CT", "Jacobi",
                                         "Pagerank", "SSSP", "ALS"),
                       ::testing::Values(1, 2, 4)),
    appGpuName);

/**
 * Jacobi and X-ray CT build their numeric state on first functional
 * use; parameterized over (workload, gpu count).
 */
class DeferredNumericState : public WorkloadProperty
{
  protected:
    PlatformSpec
    platform() const
    {
        return voltaPlatform().withGpuCount(gpus);
    }

    bool
    built(const Workload &w) const
    {
        if (const auto *jacobi = dynamic_cast<const JacobiWorkload *>(&w))
            return jacobi->numericStateBuilt();
        return dynamic_cast<const MbirWorkload &>(w).numericStateBuilt();
    }

    /** A small profiler sweep plus one timing-only run. */
    void
    profileAndTime(Workload &w) const
    {
        Profiler::Options options;
        options.chunkSizes = {16 * KiB, 64 * KiB};
        options.threadCounts = {256};
        Profiler(platform(), options).profile(w);

        MultiGpuSystem system(platform());
        system.setFunctional(false);
        ProactRuntime runtime(system, ProactRuntime::Options{});
        runtime.run(w);
    }

    void
    runFunctional(Workload &w) const
    {
        MultiGpuSystem system(platform());
        IdealRuntime runtime(system);
        runtime.run(w);
    }

    /** Every number a functional run leaves behind, as bits. */
    std::vector<std::uint64_t>
    outcome(const Workload &w) const
    {
        if (const auto *jacobi = dynamic_cast<const JacobiWorkload *>(&w)) {
            return {std::bit_cast<std::uint64_t>(jacobi->relativeResidual()),
                    jacobi->verify()};
        }
        const auto &ct = dynamic_cast<const MbirWorkload &>(w);
        return {std::bit_cast<std::uint64_t>(ct.relativeResidual()),
                std::bit_cast<std::uint64_t>(ct.reconstructionError()),
                ct.verify()};
    }

    /** What a fresh instance's functional run leaves behind. */
    std::vector<std::uint64_t>
    freshOutcome() const
    {
        auto fresh = makeSmallWorkload(std::get<0>(GetParam()));
        fresh->setup(gpus);
        runFunctional(*fresh);
        return outcome(*fresh);
    }
};

TEST_P(DeferredNumericState, TimingOnlyRunsLeaveItUnbuilt)
{
    EXPECT_FALSE(built(*workload));
    profileAndTime(*workload);
    EXPECT_FALSE(built(*workload));
    runFunctional(*workload);
    EXPECT_TRUE(built(*workload));
}

TEST_P(DeferredNumericState, ProfilingFirstLeavesFunctionalResultsBitwiseEqual)
{
    profileAndTime(*workload);
    runFunctional(*workload);
    const std::vector<std::uint64_t> got = outcome(*workload);
    EXPECT_EQ(got, freshOutcome());
    EXPECT_EQ(got.back(), 1u) << "the functional run verifies";
}

TEST_P(DeferredNumericState, SetupAfterAFunctionalRunStartsFresh)
{
    runFunctional(*workload);
    workload->setup(gpus);
    EXPECT_FALSE(built(*workload));
    runFunctional(*workload);
    EXPECT_EQ(outcome(*workload), freshOutcome());
}

TEST_P(DeferredNumericState, VerifyFailsBeforeAnyFunctionalRun)
{
    EXPECT_FALSE(workload->verify());
    profileAndTime(*workload);
    EXPECT_FALSE(workload->verify());
}

INSTANTIATE_TEST_SUITE_P(
    DenseApps, DeferredNumericState,
    ::testing::Combine(::testing::Values("X-ray CT", "Jacobi"),
                       ::testing::Values(1, 2, 4)),
    appGpuName);

TEST(Workloads, JacobiConverges)
{
    auto workload = makeSmallWorkload("Jacobi");
    workload->setup(2);
    auto &jacobi = dynamic_cast<JacobiWorkload &>(*workload);
    const double before = jacobi.relativeResidual();

    MultiGpuSystem system(voltaPlatform().withGpuCount(2));
    IdealRuntime runtime(system);
    runtime.run(jacobi);
    EXPECT_LT(jacobi.relativeResidual(), 0.5 * before);
}

TEST(Workloads, SsspMatchesSerialReferenceBitwise)
{
    auto workload = makeSmallWorkload("SSSP");
    workload->setup(4);
    auto &sssp = dynamic_cast<SsspWorkload &>(*workload);

    MultiGpuSystem system(voltaPlatform());
    IdealRuntime runtime(system);
    runtime.run(sssp);

    const auto ref = sssp.referenceDistances(4);
    ASSERT_EQ(ref.size(), sssp.distances().size());
    for (std::size_t v = 0; v < ref.size(); ++v)
        ASSERT_EQ(ref[v], sssp.distances()[v]) << "vertex " << v;
}

TEST(Workloads, SsspDistancesImproveMonotonically)
{
    SsspWorkload::Params p;
    p.graph.numVertices = 1 << 10;
    p.graph.numEdges = 1 << 13;
    SsspWorkload sssp(p);
    sssp.setup(1);
    const auto d1 = sssp.referenceDistances(1);
    const auto d3 = sssp.referenceDistances(3);
    for (std::size_t v = 0; v < d1.size(); ++v)
        EXPECT_LE(d3[v], d1[v]);
}

TEST(Workloads, PagerankMassAndSkew)
{
    auto workload = makeSmallWorkload("Pagerank");
    workload->setup(4);
    MultiGpuSystem system(voltaPlatform());
    IdealRuntime runtime(system);
    runtime.run(*workload);

    auto &pr = dynamic_cast<PagerankWorkload &>(*workload);
    double sum = 0.0;
    for (const double r : pr.ranks())
        sum += r;
    EXPECT_GT(sum, 0.15); // (1 - d) lower bound.
    EXPECT_LE(sum, 1.0 + 1e-9);
    EXPECT_TRUE(pr.verify());
}

TEST(Workloads, AlsReducesRmse)
{
    auto workload = makeSmallWorkload("ALS");
    workload->setup(2);
    auto &als = dynamic_cast<AlsWorkload &>(*workload);
    const double before = als.rmse();

    MultiGpuSystem system(voltaPlatform().withGpuCount(2));
    IdealRuntime runtime(system);
    runtime.run(als);
    EXPECT_LT(als.rmse(), before);
}

TEST(Workloads, MbirReducesReconstructionError)
{
    auto workload = makeSmallWorkload("X-ray CT");
    workload->setup(2);
    auto &ct = dynamic_cast<MbirWorkload &>(*workload);
    const double before = ct.reconstructionError();
    ASSERT_GT(before, 0.9); // Starts from a zero image.

    MultiGpuSystem system(voltaPlatform().withGpuCount(2));
    IdealRuntime runtime(system);
    runtime.run(ct);
    EXPECT_LT(ct.reconstructionError(), 0.5 * before);
    EXPECT_LT(ct.relativeResidual(), 0.5);
}

TEST(Workloads, TrafficProfilesMatchPaperCharacterization)
{
    // Dense-write apps coalesce; irregular apps do not (Sec. V-B).
    EXPECT_GE(makeSmallWorkload("Jacobi")->traffic().inlineStoreBytes,
              128u);
    EXPECT_GE(
        makeSmallWorkload("X-ray CT")->traffic().inlineStoreBytes,
        128u);
    EXPECT_LE(
        makeSmallWorkload("Pagerank")->traffic().inlineStoreBytes,
        16u);
    EXPECT_LE(makeSmallWorkload("SSSP")->traffic().inlineStoreBytes,
              16u);
    EXPECT_LE(makeSmallWorkload("ALS")->traffic().inlineStoreBytes,
              16u);
    EXPECT_TRUE(makeSmallWorkload("Jacobi")->traffic()
                    .sequentialAccess);
    EXPECT_FALSE(makeSmallWorkload("Pagerank")->traffic()
                     .sequentialAccess);
}

TEST(Workloads, RegistryCreatesAllStandardWorkloads)
{
    for (const auto &name : standardWorkloadNames()) {
        auto workload = makeWorkload(name, 6); // Heavily scaled down.
        ASSERT_NE(workload, nullptr) << name;
        EXPECT_EQ(workload->name(), name);
    }
    EXPECT_THROW(makeWorkload("NoSuchApp"), FatalError);
}

TEST(Workloads, FootprintScaleValidation)
{
    auto workload = makeSmallWorkload("Jacobi");
    EXPECT_THROW(workload->setFootprintScale(0), FatalError);
    workload->setFootprintScale(4);
    EXPECT_EQ(workload->footprintScale(), 4u);
}

TEST(Workloads, FootprintScaleMultipliesDeclaredWork)
{
    auto base = makeSmallWorkload("Jacobi");
    base->setup(2);
    auto scaled = makeSmallWorkload("Jacobi");
    scaled->setFootprintScale(8);
    scaled->setup(2);

    const Phase pb = base->phase(0);
    const Phase ps = scaled->phase(0);
    EXPECT_EQ(ps.perGpu[0].bytesProduced,
              8 * pb.perGpu[0].bytesProduced);

    CtaContext ctx{0, 0, pb.perGpu[0].kernel.numCtas, false};
    EXPECT_EQ(ps.perGpu[0].kernel.body(ctx).localBytes,
              8 * pb.perGpu[0].kernel.body(ctx).localBytes);
    EXPECT_EQ(ps.perGpu[0].ctaRange(0).hi,
              8 * pb.perGpu[0].ctaRange(0).hi);
}
