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
#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
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

/** Every bit of @p values, in order. */
std::vector<std::uint64_t>
bitsOf(const std::vector<double> &values)
{
    std::vector<std::uint64_t> bits;
    bits.reserve(values.size());
    for (const double v : values)
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

/**
 * Every app builds its numeric state on first functional use;
 * parameterized over (workload, gpu count).
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
        if (const auto *ct = dynamic_cast<const MbirWorkload *>(&w))
            return ct->numericStateBuilt();
        if (const auto *pr = dynamic_cast<const PagerankWorkload *>(&w))
            return pr->numericStateBuilt();
        if (const auto *sssp = dynamic_cast<const SsspWorkload *>(&w))
            return sssp->numericStateBuilt();
        return dynamic_cast<const AlsWorkload &>(w).numericStateBuilt();
    }

    /**
     * A small profiler sweep, then two timing-only runs. The sweep
     * measures five candidates (two mechanisms at two chunk sizes,
     * plus inline) over two iterations each, and each run covers all
     * four: 5 + 2 x 3 = 11 iteration boundaries. The count is odd,
     * so a workload that swaps its double buffers at every boundary,
     * written or not, leaves them exchanged.
     */
    void
    profileAndTime(Workload &w) const
    {
        Profiler::Options options;
        options.chunkSizes = {16 * KiB, 64 * KiB};
        options.threadCounts = {256};
        const ProfileResult profile = Profiler(platform(), options).profile(w);
        ASSERT_EQ(profile.entries.size(), 4u);
        ASSERT_EQ(w.numIterations(), 4);

        for (int run = 0; run < 2; ++run) {
            MultiGpuSystem system(platform());
            system.setFunctional(false);
            ProactRuntime runtime(system, ProactRuntime::Options{});
            runtime.run(w);
        }
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
        std::vector<std::uint64_t> bits;
        if (const auto *jacobi = dynamic_cast<const JacobiWorkload *>(&w)) {
            bits = {std::bit_cast<std::uint64_t>(jacobi->relativeResidual())};
        } else if (const auto *ct = dynamic_cast<const MbirWorkload *>(&w)) {
            bits = {std::bit_cast<std::uint64_t>(ct->relativeResidual()),
                    std::bit_cast<std::uint64_t>(ct->reconstructionError())};
        } else if (const auto *pr =
                       dynamic_cast<const PagerankWorkload *>(&w)) {
            bits = bitsOf(pr->ranks());
        } else if (const auto *sssp =
                       dynamic_cast<const SsspWorkload *>(&w)) {
            bits = bitsOf(sssp->distances());
        } else {
            const auto &als = dynamic_cast<const AlsWorkload &>(w);
            bits = {std::bit_cast<std::uint64_t>(als.rmse())};
        }
        bits.push_back(w.verify());
        return bits;
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

TEST_P(DeferredNumericState, StateReadBeforeProfilingLeavesResultsBitwiseEqual)
{
    // Reading the results builds the state before any run, so the
    // timing-only runs below swap buffers that exist but that no
    // functional CTA wrote.
    outcome(*workload);
    EXPECT_TRUE(built(*workload));
    profileAndTime(*workload);
    runFunctional(*workload);
    EXPECT_EQ(outcome(*workload), freshOutcome());
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
    AllApps, DeferredNumericState,
    ::testing::Combine(::testing::Values("X-ray CT", "Jacobi",
                                         "Pagerank", "SSSP", "ALS"),
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
    // The source reaches more than itself, so the comparison covers
    // relaxed distances and not only infinities.
    EXPECT_GT(std::count_if(ref.begin(), ref.end(),
                            [](double d) { return std::isfinite(d); }),
              1000);
    ASSERT_EQ(ref.size(), sssp.distances().size());
    for (std::size_t v = 0; v < ref.size(); ++v)
        ASSERT_EQ(ref[v], sssp.distances()[v]) << "vertex " << v;
}

TEST(Workloads, RegistrySsspReachesPastItsSource)
{
    // At scale shift 6 (the fleet's, the elector's and the benchmark's
    // functional size) vertex 0 of the R-MAT graph has no out-edge, so
    // a run from it relaxes nothing and verifies on its initial state.
    auto workload = makeWorkload("SSSP", 6);
    workload->setup(4);
    MultiGpuSystem system(voltaPlatform());
    system.setFunctional(true);
    IdealRuntime runtime(system);
    runtime.run(*workload);
    EXPECT_TRUE(workload->verify());

    const auto &dist =
        dynamic_cast<const SsspWorkload &>(*workload).distances();
    EXPECT_GT(std::count_if(dist.begin(), dist.end(),
                            [](double d) { return std::isfinite(d); }),
              1);
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

namespace {

/**
 * ALS as AlsWorkload::setup() built it when set-up was eager: every
 * rating drawn into arrays, the user-major CSR and item-major CSC
 * scattered from them, the initial factors drawn, and SGD iterations
 * run one row at a time. Within an iteration each row update reads
 * only the other side's factors, so row order does not change a bit.
 */
struct EagerAls
{
    AlsWorkload::Params params;
    std::vector<std::int64_t> userOffsets, itemOffsets;
    std::vector<std::int32_t> userItems, itemUsers;
    std::vector<float> userRatings, itemRatings;
    std::vector<float> userFactors, itemFactors;

    explicit EagerAls(const AlsWorkload::Params &p) : params(p)
    {
        const std::int64_t users = p.numUsers;
        const std::int64_t items = p.numItems;
        const std::int64_t nnz = p.numRatings;
        const int k = p.rank;

        Rng rng(p.seed);
        std::vector<float> true_u(users * k), true_i(items * k);
        for (auto &v : true_u)
            v = static_cast<float>(rng.uniform());
        for (auto &v : true_i)
            v = static_cast<float>(rng.uniform());

        std::vector<std::int64_t> rating_users(nnz), rating_items(nnz);
        std::vector<float> rating_values(nnz);
        for (std::int64_t r = 0; r < nnz; ++r) {
            const auto u = static_cast<std::int64_t>(
                rng.below(static_cast<std::uint64_t>(users)));
            const auto i = static_cast<std::int64_t>(
                rng.below(static_cast<std::uint64_t>(items)));
            double dot = 0.0;
            for (int d = 0; d < k; ++d)
                dot += true_u[u * k + d] * true_i[i * k + d];
            rating_users[r] = u;
            rating_items[r] = i;
            rating_values[r] = static_cast<float>(
                dot / k + 0.05 * (rng.uniform() - 0.5));
        }

        scatter(users, rating_users, rating_items, rating_values,
                userOffsets, userItems, userRatings);
        scatter(items, rating_items, rating_users, rating_values,
                itemOffsets, itemUsers, itemRatings);

        userFactors.resize(users * k);
        itemFactors.resize(items * k);
        Rng init_rng(p.seed + 1);
        for (auto &v : userFactors)
            v = static_cast<float>(0.1 * init_rng.uniform());
        for (auto &v : itemFactors)
            v = static_cast<float>(0.1 * init_rng.uniform());
    }

    /** Counting-sort the ratings by @p rows_of into CSR arrays. */
    static void
    scatter(std::int64_t rows, const std::vector<std::int64_t> &rows_of,
            const std::vector<std::int64_t> &cols_of,
            const std::vector<float> &values,
            std::vector<std::int64_t> &offsets,
            std::vector<std::int32_t> &cols, std::vector<float> &vals)
    {
        offsets.assign(rows + 1, 0);
        for (const std::int64_t row : rows_of)
            ++offsets[row + 1];
        for (std::int64_t row = 0; row < rows; ++row)
            offsets[row + 1] += offsets[row];
        cols.resize(rows_of.size());
        vals.resize(rows_of.size());
        std::vector<std::int64_t> cursor(offsets.begin(),
                                         offsets.end() - 1);
        for (std::size_t r = 0; r < rows_of.size(); ++r) {
            const std::int64_t slot = cursor[rows_of[r]]++;
            cols[slot] = static_cast<std::int32_t>(cols_of[r]);
            vals[slot] = values[r];
        }
    }

    /** One SGD iteration: users on even @p iter, items on odd. */
    void
    iterate(int iter)
    {
        const bool user_side = iter % 2 == 0;
        const int k = params.rank;
        const auto lr = static_cast<float>(params.learningRate);
        const auto reg = static_cast<float>(params.regularization);
        const auto &offsets = user_side ? userOffsets : itemOffsets;
        const auto &others = user_side ? userItems : itemUsers;
        const auto &ratings = user_side ? userRatings : itemRatings;
        auto &mine = user_side ? userFactors : itemFactors;
        const auto &theirs = user_side ? itemFactors : userFactors;
        for (std::size_t row = 0; row + 1 < offsets.size(); ++row) {
            float *x = &mine[row * k];
            for (std::int64_t r = offsets[row]; r < offsets[row + 1];
                 ++r) {
                const float *y = &theirs[others[r] * k];
                float err = ratings[r];
                for (int d = 0; d < k; ++d)
                    err -= x[d] * y[d];
                for (int d = 0; d < k; ++d)
                    x[d] += lr * (err * y[d] - reg * x[d]);
            }
        }
    }

    double
    rmse() const
    {
        const int k = params.rank;
        double se = 0.0;
        for (std::int64_t u = 0; u < params.numUsers; ++u) {
            for (std::int64_t r = userOffsets[u]; r < userOffsets[u + 1];
                 ++r) {
                const float *xu = &userFactors[u * k];
                const float *yi = &itemFactors[userItems[r] * k];
                double pred = 0.0;
                for (int d = 0; d < k; ++d)
                    pred += xu[d] * yi[d];
                const double e = userRatings[r] - pred;
                se += e * e;
            }
        }
        return std::sqrt(se / static_cast<double>(params.numRatings));
    }
};

} // namespace

TEST(Workloads, AlsMatchesTheEagerSetUpBitwise)
{
    // The test size, and a shape with more items than users and an
    // odd rank, where swapping the two sides would show.
    AlsWorkload::Params square;
    square.numUsers = 1 << 10;
    square.numItems = 1 << 10;
    square.numRatings = 1 << 13;
    square.iterations = 4;
    AlsWorkload::Params oblong = square;
    oblong.numUsers = 1 << 9;
    oblong.numItems = 1 << 11;
    oblong.rank = 5;
    oblong.seed = 77;

    for (const AlsWorkload::Params &params : {square, oblong}) {
        for (const int gpus : {1, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << params.numUsers << "x" << params.numItems
                         << " rank " << params.rank << ", " << gpus
                         << " GPUs");
            EagerAls eager(params);
            AlsWorkload als(params);
            als.setup(gpus);
            EXPECT_EQ(als.userOffsets(), eager.userOffsets);
            EXPECT_EQ(als.itemOffsets(), eager.itemOffsets);
            EXPECT_FALSE(als.numericStateBuilt());
            EXPECT_EQ(std::bit_cast<std::uint64_t>(als.rmse()),
                      std::bit_cast<std::uint64_t>(eager.rmse()));

            MultiGpuSystem system(voltaPlatform().withGpuCount(gpus));
            IdealRuntime runtime(system);
            runtime.run(als);
            for (int iter = 0; iter < params.iterations; ++iter)
                eager.iterate(iter);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(als.rmse()),
                      std::bit_cast<std::uint64_t>(eager.rmse()));
            EXPECT_TRUE(als.verify());
        }
    }
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
