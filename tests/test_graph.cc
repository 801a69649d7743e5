/**
 * @file
 * Unit and property tests for the graph substrate.
 */

#include "workloads/graph.hh"

#include "sim/logging.hh"
#include "workloads/pagerank.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

using namespace proact;

namespace {

/**
 * Reference R-MAT generator: the straightforward scalar descent the
 * production generator must reproduce draw for draw. Each level
 * compares one Rng::uniform() against the cumulative quadrant
 * probabilities, edges are int64 pairs, and the vertex shuffle and
 * CSR fill consume the same stream afterwards.
 */
Graph
referenceRmat(const RmatParams &params)
{
    const int scale = std::bit_width(
        static_cast<std::uint64_t>(params.numVertices)) - 1;
    const double a = params.a, b = params.b, c = params.c;

    Rng rng(params.seed);
    std::vector<std::pair<std::int64_t, std::int64_t>> edges;
    for (std::int64_t e = 0; e < params.numEdges; ++e) {
        std::int64_t src = 0, dst = 0;
        for (int level = 0; level < scale; ++level) {
            const double r = rng.uniform();
            src <<= 1;
            dst <<= 1;
            if (r < a) {
            } else if (r < a + b) {
                dst |= 1;
            } else if (r < a + b + c) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        edges.emplace_back(src, dst);
    }

    if (params.shuffleVertices) {
        std::vector<std::int64_t> perm(params.numVertices);
        std::iota(perm.begin(), perm.end(), std::int64_t(0));
        for (std::int64_t v = params.numVertices - 1; v > 0; --v) {
            const auto j = static_cast<std::int64_t>(
                rng.below(static_cast<std::uint64_t>(v + 1)));
            std::swap(perm[v], perm[j]);
        }
        for (auto &[src, dst] : edges) {
            src = perm[src];
            dst = perm[dst];
        }
    }

    Graph g;
    g.numVertices = params.numVertices;
    g.outDegree.assign(params.numVertices, 0);
    g.inOffsets.assign(params.numVertices + 1, 0);
    for (const auto &[src, dst] : edges) {
        ++g.outDegree[src];
        ++g.inOffsets[dst + 1];
    }
    for (std::int64_t v = 0; v < params.numVertices; ++v)
        g.inOffsets[v + 1] += g.inOffsets[v];
    g.inNeighbors.resize(edges.size());
    g.inWeights.resize(edges.size());
    std::vector<std::int64_t> cursor(g.inOffsets.begin(),
                                     g.inOffsets.end() - 1);
    for (const auto &[src, dst] : edges) {
        const std::int64_t slot = cursor[dst]++;
        g.inNeighbors[slot] = static_cast<std::int32_t>(src);
        g.inWeights[slot] = static_cast<float>(
            1 + rng.below(static_cast<std::uint64_t>(params.maxWeight)));
    }
    return g;
}

/** Field-by-field equality; weights compare bit for bit. */
void
expectSameGraph(const Graph &got, const Graph &want)
{
    EXPECT_EQ(got.numVertices, want.numVertices);
    EXPECT_EQ(got.inOffsets, want.inOffsets);
    EXPECT_EQ(got.inNeighbors, want.inNeighbors);
    EXPECT_EQ(got.outDegree, want.outDegree);
    ASSERT_EQ(got.inWeights.size(), want.inWeights.size());
    for (std::size_t i = 0; i < got.inWeights.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.inWeights[i]),
                  std::bit_cast<std::uint32_t>(want.inWeights[i]))
            << "weight " << i;
    }
}

} // namespace

TEST(Graph, RingStructure)
{
    const Graph g = generateRing(10, 2);
    EXPECT_EQ(g.numVertices, 10);
    EXPECT_EQ(g.numEdges(), 20);
    for (std::int64_t v = 0; v < 10; ++v) {
        EXPECT_EQ(g.inDegree(v), 2);
        EXPECT_EQ(g.outDegree[v], 2);
    }
    // Vertex 0 receives edges from 8 and 9.
    std::vector<int> sources(g.inNeighbors.begin() + g.inOffsets[0],
                             g.inNeighbors.begin() + g.inOffsets[1]);
    std::sort(sources.begin(), sources.end());
    EXPECT_EQ(sources, (std::vector<int>{8, 9}));
}

TEST(Graph, RingRejectsBadShapes)
{
    EXPECT_THROW(generateRing(0, 1), FatalError);
    EXPECT_THROW(generateRing(4, 0), FatalError);
    EXPECT_THROW(generateRing(4, 4), FatalError);
    EXPECT_THROW(generateRing(std::int64_t(1) << 32, 1), FatalError);
}

TEST(Graph, RmatShapeAndConservation)
{
    RmatParams params;
    params.numVertices = 1 << 12;
    params.numEdges = 1 << 15;
    const Graph g = generateRmat(params);

    EXPECT_EQ(g.numVertices, params.numVertices);
    EXPECT_EQ(g.numEdges(), params.numEdges);
    // In-degrees and out-degrees both sum to the edge count.
    EXPECT_EQ(g.inOffsets.back(), params.numEdges);
    EXPECT_EQ(std::accumulate(g.outDegree.begin(), g.outDegree.end(),
                              std::int64_t(0)),
              params.numEdges);
    // Weights within the configured range.
    for (const float w : g.inWeights) {
        EXPECT_GE(w, 1.0f);
        EXPECT_LE(w, static_cast<float>(params.maxWeight));
    }
}

TEST(Graph, RmatDeterministicForSeed)
{
    RmatParams params;
    params.numVertices = 1 << 10;
    params.numEdges = 1 << 13;
    const Graph a = generateRmat(params);
    const Graph b = generateRmat(params);
    EXPECT_EQ(a.inOffsets, b.inOffsets);
    EXPECT_EQ(a.inNeighbors, b.inNeighbors);
    EXPECT_EQ(a.inWeights, b.inWeights);

    params.seed = 43;
    const Graph c = generateRmat(params);
    EXPECT_NE(a.inNeighbors, c.inNeighbors);
}

TEST(Graph, RmatIsSkewed)
{
    RmatParams params;
    params.numVertices = 1 << 14;
    params.numEdges = 1 << 17;
    params.shuffleVertices = false;
    const Graph g = generateRmat(params);
    std::int64_t max_deg = 0;
    for (std::int64_t v = 0; v < g.numVertices; ++v)
        max_deg = std::max(max_deg, g.inDegree(v));
    const double mean_deg = static_cast<double>(g.numEdges())
        / static_cast<double>(g.numVertices);
    EXPECT_GT(static_cast<double>(max_deg), 20.0 * mean_deg);
}

TEST(Graph, ShufflingBalancesContiguousRanges)
{
    RmatParams params;
    params.numVertices = 1 << 14;
    params.numEdges = 1 << 17;

    auto quarter_imbalance = [](const Graph &g) {
        const std::int64_t q = g.numVertices / 4;
        std::int64_t max_edges = 0;
        for (int p = 0; p < 4; ++p) {
            max_edges = std::max(
                max_edges, g.inOffsets[(p + 1) * q] - g.inOffsets[p * q]);
        }
        return static_cast<double>(max_edges)
            / (static_cast<double>(g.numEdges()) / 4.0);
    };

    params.shuffleVertices = false;
    const double skewed = quarter_imbalance(generateRmat(params));
    params.shuffleVertices = true;
    const double shuffled = quarter_imbalance(generateRmat(params));
    EXPECT_LT(shuffled, skewed);
    EXPECT_LT(shuffled, 1.2);
}

TEST(Graph, RmatMatchesReferenceGenerator)
{
    // The default probabilities, dyadic ones (every threshold is
    // exactly k * 2^-53) and a skewed set.
    const double probs[3][3] = {
        {0.57, 0.19, 0.19}, {0.5, 0.25, 0.125}, {0.7, 0.1, 0.1}};
    const std::int32_t max_weights[3] = {1, 16, 1000};

    // 36 cases visit every (probabilities, shuffle, maxWeight)
    // combination twice while the size walks 2^4..2^15 vertices at
    // edge factors 1..32.
    for (int n = 0; n < 36; ++n) {
        RmatParams params;
        params.numVertices = std::int64_t(1) << (4 + n % 12);
        params.numEdges = params.numVertices << (n / 6);
        params.a = probs[n % 3][0];
        params.b = probs[n % 3][1];
        params.c = probs[n % 3][2];
        params.shuffleVertices = (n / 3) % 2 == 1;
        params.maxWeight = max_weights[(n / 6) % 3];
        params.seed = deriveSeed(2024, static_cast<std::uint64_t>(n));
        SCOPED_TRACE(::testing::Message()
                     << "case " << n << ": " << params.numVertices
                     << " vertices, " << params.numEdges << " edges");
        expectSameGraph(generateRmat(params), referenceRmat(params));
    }
}

TEST(Graph, RmatMatchesReferenceAtBenchmarkPagerankSize)
{
    // Pagerank's registry graph at scale shift 4, seeded the way the
    // repository benchmark seeds it for seed 1 (stream index 2).
    RmatParams params = PagerankWorkload::Params{}.graph;
    params.numVertices >>= 4;
    params.numEdges >>= 4;
    params.seed = deriveSeed(1, 2);
    expectSameGraph(generateRmat(params), referenceRmat(params));
}

namespace {

/** One parameter set per way generateRmat rejects its input. */
std::vector<RmatParams>
invalidRmatParams()
{
    std::vector<RmatParams> sets;
    auto add = [&sets](auto change) {
        RmatParams params;
        params.numVertices = 1024;
        params.numEdges = 100;
        change(params);
        sets.push_back(params);
    };
    add([](RmatParams &p) { p.numVertices = 1000; }); // Not 2^k.
    add([](RmatParams &p) { p.numEdges = 0; });
    add([](RmatParams &p) {
        p.a = 0.5;
        p.b = 0.3;
        p.c = 0.3;
    });

    // Each probability must be finite and non-negative, even when
    // the sum stays below 1.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double bad_probs[][3] = {{nan, 0.19, 0.19},
                                   {0.57, nan, 0.19},
                                   {0.57, 0.19, nan},
                                   {-0.1, 0.19, 0.19},
                                   {0.57, -0.3, 0.19},
                                   {0.57, 0.19, -1.0},
                                   {0.57, 0.19, -inf},
                                   {inf, -inf, 0.19}};
    for (const auto &[a, b, c] : bad_probs) {
        add([a, b, c](RmatParams &p) {
            p.a = a;
            p.b = b;
            p.c = c;
        });
    }

    for (const std::int32_t w : {0, -1, -1000})
        add([w](RmatParams &p) { p.maxWeight = w; });

    // Vertex ids must fit in int32; rejected before anything is
    // allocated for the (here absurdly large) graph.
    add([](RmatParams &p) {
        p.numVertices = std::int64_t(1) << 32;
        p.numEdges = std::int64_t(1) << 40;
    });
    return sets;
}

/** The FatalError message @p body throws, or "" when it throws none. */
template <typename Body>
std::string
fatalMessage(Body &&body)
{
    try {
        body();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Graph, RmatRejectsInvalidParams)
{
    for (const RmatParams &params : invalidRmatParams()) {
        EXPECT_THROW(generateRmat(params), FatalError)
            << params.numVertices << " " << params.numEdges << " "
            << params.a << " " << params.b << " " << params.c << " "
            << params.maxWeight;
    }
    RmatParams valid;
    valid.numVertices = 1024;
    valid.numEdges = 100;
    EXPECT_NO_THROW(generateRmat(valid));
}

TEST(Graph, InOffsetsPassMatchesTheGraph)
{
    // 96 seeded cases: every vertex count from 2^1 to 2^16 six
    // times, with and without the shuffle, random probabilities
    // where each of a, b and c is zero a quarter of the time, and
    // one edge in every eighth case.
    Rng rng(deriveSeed(2026, 0));
    for (int n = 0; n < 96; ++n) {
        RmatParams params;
        params.numVertices = std::int64_t(1) << (1 + n % 16);
        params.numEdges = n % 8 == 3
            ? 1
            : 1 + static_cast<std::int64_t>(rng.below(static_cast<
                  std::uint64_t>(std::min<std::int64_t>(
                  4 * params.numVertices, 1 << 18))));
        double x[4];
        for (int q = 0; q < 3; ++q)
            x[q] = rng.below(4) == 0 ? 0.0 : rng.uniform();
        x[3] = 0.01 + rng.uniform();
        const double sum = x[0] + x[1] + x[2] + x[3];
        params.a = x[0] / sum;
        params.b = x[1] / sum;
        params.c = x[2] / sum;
        params.shuffleVertices = n % 2 == 0;
        params.maxWeight = 1 + static_cast<std::int32_t>(rng.below(20));
        params.seed = deriveSeed(2026, static_cast<std::uint64_t>(n) + 1);
        SCOPED_TRACE(::testing::Message()
                     << "case " << n << ": " << params.numVertices
                     << " vertices, " << params.numEdges << " edges, a="
                     << params.a << " b=" << params.b << " c="
                     << params.c);
        const std::vector<std::int64_t> offsets =
            generateRmatInOffsets(params);
        EXPECT_EQ(offsets, generateRmat(params).inOffsets);
        EXPECT_EQ(offsets.back(), params.numEdges);
    }

    // The smallest graph there is: two vertices, one edge.
    RmatParams tiny;
    tiny.numVertices = 2;
    tiny.numEdges = 1;
    EXPECT_EQ(generateRmatInOffsets(tiny), generateRmat(tiny).inOffsets);
}

TEST(Graph, InOffsetsPassMatchesAtBenchmarkPagerankSize)
{
    RmatParams params = PagerankWorkload::Params{}.graph;
    params.numVertices >>= 4;
    params.numEdges >>= 4;
    params.seed = deriveSeed(1, 2);
    EXPECT_EQ(generateRmatInOffsets(params),
              generateRmat(params).inOffsets);
}

TEST(Graph, InOffsetsPassRejectsWhatGenerateRmatRejects)
{
    for (const RmatParams &params : invalidRmatParams()) {
        const std::string want =
            fatalMessage([&] { generateRmat(params); });
        ASSERT_FALSE(want.empty());
        EXPECT_EQ(fatalMessage([&] { generateRmatInOffsets(params); }),
                  want);
    }
}

namespace {

/** A graph small enough to build dozens of times per test. */
RmatParams
smallRmat()
{
    RmatParams params;
    params.numVertices = 1 << 8;
    params.numEdges = 1 << 11;
    return params;
}

} // namespace

TEST(GraphCache, EqualParamsShareOneInput)
{
    GraphCache cache;
    const auto offsets = cache.inOffsets(smallRmat());
    EXPECT_EQ(cache.inOffsets(smallRmat()), offsets);
    const auto first = cache.graph(smallRmat());
    const auto second = cache.graph(smallRmat());
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.fullGraphs(), 1u);
}

TEST(GraphCache, OffsetsFirstThenTheGraphBuildsItOnce)
{
    GraphCache cache;
    const auto offsets = cache.inOffsets(smallRmat());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.fullGraphs(), 0u);

    const auto graph = cache.graph(smallRmat());
    EXPECT_EQ(cache.fullGraphs(), 1u);
    EXPECT_EQ(cache.graph(smallRmat()), graph);
    EXPECT_EQ(cache.fullGraphs(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(*offsets, graph->inOffsets);

    // From now on the offsets are the graph's own.
    EXPECT_EQ(cache.inOffsets(smallRmat()).get(), &graph->inOffsets);
}

TEST(GraphCache, GraphFirstThenTheOffsetsDrawsNothing)
{
    GraphCache cache;
    auto graph = cache.graph(smallRmat());
    const Graph *built = graph.get();
    const auto offsets = cache.inOffsets(smallRmat());
    // The offsets alias the graph: no second pass drew them.
    EXPECT_EQ(offsets.get(), &built->inOffsets);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.fullGraphs(), 1u);

    // They share the graph's ownership.
    graph.reset();
    cache = GraphCache();
    EXPECT_EQ(*offsets, generateRmat(smallRmat()).inOffsets);
}

TEST(GraphCache, EverySingleFieldChangeIsADistinctInput)
{
    // One variant per RmatParams field, each valid on its own.
    const std::vector<std::pair<const char *,
                                void (*)(RmatParams &)>> variants = {
        {"numVertices", [](RmatParams &p) { p.numVertices <<= 1; }},
        {"numEdges", [](RmatParams &p) { p.numEdges <<= 1; }},
        {"a", [](RmatParams &p) { p.a = 0.5; }},
        {"b", [](RmatParams &p) { p.b = 0.2; }},
        {"c", [](RmatParams &p) { p.c = 0.2; }},
        {"seed", [](RmatParams &p) { ++p.seed; }},
        {"maxWeight", [](RmatParams &p) { ++p.maxWeight; }},
        {"shuffleVertices",
         [](RmatParams &p) { p.shuffleVertices = !p.shuffleVertices; }},
    };

    // Every input stays held, so no address is reused.
    GraphCache cache;
    std::vector<std::shared_ptr<const std::vector<std::int64_t>>> offsets =
        {cache.inOffsets(smallRmat())};
    std::vector<std::shared_ptr<const Graph>> graphs = {
        cache.graph(smallRmat())};
    for (const auto &[field, change] : variants) {
        RmatParams params = smallRmat();
        change(params);
        const auto offset = cache.inOffsets(params);
        const auto graph = cache.graph(params);
        for (const auto &other : offsets)
            EXPECT_NE(offset, other) << field;
        for (const auto &other : graphs)
            EXPECT_NE(graph, other) << field;
        offsets.push_back(offset);
        graphs.push_back(graph);
    }
    EXPECT_EQ(cache.size(), variants.size() + 1);
    EXPECT_EQ(cache.fullGraphs(), variants.size() + 1);
}

TEST(GraphCache, CachedInputsEqualFreshBuilds)
{
    GraphCache cache;
    for (const bool shuffle : {true, false}) {
        RmatParams params = smallRmat();
        params.shuffleVertices = shuffle;
        EXPECT_EQ(*cache.inOffsets(params),
                  generateRmat(params).inOffsets);
        expectSameGraph(*cache.graph(params), generateRmat(params));
        // A hit returns the same contents.
        expectSameGraph(*cache.graph(params), generateRmat(params));
    }
    EXPECT_EQ(cache.size(), 2u);
}

TEST(GraphCache, RejectsInvalidParamsAndCachesNothing)
{
    RmatParams nan_a = smallRmat();
    nan_a.a = std::numeric_limits<double>::quiet_NaN();
    RmatParams no_weight = smallRmat();
    no_weight.maxWeight = 0;
    RmatParams odd_vertices = smallRmat();
    odd_vertices.numVertices = 1000;

    GraphCache cache;
    for (const RmatParams &params : {nan_a, no_weight, odd_vertices}) {
        EXPECT_THROW(cache.graph(params), FatalError);
        // A second request is checked again, not served from a slot
        // the first left behind.
        EXPECT_THROW(cache.graph(params), FatalError);
        EXPECT_THROW(cache.inOffsets(params), FatalError);
        EXPECT_EQ(cache.size(), 0u);
    }
    EXPECT_THROW(rmatGraph(nan_a, &cache), FatalError);
    EXPECT_THROW(rmatInOffsets(nan_a, &cache), FatalError);
    EXPECT_EQ(cache.size(), 0u);

    // A NaN compares unordered with every key, so a lookup before
    // the check would match the input already cached.
    cache.inOffsets(smallRmat());
    EXPECT_THROW(cache.inOffsets(nan_a), FatalError);
    EXPECT_THROW(cache.graph(nan_a), FatalError);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.fullGraphs(), 0u);
}

TEST(GraphCache, WorkloadsBuiltAgainstOneCacheShareTheirGraph)
{
    GraphCache cache;
    PagerankWorkload::Params params;
    params.graph = smallRmat();
    PagerankWorkload first(params, &cache);
    PagerankWorkload second(params, &cache);
    first.setup(2);
    second.setup(4);
    // Set-up draws the offsets only.
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.fullGraphs(), 0u);
    EXPECT_EQ(&first.graph(), &second.graph());
    EXPECT_EQ(cache.fullGraphs(), 1u);

    // Without a cache each workload builds its own, equal, graph.
    PagerankWorkload own(params);
    own.setup(2);
    EXPECT_NE(&own.graph(), &first.graph());
    expectSameGraph(own.graph(), first.graph());
}

TEST(Graph, PartitionByEdgesBalances)
{
    RmatParams params;
    params.numVertices = 1 << 13;
    params.numEdges = 1 << 16;
    const Graph g = generateRmat(params);
    const auto bounds = partitionByEdges(g.inOffsets, 4);

    ASSERT_EQ(bounds.size(), 5u);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), g.numVertices);
    for (int p = 0; p < 4; ++p) {
        ASSERT_LE(bounds[p], bounds[p + 1]);
        const double share = static_cast<double>(
            g.inOffsets[bounds[p + 1]] - g.inOffsets[bounds[p]]);
        EXPECT_NEAR(share / static_cast<double>(g.numEdges()), 0.25,
                    0.08);
    }
}

TEST(Graph, PartitionSinglePart)
{
    const Graph g = generateRing(100, 2);
    const auto bounds = partitionByEdges(g.inOffsets, 1);
    EXPECT_EQ(bounds, (std::vector<std::int64_t>{0, 100}));
    EXPECT_THROW(partitionByEdges(g.inOffsets, 0), FatalError);
    EXPECT_THROW(partitionByEdges({}, 2), FatalError);
}

TEST(Graph, BalanceByWeightRespectsTargets)
{
    const Graph g = generateRing(1000, 4); // Uniform weight 4/row.
    const auto bounds =
        balanceByWeight(g.inOffsets, 0, 1000, 40, 100);
    // 40 weight / 4 per row = 10 rows per CTA.
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), 1000);
    for (std::size_t i = 1; i + 1 < bounds.size(); ++i)
        EXPECT_EQ(bounds[i] - bounds[i - 1], 10);
}

TEST(Graph, BalanceByWeightCapsRows)
{
    std::vector<std::int64_t> offsets(101, 0); // All-zero weights.
    const auto bounds = balanceByWeight(offsets, 0, 100, 1000, 25);
    // Weight never binds; the row cap does.
    ASSERT_EQ(bounds.size(), 5u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_EQ(bounds[i] - bounds[i - 1], 25);
}

TEST(Graph, BalanceByWeightHandlesHeavyRows)
{
    // One row heavier than the target still forms its own CTA.
    std::vector<std::int64_t> offsets = {0, 1000, 1001, 1002};
    const auto bounds = balanceByWeight(offsets, 0, 3, 10, 100);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), 3);
    EXPECT_EQ(bounds[1], 1); // Heavy row isolated.
}

TEST(Graph, BalanceByWeightEmptyRange)
{
    std::vector<std::int64_t> offsets = {0, 1, 2};
    const auto bounds = balanceByWeight(offsets, 1, 1, 10, 10);
    ASSERT_EQ(bounds.size(), 2u);
    EXPECT_EQ(bounds[0], 1);
    EXPECT_EQ(bounds[1], 1);
    EXPECT_THROW(balanceByWeight(offsets, 2, 1, 10, 10), FatalError);
}
