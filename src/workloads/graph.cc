#include "workloads/graph.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace proact {

namespace {

/** Vertex ids must fit the int32 inNeighbors (and uint32 edge lists). */
constexpr std::int64_t maxVertices = std::int64_t(1) << 31;

/**
 * Edge list as two parallel arrays of endpoints, in generation
 * order. 8 bytes per edge; vertex counts are bounded by maxVertices.
 */
struct EdgeList
{
    std::vector<std::uint32_t> src, dst;
};

/**
 * Sample params.numEdges R-MAT edges by recursive quadrant descent,
 * one draw per level, and call @p visit(e, src, dst) for each in
 * generation order. Each draw is compared with integer thresholds
 * that are exact for the cumulative probabilities a, a+b and a+b+c
 * (uniformThreshold), so it picks the same quadrant as comparing
 * Rng::uniform() with them. The probabilities are non-negative, so
 * the thresholds are ordered and the number a draw reaches is the
 * quadrant index q: 0 top-left, 1 top-right, 2 bottom-left, 3
 * bottom-right. q's high bit is the level's src bit, its low bit the
 * dst bit.
 *
 * uniform() reads the draw's top 53 bits, k = draw >> 11. A
 * threshold t is below 2^53 because validateRmat keeps a + b + c
 * below 1, so k >= t exactly when draw >= t << 11, and the
 * comparisons use the shifted thresholds and the raw draw.
 */
template <typename Visit>
void
sampleEdges(Rng &rng, const RmatParams &params, Visit &&visit)
{
    const int scale = std::bit_width(
        static_cast<std::uint64_t>(params.numVertices)) - 1;
    const std::uint64_t t1 = uniformThreshold(params.a) << 11;
    const std::uint64_t t2 = uniformThreshold(params.a + params.b) << 11;
    const std::uint64_t t3 =
        uniformThreshold(params.a + params.b + params.c) << 11;

    for (std::int64_t e = 0; e < params.numEdges; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (int level = 0; level < scale; ++level) {
            const std::uint64_t draw = rng();
            const std::uint32_t q =
                (draw >= t1) + (draw >= t2) + (draw >= t3);
            src = (src << 1) | (q >> 1);
            dst = (dst << 1) | (q & 1);
        }
        visit(e, src, dst);
    }
}

/**
 * Fisher-Yates permutation of the vertex labels, drawn after the
 * edges when params.shuffleVertices: label v becomes perm[v].
 */
std::vector<std::uint32_t>
shuffledLabels(Rng &rng, std::int64_t num_vertices)
{
    std::vector<std::uint32_t> perm(num_vertices);
    std::iota(perm.begin(), perm.end(), std::uint32_t(0));
    for (std::int64_t v = num_vertices - 1; v > 0; --v) {
        const auto j = rng.below(static_cast<std::uint64_t>(v + 1));
        std::swap(perm[v], perm[j]);
    }
    return perm;
}

Graph
buildCsr(std::int64_t num_vertices, const EdgeList &edges, Rng &rng,
         std::int32_t max_weight)
{
    const std::size_t num_edges = edges.src.size();
    Graph g;
    g.numVertices = num_vertices;
    g.outDegree.assign(num_vertices, 0);
    g.inOffsets.assign(num_vertices + 1, 0);

    for (std::size_t e = 0; e < num_edges; ++e) {
        ++g.outDegree[edges.src[e]];
        ++g.inOffsets[edges.dst[e] + 1];
    }
    for (std::int64_t v = 0; v < num_vertices; ++v)
        g.inOffsets[v + 1] += g.inOffsets[v];

    g.inNeighbors.resize(num_edges);
    g.inWeights.resize(num_edges);
    std::vector<std::int64_t> cursor(g.inOffsets.begin(),
                                     g.inOffsets.end() - 1);

    // Fill in deterministic edge order (generation order per dst).
    for (std::size_t e = 0; e < num_edges; ++e) {
        const std::int64_t slot = cursor[edges.dst[e]]++;
        g.inNeighbors[slot] = static_cast<std::int32_t>(edges.src[e]);
        g.inWeights[slot] = static_cast<float>(
            1 + rng.below(static_cast<std::uint64_t>(max_weight)));
    }
    return g;
}

/** Throw FatalError on parameters generateRmat must not run with. */
void
validateRmat(const RmatParams &params)
{
    if (params.numVertices <= 0 || params.numEdges <= 0)
        fatalError("generateRmat: empty graph requested");
    if (std::popcount(
            static_cast<std::uint64_t>(params.numVertices)) != 1) {
        fatalError("generateRmat: vertex count must be a power of 2, "
                   "got ", params.numVertices);
    }
    if (params.numVertices > maxVertices) {
        fatalError("generateRmat: at most 2^31 vertices, got ",
                   params.numVertices);
    }
    for (const double p : {params.a, params.b, params.c}) {
        if (!std::isfinite(p) || p < 0.0) {
            fatalError("generateRmat: quadrant probabilities must be "
                       "finite and non-negative, got ", p);
        }
    }
    const double sum = params.a + params.b + params.c;
    if (sum >= 1.0)
        fatalError("generateRmat: quadrant probabilities exceed 1");
    if (params.maxWeight < 1) {
        fatalError("generateRmat: max edge weight must be at least 1, "
                   "got ", params.maxWeight);
    }
}

} // namespace

Graph
generateRmat(const RmatParams &params)
{
    validateRmat(params);
    Rng rng(params.seed);

    EdgeList edges;
    edges.src.resize(params.numEdges);
    edges.dst.resize(params.numEdges);
    sampleEdges(rng, params,
                [&edges](std::int64_t e, std::uint32_t src,
                         std::uint32_t dst) {
                    edges.src[e] = src;
                    edges.dst[e] = dst;
                });

    if (params.shuffleVertices) {
        const auto perm = shuffledLabels(rng, params.numVertices);
        for (std::size_t e = 0; e < edges.src.size(); ++e) {
            edges.src[e] = perm[edges.src[e]];
            edges.dst[e] = perm[edges.dst[e]];
        }
    }

    return buildCsr(params.numVertices, edges, rng,
                    params.maxWeight);
}

std::vector<std::int64_t>
generateRmatInOffsets(const RmatParams &params)
{
    validateRmat(params);
    Rng rng(params.seed);

    // In-degree per generated destination label, one slot ahead so
    // the prefix sum turns the counts into offsets in place.
    std::vector<std::int64_t> offsets(params.numVertices + 1, 0);
    sampleEdges(rng, params,
                [&offsets](std::int64_t, std::uint32_t,
                           std::uint32_t dst) { ++offsets[dst + 1]; });

    if (params.shuffleVertices) {
        // Label v's edges land on vertex perm[v].
        const auto perm = shuffledLabels(rng, params.numVertices);
        std::vector<std::int64_t> counts(offsets.size(), 0);
        for (std::int64_t v = 0; v < params.numVertices; ++v)
            counts[perm[v] + 1] = offsets[v + 1];
        offsets.swap(counts);
    }

    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    return offsets;
}

std::shared_ptr<const std::vector<std::int64_t>>
GraphCache::inOffsets(const RmatParams &params)
{
    // Before the lookup: a NaN probability would break the map's
    // ordering.
    validateRmat(params);
    if (const auto it = _inputs.find(params); it != _inputs.end())
        return it->second.inOffsets;
    auto offsets = std::make_shared<const std::vector<std::int64_t>>(
        generateRmatInOffsets(params));
    _inputs.emplace(params, Input{offsets, nullptr});
    return offsets;
}

std::shared_ptr<const Graph>
GraphCache::graph(const RmatParams &params)
{
    validateRmat(params);
    const auto it = _inputs.find(params);
    if (it != _inputs.end() && it->second.graph)
        return it->second.graph;
    auto graph = std::make_shared<const Graph>(generateRmat(params));
    // Offsets handed out before stay with their holders; later
    // requests share the graph's own.
    Input &input = _inputs[params];
    input.inOffsets = {graph, &graph->inOffsets};
    input.graph = graph;
    return graph;
}

std::size_t
GraphCache::fullGraphs() const
{
    return static_cast<std::size_t>(std::count_if(
        _inputs.begin(), _inputs.end(),
        [](const auto &entry) { return entry.second.graph != nullptr; }));
}

std::shared_ptr<const std::vector<std::int64_t>>
rmatInOffsets(const RmatParams &params, GraphCache *cache)
{
    if (cache != nullptr)
        return cache->inOffsets(params);
    return std::make_shared<const std::vector<std::int64_t>>(
        generateRmatInOffsets(params));
}

std::shared_ptr<const Graph>
rmatGraph(const RmatParams &params, GraphCache *cache)
{
    if (cache != nullptr)
        return cache->graph(params);
    return std::make_shared<const Graph>(generateRmat(params));
}

Graph
generateRing(std::int64_t num_vertices, int degree)
{
    if (num_vertices <= 0 || num_vertices > maxVertices ||
        degree <= 0 || degree >= num_vertices) {
        fatalError("generateRing: invalid shape (", num_vertices,
                   " vertices, degree ", degree, ")");
    }

    EdgeList edges;
    edges.src.reserve(num_vertices * degree);
    edges.dst.reserve(num_vertices * degree);
    for (std::int64_t v = 0; v < num_vertices; ++v) {
        for (int k = 1; k <= degree; ++k) {
            edges.src.push_back(static_cast<std::uint32_t>(
                (v - k + num_vertices) % num_vertices));
            edges.dst.push_back(static_cast<std::uint32_t>(v));
        }
    }
    Rng rng(7);
    return buildCsr(num_vertices, edges, rng, 1);
}

std::vector<std::int64_t>
partitionByEdges(const std::vector<std::int64_t> &offsets, int num_parts)
{
    if (num_parts <= 0)
        fatalError("partitionByEdges: need at least one part");
    if (offsets.empty())
        fatalError("partitionByEdges: offsets need a leading 0");

    const auto rows = static_cast<std::int64_t>(offsets.size()) - 1;
    const std::int64_t total = offsets.back();
    std::vector<std::int64_t> bounds(num_parts + 1, 0);
    std::int64_t v = 0;
    for (int p = 1; p < num_parts; ++p) {
        const std::int64_t target = total * p / num_parts;
        while (v < rows && offsets[v] < target)
            ++v;
        bounds[p] = v;
    }
    bounds[num_parts] = rows;

    // Guarantee monotone non-decreasing boundaries even for highly
    // skewed graphs (a part may be empty, which callers tolerate).
    for (int p = 1; p <= num_parts; ++p)
        bounds[p] = std::max(bounds[p], bounds[p - 1]);
    return bounds;
}

std::vector<std::int64_t>
balanceByWeight(const std::vector<std::int64_t> &offsets,
                std::int64_t lo, std::int64_t hi,
                std::int64_t target_weight, std::int64_t max_rows)
{
    if (lo < 0 || hi < lo ||
        hi >= static_cast<std::int64_t>(offsets.size())) {
        fatalError("balanceByWeight: bad row range [", lo, ", ", hi,
                   ")");
    }
    target_weight = std::max<std::int64_t>(1, target_weight);
    max_rows = std::max<std::int64_t>(1, max_rows);

    std::vector<std::int64_t> bounds{lo};
    std::int64_t row = lo;
    while (row < hi) {
        const std::int64_t weight_cap = offsets[row] + target_weight;
        std::int64_t next = row;
        while (next < hi && next - row < max_rows &&
               offsets[next + 1] <= weight_cap) {
            ++next;
        }
        // Always take at least one row so hubs heavier than the
        // target still make progress.
        if (next == row)
            ++next;
        bounds.push_back(next);
        row = next;
    }
    if (bounds.back() != hi || bounds.size() == 1)
        bounds.push_back(hi);
    return bounds;
}

std::vector<std::vector<std::int64_t>>
balanceCtas(const std::vector<std::int64_t> &offsets,
            const std::vector<std::int64_t> &bounds, int rows_per_cta)
{
    std::vector<std::vector<std::int64_t>> ctas(bounds.size() - 1);
    for (std::size_t p = 0; p < ctas.size(); ++p) {
        const std::int64_t lo = bounds[p], hi = bounds[p + 1];
        const std::int64_t target_ctas =
            std::max<std::int64_t>(1, (hi - lo) / rows_per_cta);
        const std::int64_t weight = offsets[hi] - offsets[lo];
        ctas[p] = balanceByWeight(
            offsets, lo, hi,
            std::max<std::int64_t>(1, weight / target_ctas),
            4 * std::int64_t(rows_per_cta));
    }
    return ctas;
}

} // namespace proact
