#include "workloads/sssp.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace proact {

namespace {
constexpr double inf = std::numeric_limits<double>::infinity();
} // namespace

void
SsspWorkload::setup(int num_gpus)
{
    if (num_gpus < 1)
        fatalError("SsspWorkload: need at least one GPU");
    _numGpus = num_gpus;

    _inOffsets = rmatInOffsets(_params.graph, _graphs);

    _bounds = partitionByEdges(*_inOffsets, num_gpus);
    _ctaBounds = balanceCtas(*_inOffsets, _bounds, _params.vertsPerCta);

    // A fresh run starts with only the source reached.
    _numeric.reset();
}

SsspWorkload::Numeric &
SsspWorkload::numeric() const
{
    if (_numeric)
        return *_numeric;

    Numeric num;
    num.graph = rmatGraph(_params.graph, _graphs);
    const std::vector<std::int32_t> &out = num.graph->outDegree;
    num.source = std::max_element(out.begin(), out.end()) - out.begin();
    num.distOld.assign(num.graph->numVertices, inf);
    num.distOld[num.source] = 0.0;
    num.distNew = num.distOld;
    return _numeric.emplace(std::move(num));
}

std::pair<std::int64_t, std::int64_t>
SsspWorkload::ctaVerts(int gpu, int cta) const
{
    return {_ctaBounds[gpu][cta], _ctaBounds[gpu][cta + 1]};
}

void
SsspWorkload::computeCta(int gpu, int cta)
{
    Numeric &num = numeric();
    const Graph &graph = *num.graph;
    const auto [lo, hi] = ctaVerts(gpu, cta);
    for (std::int64_t v = lo; v < hi; ++v) {
        double best = num.distOld[v];
        for (std::int64_t e = graph.inOffsets[v];
             e < graph.inOffsets[v + 1]; ++e) {
            const std::int32_t u = graph.inNeighbors[e];
            const double cand = num.distOld[u] + graph.inWeights[e];
            best = std::min(best, cand);
        }
        num.distNew[v] = best;
    }
}

CtaWork
SsspWorkload::ctaFootprint(int gpu, int cta) const
{
    const auto [lo, hi] = ctaVerts(gpu, cta);
    const auto verts = static_cast<double>(hi - lo);
    const auto edges =
        static_cast<double>((*_inOffsets)[hi] - (*_inOffsets)[lo]);

    CtaWork work;
    work.flops = 2.0 * edges;
    // Per edge: neighbor id (4B) + dist gather (8B) + weight (4B);
    // per vertex: offsets + old dist + new dist store.
    work.localBytes =
        static_cast<std::uint64_t>(edges * 16.0 + verts * 24.0);
    return work;
}

Phase
SsspWorkload::buildPhase(int iter)
{
    Phase p;
    p.perGpu.resize(_numGpus);

    // Double buffering by iteration parity, as in PageRank.
    if (iter > 0 && _numeric)
        std::swap(_numeric->distOld, _numeric->distNew);

    for (int g = 0; g < _numGpus; ++g) {
        const std::int64_t verts = _bounds[g + 1] - _bounds[g];
        const int num_ctas =
            static_cast<int>(_ctaBounds[g].size()) - 1;

        GpuPhaseWork &work = p.perGpu[g];
        work.kernel.name = "sssp_relax";
        work.kernel.numCtas = std::max(1, num_ctas);
        work.kernel.body = [this, g](const CtaContext &ctx) {
            if (ctx.functional)
                computeCta(g, ctx.ctaId);
            return ctaFootprint(g, ctx.ctaId);
        };
        work.bytesProduced = static_cast<std::uint64_t>(verts) * 8;

        const std::vector<std::int64_t> *cta_bounds = &_ctaBounds[g];
        const std::int64_t base = _bounds[g];
        work.ctaRange = [cta_bounds, base](int cta) {
            const std::uint64_t lo =
                ((*cta_bounds)[cta] - base) * 8;
            const std::uint64_t hi =
                ((*cta_bounds)[cta + 1] - base) * 8;
            return ByteRange{lo, hi};
        };
    }
    return p;
}

std::vector<double>
SsspWorkload::referenceDistances(int hops) const
{
    const Numeric &num = numeric();
    const Graph &graph = *num.graph;
    std::vector<double> dist(graph.numVertices, inf);
    std::vector<double> next(graph.numVertices, inf);
    dist[num.source] = 0.0;
    for (int round = 0; round < hops; ++round) {
        for (std::int64_t v = 0; v < graph.numVertices; ++v) {
            double best = dist[v];
            for (std::int64_t e = graph.inOffsets[v];
                 e < graph.inOffsets[v + 1]; ++e) {
                best = std::min(best, dist[graph.inNeighbors[e]]
                                          + graph.inWeights[e]);
            }
            next[v] = best;
        }
        dist.swap(next);
    }
    return dist;
}

bool
SsspWorkload::verify() const
{
    // The multi-GPU run performs exactly numIterations synchronous
    // relaxation rounds; the serial reference must agree bitwise.
    const std::vector<double> ref =
        referenceDistances(_params.iterations);
    const std::vector<double> &dist = distances();
    if (ref.size() != dist.size())
        return false;
    for (std::size_t v = 0; v < ref.size(); ++v) {
        if (ref[v] != dist[v])
            return false;
    }
    return dist[numeric().source] == 0.0;
}

} // namespace proact
