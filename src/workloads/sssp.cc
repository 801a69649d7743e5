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

    _graph = rmatGraph(_params.graph, _graphs);
    if (_params.source < 0 || _params.source >= _graph->numVertices)
        fatalError("SsspWorkload: source vertex out of range");

    _distOld.assign(_graph->numVertices, inf);
    _distNew.assign(_graph->numVertices, inf);
    _distOld[_params.source] = 0.0;
    _distNew[_params.source] = 0.0;
    _bounds = partitionByEdges(*_graph, num_gpus);

    _ctaBounds.resize(num_gpus);
    for (int g = 0; g < num_gpus; ++g) {
        const std::int64_t verts = _bounds[g + 1] - _bounds[g];
        const std::int64_t target_ctas = std::max<std::int64_t>(
            1, verts / _params.vertsPerCta);
        const std::int64_t edges =
            _graph->edgesInRange(_bounds[g], _bounds[g + 1]);
        _ctaBounds[g] = balanceByWeight(
            _graph->inOffsets, _bounds[g], _bounds[g + 1],
            std::max<std::int64_t>(1, edges / target_ctas),
            4 * _params.vertsPerCta);
    }
}

std::pair<std::int64_t, std::int64_t>
SsspWorkload::ctaVerts(int gpu, int cta) const
{
    return {_ctaBounds[gpu][cta], _ctaBounds[gpu][cta + 1]};
}

void
SsspWorkload::computeCta(int gpu, int cta)
{
    const auto [lo, hi] = ctaVerts(gpu, cta);
    for (std::int64_t v = lo; v < hi; ++v) {
        double best = _distOld[v];
        for (std::int64_t e = _graph->inOffsets[v];
             e < _graph->inOffsets[v + 1]; ++e) {
            const std::int32_t u = _graph->inNeighbors[e];
            const double cand =
                _distOld[u] + _graph->inWeights[e];
            best = std::min(best, cand);
        }
        _distNew[v] = best;
    }
}

CtaWork
SsspWorkload::ctaFootprint(int gpu, int cta) const
{
    const auto [lo, hi] = ctaVerts(gpu, cta);
    const auto verts = static_cast<double>(hi - lo);
    const auto edges =
        static_cast<double>(_graph->edgesInRange(lo, hi));

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

    if (iter > 0)
        std::swap(_distOld, _distNew);

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
    std::vector<double> dist(_graph->numVertices, inf);
    std::vector<double> next(_graph->numVertices, inf);
    dist[_params.source] = 0.0;
    for (int round = 0; round < hops; ++round) {
        for (std::int64_t v = 0; v < _graph->numVertices; ++v) {
            double best = dist[v];
            for (std::int64_t e = _graph->inOffsets[v];
                 e < _graph->inOffsets[v + 1]; ++e) {
                best = std::min(best, dist[_graph->inNeighbors[e]]
                                          + _graph->inWeights[e]);
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
    if (ref.size() != _distNew.size())
        return false;
    for (std::size_t v = 0; v < ref.size(); ++v) {
        if (ref[v] != _distNew[v])
            return false;
    }
    return _distNew[_params.source] == 0.0;
}

} // namespace proact
