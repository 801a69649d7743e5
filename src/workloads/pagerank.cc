#include "workloads/pagerank.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <cmath>

namespace proact {

void
PagerankWorkload::setup(int num_gpus)
{
    if (num_gpus < 1)
        fatalError("PagerankWorkload: need at least one GPU");
    _numGpus = num_gpus;

    _inOffsets = rmatInOffsets(_params.graph, _graphs);
    _bounds = partitionByEdges(*_inOffsets, num_gpus);
    // Edge-balanced CTA assignment (hubs would otherwise serialize
    // whole kernels behind one monster CTA).
    _ctaBounds = balanceCtas(*_inOffsets, _bounds, _params.vertsPerCta);

    // A fresh run starts from the uniform distribution.
    _numeric.reset();
}

PagerankWorkload::Numeric &
PagerankWorkload::numeric() const
{
    if (_numeric)
        return *_numeric;

    Numeric num;
    num.graph = rmatGraph(_params.graph, _graphs);
    const std::int64_t n = num.graph->numVertices;
    num.rankOld.assign(n, 1.0 / static_cast<double>(n));
    // Iteration 0 writes all of rankNew before any iteration reads
    // it. Starting equal to rankOld, it makes the parity swaps of a
    // timing-only run no-ops even when graph() or ranks() built the
    // state first.
    num.rankNew = num.rankOld;
    return _numeric.emplace(std::move(num));
}

std::pair<std::int64_t, std::int64_t>
PagerankWorkload::ctaVerts(int gpu, int cta) const
{
    return {_ctaBounds[gpu][cta], _ctaBounds[gpu][cta + 1]};
}

void
PagerankWorkload::computeCta(int gpu, int cta)
{
    Numeric &num = numeric();
    const Graph &graph = *num.graph;
    const auto [lo, hi] = ctaVerts(gpu, cta);
    const double base = (1.0 - _params.damping)
        / static_cast<double>(graph.numVertices);
    for (std::int64_t v = lo; v < hi; ++v) {
        double acc = 0.0;
        for (std::int64_t e = graph.inOffsets[v];
             e < graph.inOffsets[v + 1]; ++e) {
            const std::int32_t u = graph.inNeighbors[e];
            const std::int32_t deg = graph.outDegree[u];
            if (deg > 0)
                acc += num.rankOld[u] / static_cast<double>(deg);
        }
        num.rankNew[v] = base + _params.damping * acc;
    }
}

CtaWork
PagerankWorkload::ctaFootprint(int gpu, int cta) const
{
    const auto [lo, hi] = ctaVerts(gpu, cta);
    const auto verts = static_cast<double>(hi - lo);
    const auto edges =
        static_cast<double>((*_inOffsets)[hi] - (*_inOffsets)[lo]);

    CtaWork work;
    work.flops = 2.0 * edges + 2.0 * verts;
    // Per edge: neighbor id (4B), rank_old gather (8B), outdeg (4B);
    // per vertex: offsets (8B) + rank_new store (8B).
    work.localBytes =
        static_cast<std::uint64_t>(edges * 16.0 + verts * 16.0);
    return work;
}

Phase
PagerankWorkload::buildPhase(int iter)
{
    Phase p;
    p.perGpu.resize(_numGpus);

    // Double buffering by iteration parity: iteration i reads the
    // ranks iteration i-1 wrote. Before the numeric state exists
    // there is nothing to swap.
    if (iter > 0 && _numeric)
        std::swap(_numeric->rankOld, _numeric->rankNew);

    for (int g = 0; g < _numGpus; ++g) {
        const std::int64_t verts = _bounds[g + 1] - _bounds[g];
        const int num_ctas =
            static_cast<int>(_ctaBounds[g].size()) - 1;

        GpuPhaseWork &work = p.perGpu[g];
        work.kernel.name = "pagerank_pull";
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

bool
PagerankWorkload::verify() const
{
    // Dangling vertices leak mass, so the sum lies in
    // ((1 - d), 1]; it must be finite, positive everywhere, and the
    // distribution must no longer be uniform after iterating.
    const std::vector<double> &ranks = numeric().rankNew;
    double sum = 0.0, max_rank = 0.0;
    for (const double r : ranks) {
        if (!std::isfinite(r) || r < 0.0)
            return false;
        sum += r;
        max_rank = std::max(max_rank, r);
    }
    const double uniform =
        1.0 / static_cast<double>(ranks.size());
    return sum > 1.0 - _params.damping && sum <= 1.0 + 1e-9
        && max_rank > 2.0 * uniform;
}

} // namespace proact
