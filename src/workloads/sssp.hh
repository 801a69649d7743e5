/**
 * @file
 * Single-Source Shortest Path workload (paper Sec. IV-C).
 *
 * Synchronous Bellman-Ford over a weighted R-MAT graph (substituting
 * the paper's HV15R matrix, see DESIGN.md): each iteration every
 * vertex recomputes dist_new[v] = min(dist_old[v], min over incoming
 * edges (u,v) of dist_old[u] + w(u,v)). Iterating V-1 times yields
 * exact shortest paths; the evaluated runs use a fixed iteration
 * budget, matching the paper's deterministic-store requirement
 * (every vertex writes every iteration). Verified against a serial
 * reference limited to the same hop count.
 */

#ifndef PROACT_WORKLOADS_SSSP_HH
#define PROACT_WORKLOADS_SSSP_HH

#include "workloads/graph.hh"
#include "workloads/workload.hh"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace proact {

/** Synchronous Bellman-Ford SSSP. */
class SsspWorkload : public Workload
{
  public:
    struct Params
    {
        RmatParams graph{1 << 19, 1 << 24, 0.57, 0.19, 0.19, 97, 16};
        int iterations = 10;
        int vertsPerCta = 256;
    };

    SsspWorkload() : SsspWorkload(Params{}) {}

    /**
     * With @p graphs, the workload takes its in-edge offsets and its
     * graph from that cache, which must outlive the workload; without,
     * it generates its own.
     */
    explicit SsspWorkload(Params params, GraphCache *graphs = nullptr)
        : _params(params), _graphs(graphs)
    {}

    std::string name() const override { return "SSSP"; }
    void setup(int num_gpus) override;
    int numIterations() const override { return _params.iterations; }
    Phase buildPhase(int iter) override;

    TrafficProfile
    traffic() const override
    {
        // Distance updates land in data-dependent order.
        return TrafficProfile{8, false};
    }

    bool verify() const override;

    /** The distance vector; builds the numeric state. */
    const std::vector<double> &distances() const { return numeric().distNew; }

    /**
     * Serial Bellman-Ford limited to @p hops relaxation rounds;
     * builds the numeric state.
     */
    std::vector<double> referenceDistances(int hops) const;

    /**
     * Whether the graph and the distance vectors exist. setup() draws
     * only the in-edge offsets the footprints read; the graph and
     * the distances are built on first functional use (a functional
     * CTA, distances(), referenceDistances() or verify()), so
     * timing-only runs never generate the graph.
     */
    bool numericStateBuilt() const { return _numeric.has_value(); }

  private:
    /** The graph and the iterates. */
    struct Numeric
    {
        std::shared_ptr<const Graph> graph;

        /**
         * The vertex with the highest out-degree, lowest id on ties:
         * R-MAT leaves many vertices with no out-edge, and a source
         * among them would reach nothing.
         */
        std::int64_t source = 0;

        std::vector<double> distOld;
        std::vector<double> distNew;
    };

    Params _params;
    GraphCache *_graphs;

    /** The graph's in-edge offsets: all the footprints read. */
    std::shared_ptr<const std::vector<std::int64_t>> _inOffsets;

    /** Built by numeric(), which const accessors call too. */
    mutable std::optional<Numeric> _numeric;

    std::vector<std::int64_t> _bounds;

    /** Edge-balanced CTA boundaries per GPU (within its range). */
    std::vector<std::vector<std::int64_t>> _ctaBounds;

    /** The numeric state, built on the first call after setup(). */
    Numeric &numeric() const;
    void computeCta(int gpu, int cta);
    CtaWork ctaFootprint(int gpu, int cta) const;
    std::pair<std::int64_t, std::int64_t> ctaVerts(int gpu,
                                                   int cta) const;
};

} // namespace proact

#endif // PROACT_WORKLOADS_SSSP_HH
