/**
 * @file
 * PageRank workload (paper Sec. IV-C).
 *
 * Pull-style PageRank over a scale-free R-MAT graph (substituting
 * the paper's Wikipedia dump, see DESIGN.md): rank_new[v] =
 * (1-d)/N + d * sum_{u in in(v)} rank_old[u] / outdeg[u]. Vertices
 * are partitioned into contiguous ranges of roughly equal in-edge
 * counts; each iteration every GPU produces its slice of the rank
 * vector, which every peer reads next iteration. The heavy-tailed
 * in-neighbor accesses give the sporadic fine-grained update order
 * that makes inline P2P stores coalesce poorly and UM fault-thrash
 * (paper Secs. V-B and IV-B).
 */

#ifndef PROACT_WORKLOADS_PAGERANK_HH
#define PROACT_WORKLOADS_PAGERANK_HH

#include "workloads/graph.hh"
#include "workloads/workload.hh"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace proact {

/** Pull-based PageRank over R-MAT. */
class PagerankWorkload : public Workload
{
  public:
    struct Params
    {
        RmatParams graph{1 << 19, 1 << 24, 0.57, 0.19, 0.19, 42, 16};
        double damping = 0.85;
        int iterations = 10;
        int vertsPerCta = 256;
    };

    PagerankWorkload() : PagerankWorkload(Params{}) {}

    /**
     * With @p graphs, the workload takes its in-edge offsets and its
     * graph from that cache, which must outlive the workload; without,
     * it generates its own.
     */
    explicit PagerankWorkload(Params params, GraphCache *graphs = nullptr)
        : _params(params), _graphs(graphs)
    {}

    std::string name() const override { return "Pagerank"; }
    void setup(int num_gpus) override;
    int numIterations() const override { return _params.iterations; }
    Phase buildPhase(int iter) override;

    TrafficProfile
    traffic() const override
    {
        // Random update order: SM write coalescing largely fails and
        // remote stores hit the wire at element granularity.
        return TrafficProfile{8, false};
    }

    bool verify() const override;

    /** The rank vector; builds the numeric state. */
    const std::vector<double> &ranks() const { return numeric().rankNew; }

    /**
     * The input graph; builds the numeric state. Its inOffsets equal
     * the offsets setup() partitioned.
     */
    const Graph &graph() const { return *numeric().graph; }

    /**
     * Whether the graph and the rank vectors exist. setup() draws
     * only the in-edge offsets the footprints read; the graph and
     * the ranks are built on first functional use (a functional CTA,
     * graph(), ranks() or verify()), so timing-only runs never
     * generate the graph.
     */
    bool numericStateBuilt() const { return _numeric.has_value(); }

  private:
    /** The graph and the iterates. */
    struct Numeric
    {
        std::shared_ptr<const Graph> graph;
        std::vector<double> rankOld;
        std::vector<double> rankNew;
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

#endif // PROACT_WORKLOADS_PAGERANK_HH
