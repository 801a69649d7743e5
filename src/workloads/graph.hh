/**
 * @file
 * Graph substrate for the irregular workloads (PageRank, SSSP, ALS).
 *
 * The paper evaluates on Wikipedia and HV15R (UF sparse collection);
 * neither ships with this repository, so we substitute a synthetic
 * R-MAT (Kronecker) generator, which reproduces the heavy-tailed
 * degree distribution and community structure that drive the
 * irregular access patterns (see DESIGN.md). Graphs are stored in
 * CSR over incoming edges (pull-style iteration) with deterministic
 * generation from a seed.
 */

#ifndef PROACT_WORKLOADS_GRAPH_HH
#define PROACT_WORKLOADS_GRAPH_HH

#include "sim/random.hh"

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace proact {

/** Directed graph in incoming-edge CSR form. */
struct Graph
{
    std::int64_t numVertices = 0;

    /** CSR row offsets over incoming edges, size numVertices+1. */
    std::vector<std::int64_t> inOffsets;

    /** Source vertex of each incoming edge. */
    std::vector<std::int32_t> inNeighbors;

    /** Edge weights aligned with inNeighbors (for SSSP). */
    std::vector<float> inWeights;

    /** Out-degree per vertex (for PageRank normalization). */
    std::vector<std::int32_t> outDegree;

    std::int64_t numEdges() const
    {
        return static_cast<std::int64_t>(inNeighbors.size());
    }

    std::int64_t
    inDegree(std::int64_t v) const
    {
        return inOffsets[v + 1] - inOffsets[v];
    }
};

/** R-MAT generator parameters. */
struct RmatParams
{
    std::int64_t numVertices = 1 << 18;
    std::int64_t numEdges = 1 << 21;

    /** Kronecker quadrant probabilities (a+b+c+d == 1). */
    double a = 0.57, b = 0.19, c = 0.19;

    std::uint64_t seed = 42;

    /** Max edge weight (weights uniform in [1, maxWeight]). */
    std::int32_t maxWeight = 16;

    /**
     * Relabel vertices by a random permutation. Kronecker generation
     * clusters hubs at low ids; shuffling spreads them so contiguous
     * range partitions are balanced in both edges and vertices (the
     * standard hash-partitioning practice real frameworks use).
     */
    bool shuffleVertices = true;

    /**
     * Field by field, so equal parameters key one GraphCache entry.
     * The order is partial: a NaN probability compares unordered.
     */
    auto operator<=>(const RmatParams &) const = default;
};

/**
 * Generate a deterministic R-MAT graph in incoming-edge CSR form.
 * Self-loops are permitted; multi-edges are kept (they only skew
 * weights slightly and keep generation O(E)).
 *
 * Throws FatalError, before allocating, unless the vertex count is a
 * power of two no larger than 2^31, there is at least one edge, a, b
 * and c are finite and non-negative with a + b + c < 1, and
 * maxWeight >= 1.
 */
Graph generateRmat(const RmatParams &params);

/**
 * generateRmat(@p params).inOffsets without the graph. It makes the
 * same draws in the same order (each edge's quadrant draws, then the
 * vertex permutation) but only counts edges per destination, so it
 * allocates the offsets and the permutation and no edge list,
 * neighbours, weights or out-degrees. Throws the FatalErrors
 * generateRmat throws.
 */
std::vector<std::int64_t> generateRmatInOffsets(const RmatParams &params);

/**
 * R-MAT inputs shared by every workload built against one cache,
 * keyed by their parameters: the in-edge offsets a timing-only
 * set-up reads, and the full graph a functional run reads. Each is
 * generated on its first request and held until the cache is
 * destroyed; once a graph is held, the offsets of its parameters are
 * the graph's own, so they are never drawn twice. A FleetSession owns
 * one for its elector and its tenants; a cache is never process-wide
 * (DESIGN.md §11). Not thread-safe: one thread uses a cache at a
 * time.
 *
 * Every request checks the parameters before the lookup and throws
 * FatalError, caching nothing, on a set generateRmat rejects.
 */
class GraphCache
{
  public:
    /** generateRmatInOffsets(@p params), shared. */
    std::shared_ptr<const std::vector<std::int64_t>>
    inOffsets(const RmatParams &params);

    /** generateRmat(@p params), shared. */
    std::shared_ptr<const Graph> graph(const RmatParams &params);

    /** Distinct inputs drawn, as offsets or as a graph. */
    std::size_t size() const { return _inputs.size(); }

    /** Distinct inputs held as a full graph. */
    std::size_t fullGraphs() const;

  private:
    struct Input
    {
        std::shared_ptr<const std::vector<std::int64_t>> inOffsets;
        std::shared_ptr<const Graph> graph;
    };

    std::map<RmatParams, Input> _inputs;
};

/**
 * generateRmatInOffsets(@p params) from @p cache when there is one,
 * else fresh offsets the caller alone holds.
 */
std::shared_ptr<const std::vector<std::int64_t>>
rmatInOffsets(const RmatParams &params, GraphCache *cache);

/**
 * generateRmat(@p params) from @p cache when there is one, else a
 * fresh graph the caller alone holds.
 */
std::shared_ptr<const Graph> rmatGraph(const RmatParams &params,
                                       GraphCache *cache);

/**
 * Uniform-degree ring-like graph (each vertex receives edges from
 * its @p degree predecessors). Deterministic; used by tests needing
 * hand-checkable structure.
 */
Graph generateRing(std::int64_t num_vertices, int degree);

/**
 * Partition the rows of a CSR offsets array (in-edges, ratings, ...)
 * into @p num_parts contiguous ranges of roughly equal weight (load
 * balance across GPUs).
 * @return num_parts+1 boundaries, first 0 and last the row count.
 */
std::vector<std::int64_t>
partitionByEdges(const std::vector<std::int64_t> &offsets, int num_parts);

/**
 * Split rows [lo, hi) into CTA ranges balanced by the weight implied
 * by a CSR offsets array (edges, ratings, ...): a new CTA starts once
 * the running weight reaches @p target_weight or the range reaches
 * @p max_rows rows. This is the standard GPU practice of
 * edge-balanced thread-block assignment; without it, scale-free hubs
 * produce monster CTAs that serialize the kernel.
 *
 * @return CTA boundaries within [lo, hi], first lo and last hi.
 */
std::vector<std::int64_t>
balanceByWeight(const std::vector<std::int64_t> &offsets,
                std::int64_t lo, std::int64_t hi,
                std::int64_t target_weight, std::int64_t max_rows);

/**
 * balanceByWeight over each part [bounds[p], bounds[p+1]) of a
 * partitionByEdges() partition: a CTA takes about @p rows_per_cta
 * rows' share of its part's weight, and at most 4 * @p rows_per_cta
 * rows.
 * @return CTA boundaries per part.
 */
std::vector<std::vector<std::int64_t>>
balanceCtas(const std::vector<std::int64_t> &offsets,
            const std::vector<std::int64_t> &bounds, int rows_per_cta);

} // namespace proact

#endif // PROACT_WORKLOADS_GRAPH_HH
