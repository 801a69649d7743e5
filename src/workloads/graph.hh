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

    /** Incoming edges of the vertex range [lo, hi). */
    std::int64_t
    edgesInRange(std::int64_t lo, std::int64_t hi) const
    {
        return inOffsets[hi] - inOffsets[lo];
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
 * R-MAT graphs shared by every workload built against one cache,
 * keyed by their parameters. Each distinct input is generated once
 * and stays alive as long as the cache does. A FleetSession owns one
 * for its elector and its tenants; a cache is never process-wide
 * (DESIGN.md §11). Not thread-safe: one thread uses a cache at a
 * time.
 */
class GraphCache
{
  public:
    /**
     * The graph generateRmat(@p params) builds, generated on the
     * first request for these parameters and shared afterwards.
     * Throws FatalError, and caches nothing, on parameters
     * generateRmat rejects; they are checked before the lookup.
     */
    std::shared_ptr<const Graph> get(const RmatParams &params);

    /** Distinct graphs held. */
    std::size_t size() const { return _graphs.size(); }

  private:
    std::map<RmatParams, std::shared_ptr<const Graph>> _graphs;
};

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
 * Partition [0, numVertices) into contiguous ranges with roughly
 * equal incoming-edge counts (load balance across GPUs).
 * @return num_parts+1 boundaries, first 0 and last numVertices.
 */
std::vector<std::int64_t>
partitionByEdges(const Graph &graph, int num_parts);

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

} // namespace proact

#endif // PROACT_WORKLOADS_GRAPH_HH
