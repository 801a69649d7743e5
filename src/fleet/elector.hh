/**
 * @file
 * Per-tenant strategy election from a persistent profiler cache.
 *
 * Each admitted tenant needs a paradigm (PROACT inline vs decoupled)
 * and a TransferConfig tuned for the fabric slice it was placed on.
 * The elector keys results on (workload, gpus, shareCount): a cache
 * hit costs nothing; a miss runs a *narrowed* profiler sweep (CDP at
 * the five smallest granularities and thread counts of the paper's
 * sweeps, plus inline) on a bandwidth-scaled copy of the platform,
 * then memoizes the winner for every later tenant of the same shape.
 */

#ifndef PROACT_FLEET_ELECTOR_HH
#define PROACT_FLEET_ELECTOR_HH

#include "harness/paradigm.hh"
#include "proact/config.hh"
#include "sim/stats.hh"
#include "system/platform.hh"
#include "workloads/graph.hh"

#include <map>
#include <string>

namespace proact::fleet {

/** One elected serving strategy. */
struct Election
{
    Paradigm paradigm = Paradigm::ProactDecoupled;
    TransferConfig config;

    /** Served from the cache (no sweep ran for this request). */
    bool cacheHit = false;

    /**
     * Simulated cost of the sweep that produced this election
     * (ProfileResult::sweepTicks); 0 on a cache hit. Fleet sessions
     * charging elections to the timeline stall the tenant's start by
     * this much — closing ROADMAP gap (a) for cache-miss sweeps.
     */
    Tick sweepCost = 0;
};

/** Caching (workload, gpus, shareCount) -> strategy elector. */
class StrategyElector
{
  public:
    struct Options
    {
        /**
         * Scale shift of the short profiling instance (the election
         * optimizes communication ratios, which are scale-invariant
         * by construction, so a heavily scaled-down instance elects
         * the same winner at a fraction of the cost).
         */
        int scaleShift = 6;
    };

    /**
     * With @p graphs, the profiling instances take their R-MAT inputs
     * from that cache, which must outlive the elector.
     */
    StrategyElector(PlatformSpec platform, Options options,
                    GraphCache *graphs = nullptr);

    /** Same, with default Options (overload: a nested class's member
     * initializers cannot appear in a default argument). */
    explicit StrategyElector(PlatformSpec platform);

    /**
     * Elect a strategy for @p workload on @p gpus GPUs whose plane
     * is split @p share_count ways. Deterministic: the same key
     * always yields the same election, swept at most once per
     * elector lifetime.
     */
    Election elect(const std::string &workload, int gpus,
                   int share_count);

    /**
     * Stats: elect.requests, elect.cache_hits, elect.sweeps,
     * elect.candidates (configurations measured across all sweeps).
     */
    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

  private:
    PlatformSpec _platform;
    Options _options;
    GraphCache *_graphs;
    StatSet _stats;
    std::map<std::string, Election> _cache;
};

} // namespace proact::fleet

#endif // PROACT_FLEET_ELECTOR_HH
