/**
 * @file
 * Topology-aware detours and route-splitting around unhealthy links.
 *
 * The Rerouter consults a LinkStateProvider (normally the
 * LinkHealthMonitor) before a transfer books wire time. A DOWN direct
 * link means the payload detours around it: the fan-out of healthy
 * single-relay candidates splits the payload proportionally to their
 * residual bandwidth (GPU0 -> GPUk -> GPU1 for several k when the
 * 0<->1 link died), and when no single relay survives — a whole
 * NVSwitch plane or baseboard down — a bounded search over the
 * health-filtered topology finds the shortest multi-relay chain. A
 * DEGRADED direct link splits the payload between the direct link and
 * the relay fan-out, proportionally to residual bandwidth. Relay
 * paths cost extra wire, so their score is discounted per hop before
 * competing with the direct link.
 *
 * Plans are cached per (src, dst) and evicted by the health
 * transitions the owner forwards to onLinkTransition(), according to
 * what they read. A plan computed while the direct link was HEALTHY
 * read only that link; a relay plan read its row and column (relay
 * scores); a relay-chain search read the whole graph. On a 16-GPU
 * DGX-2 under a dead baseboard this means the 184 still-healthy pairs
 * never recompute while relay-loaded links flap, and a lookup costs
 * one flag check.
 *
 * The rerouter never submits traffic itself: callers hand it a submit
 * functor (RetryingSender::send, Interconnect::transfer, ...) and the
 * rerouter decomposes the request into legs, forwarding each hop
 * through that functor. The original onComplete fires exactly once,
 * when the last leg has fully landed, so delivery accounting upstream
 * (e.g. ProactRuntime's expected-vs-seen counters) is preserved. All
 * decisions are pure functions of the health snapshot, so runs
 * replay tick-for-tick.
 */

#ifndef PROACT_INTERCONNECT_REROUTER_HH
#define PROACT_INTERCONNECT_REROUTER_HH

#include "interconnect/interconnect.hh"
#include "interconnect/link_state.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace proact {

/**
 * Plans alternate routes from the live link-health classification.
 *
 * Stats (read via stats()):
 *  - reroute.detours:          transfers moved entirely off a DOWN link
 *  - reroute.splits:           transfers split across multiple legs
 *  - reroute.relay_hops:       relay-hop submissions (one per via)
 *  - reroute.bytes_detoured:   payload bytes that avoided the direct link
 *  - reroute.no_path:          DOWN link with no usable route at all
 *                              (sent direct; the retry fallback
 *                              guarantees it)
 *  - reroute.plan_requests:    route lookups (one per send)
 *  - reroute.plan_computes:    lookups that had to compute the plan
 *  - reroute.plan_cache_hits:  lookups served from the cache
 *  - reroute.push_invalidations: forwarded wire transitions (each
 *                              evicts the plans that read the link)
 *  - reroute.push_ignored:     forwarded congestion-only transitions
 *                              (the cache is left alone)
 */
class Rerouter
{
  public:
    /**
     * One planned leg: a relay chain src -> vias... -> dst carrying a
     * fraction of the payload. An empty via list is the direct link.
     */
    struct Leg
    {
        std::vector<int> vias;
        double fraction = 1.0;

        bool direct() const { return vias.empty(); }

        /** First relay GPU, or -1 for the direct leg. */
        int via() const { return vias.empty() ? -1 : vias.front(); }
    };

    /** Functor that actually books a (single-link) transfer. */
    using Submit = std::function<Tick(const Interconnect::Request &)>;

    /** @{ @name Route-selection constants */
    /**
     * Don't bother splitting when a leg would carry less than this
     * fraction of the payload (overhead beats benefit).
     */
    static constexpr double minSplitFraction = 0.15;

    /** Don't split payloads smaller than this. */
    static constexpr std::uint64_t minSplitBytes = 4 * KiB;

    /**
     * Relay paths consume wire on multiple links; their
     * residual-bandwidth score is multiplied by this once per hop
     * beyond the first before competing with the direct link.
     */
    static constexpr double relayDiscount = 0.5;

    /**
     * Longest detour the relay-chain search may plan, counted in relay
     * GPUs (a path src -> a -> b -> dst has two). Bounds planning
     * cost and keeps pathological detours off large fabrics.
     */
    static constexpr int maxRelayHops = 3;

    /**
     * How many single-relay candidates a detour or split fans out
     * across. On a DGX-2 a dead pair leaves 14 healthy relays;
     * spreading the payload over several of them multiplies the
     * detour bandwidth instead of hammering one relay's wires.
     */
    static constexpr int maxRelayFanout = 4;

    /**
     * A relay only joins a DEGRADED-link split when its discounted
     * bottleneck score beats the direct residual by this factor. A
     * relay leg consumes egress wire at the source AND at the relay,
     * so a marginal win is a real loss — notably when the whole
     * fabric degrades uniformly (a dead NVSwitch plane) and
     * momentarily-healthy relay legs would otherwise siphon payload
     * onto equally-degraded wires and congest them further. The
     * split stays reserved for severe degradation, where the direct
     * link is nearly useless; DOWN-link detours are unaffected.
     */
    static constexpr double relayAdvantage = 2.0;

    /**
     * Staleness tolerance for cached relay plans. Wire transitions
     * evict every plan that read the link immediately (the plan's
     * shape may be wrong); drift in *relay* conditions — endpoint
     * congestion flapping links between HEALTHY and CONGESTED — only
     * re-weights split fractions and evicts nothing, so a relay plan
     * tolerates it for up to this long before recomputing.
     */
    static constexpr Tick planTtl = 200 * ticksPerMicrosecond;

    /**
     * Spread-don't-detour: a CONGESTED link is never by itself a
     * reason to leave the direct route (the backlog drains when the
     * competing flows do), but when a DOWN or DEGRADED link forces a
     * relay fan-out, each congested relay leg multiplies the relay's
     * score by this factor so payload spreads toward quiet relays
     * first without abandoning congested ones.
     */
    static constexpr double congestedPenalty = 0.5;
    /** @} */

    static_assert(relayDiscount > 0.0 && relayDiscount <= 1.0,
                  "relayDiscount must be in (0, 1]");
    static_assert(maxRelayHops >= 1, "maxRelayHops must be positive");
    static_assert(maxRelayFanout >= 1,
                  "maxRelayFanout must be positive");
    static_assert(congestedPenalty > 0.0 && congestedPenalty <= 1.0,
                  "congestedPenalty must be in (0, 1]");

    Rerouter(EventQueue &eq, Interconnect &fabric,
             const LinkStateProvider &health);

    Rerouter(const Rerouter &) = delete;
    Rerouter &operator=(const Rerouter &) = delete;

    /**
     * Current route decision for src -> dst: one direct leg when the
     * link is healthy (or nothing better exists), a relay fan-out
     * (or, failing that, one searched multi-relay chain) when it is
     * DOWN, or a proportional direct+relay split when it is DEGRADED.
     *
     * Served from the cache: the plan is recomputed after a wire
     * transition of any link it read, and otherwise at most once per
     * planTtl while relay conditions drift. Split fractions therefore
     * reflect the residual bandwidth observed at the last recompute,
     * not the per-delivery EWMA drift in between.
     */
    const std::vector<Leg> &plan(int src, int dst) const;

    /**
     * Healthy single-relay candidates for src -> dst, best first.
     * Equal scores order by a deterministic per-pair rotation, so
     * different pairs spread their detours across different relays
     * instead of all hammering the lowest ids. Distinct relays are
     * vertex-disjoint detours by construction, so candidates.size()
     * counts the fabric's redundancy for this pair.
     */
    std::vector<int> relayCandidates(int src, int dst) const;

    /**
     * Decompose @p req along plan(src, dst) and forward every leg
     * through @p submit. The request's onComplete fires exactly once,
     * after all legs (including relay hops) have landed.
     *
     * @return Predicted delivery tick of the slowest first-hop leg —
     *         exact for direct routes, a lower bound when a relay's
     *         later hops extend past it.
     */
    Tick send(const Submit &submit, Interconnect::Request req);

    /**
     * Health-transition listener entry. The cache is only as fresh
     * as this feed: the owner must forward every transition of the
     * provider's links here (MultiGpuSystem::enableReroute registers
     * it as a LinkHealthMonitor listener), or cached plans outlive
     * the link states they were computed from. Wire transitions
     * (DEGRADED/DOWN on either side) evict exactly the entries that
     * could have read the link: the pair itself, every relay plan in
     * row @p src or column @p dst whose tiers include the link's, and
     * every plan the relay-chain search made. Congestion-only flips
     * (HEALTHY <-> CONGESTED) leave the cache alone — that is what
     * makes pure congestion produce zero recomputes.
     */
    void onLinkTransition(int src, int dst, LinkState from,
                          LinkState to);

    /** Rerouting statistics. */
    const StatSet &stats() const { return _stats; }

  private:
    EventQueue &_eq;
    Interconnect &_fabric;
    const LinkStateProvider &_health;
    mutable StatSet _stats;

    /** @{ Per-send statistics (see the class comment). */
    mutable StatSet::Counter _planRequests;
    mutable StatSet::Counter _planCacheHits;
    mutable StatSet::Counter _planComputes;
    StatSet::Counter _detours;
    StatSet::Counter _splits;
    StatSet::Counter _noPath;
    StatSet::Counter _relayHops;
    StatSet::Counter _bytesDetoured;
    /** @} */

    /**
     * One relay leg's hop chain src -> vias... -> dst. Hop k books
     * nodes[k - 1] -> nodes[k] when hop k - 1 lands; every hop's
     * callback shares the record and carries only its index.
     */
    struct RelayChain
    {
        Submit submit;
        Interconnect::Request base; ///< The leg's request, unjoined.
        std::array<int, maxRelayHops + 2> nodes{};
        std::size_t last = 0;       ///< Index of the destination.
        EventQueue::Callback arrived;
    };

    /** Submit hop @p k of @p chain (k >= 1). */
    static Tick submitHop(const std::shared_ptr<RelayChain> &chain,
                          std::size_t k);

    /** Which links a cached plan read, and so which evict it. */
    enum class Reads : unsigned char
    {
        /** Only src -> dst: it was HEALTHY or CONGESTED. */
        DirectLink,
        /** Relay scores: links leaving src or entering dst. */
        RowColumn,
        /** The relay-chain search, with or without a result: any link. */
        Graph,
    };

    /** One (src, dst) entry of the plan cache. */
    struct CachedPlan
    {
        std::vector<Leg> legs;
        Tick computedAt = 0;
        Reads reads = Reads::DirectLink;

        /**
         * Which fabric tiers a RowColumn plan read, as a bitmask of
         * kTierIntra / kTierInter. On a multi-node fabric an
         * intra-node pair whose plan never consulted a foreign-node
         * relay carries kTierIntra alone, so a network-tier link
         * flapping in its row or column leaves it cached — cross-node
         * transitions evict independently of intra-node ones.
         * Single-node fabrics always read kTierIntra.
         */
        unsigned char tierMask = 0;
        bool valid = false;
    };

    /** Plan cache, indexed src * numGpus + dst. */
    mutable std::vector<CachedPlan> _cache;

    static constexpr unsigned char kTierIntra = 1;
    static constexpr unsigned char kTierInter = 2;

    /** Tier bit of the (a, b) link on this fabric. */
    unsigned char tierBit(int a, int b) const;

    /**
     * The plan for src -> dst from the live health, reporting which
     * links it read in @p reads and their tiers in @p tier_mask.
     */
    std::vector<Leg> computePlan(int src, int dst, Reads &reads,
                                 unsigned char &tier_mask) const;

    /**
     * Scored single-relay candidates (relay id, discounted score),
     * best first; empty when no relay has usable bandwidth on both
     * legs. Ties break by a deterministic per-pair rotation of the
     * relay ids (load spreading without randomness).
     *
     * On a multi-node fabric candidates are hierarchical: relays in
     * the endpoints' own nodes are scored first (one network hop for
     * a cross-node pair, zero for an intra-node one), and foreign-
     * node relays are consulted only when no endpoint-node relay has
     * usable bandwidth. @p used_foreign, when non-null, reports
     * whether foreign-node relays were consulted at all — even an
     * empty fallback read network-tier links, which widens the
     * plan's tier mask.
     */
    std::vector<std::pair<int, double>>
    scoredRelays(int src, int dst,
                 bool *used_foreign = nullptr) const;

    /**
     * Shortest src -> dst relay chain over non-DOWN links, at most
     * maxRelayHops vias; empty when the destination is unreachable
     * within the bound. Chains minimize network-tier hops first, then
     * edge count, so a detour never crosses a node boundary more
     * often than the surviving topology forces it to. On one node
     * that is a breadth-first search, and the chain is the
     * lexicographically smallest of the shortest.
     */
    std::vector<int> relayChain(int src, int dst) const;

    /**
     * Proportional fractions for weighted legs, collapsing legs below
     * minSplitFraction and renormalizing the survivors.
     */
    static std::vector<double>
    splitFractions(const std::vector<double> &weights,
                   double min_fraction);

    /** Submit one leg carrying @p bytes; joins via @p arrived. */
    Tick sendLeg(const Submit &submit,
                 const Interconnect::Request &base, const Leg &leg,
                 std::uint64_t bytes,
                 const EventQueue::Callback &arrived);
};

} // namespace proact

#endif // PROACT_INTERCONNECT_REROUTER_HH
