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
 * NVSwitch plane or baseboard down — a bounded BFS over the
 * health-filtered topology finds the shortest multi-relay path. A
 * DEGRADED direct link splits the payload between the direct link and
 * the relay fan-out, proportionally to residual bandwidth. Relay
 * paths cost extra wire, so their score is discounted per hop before
 * competing with the direct link.
 *
 * Plans are cached per (src, dst) and keyed on exactly what they
 * read. A plan computed while the direct link was HEALTHY read only
 * that link, so it revalidates against the provider's linkEpoch (its
 * transition count); any other plan read the whole row/column (relay
 * scores) and revalidates against routeEpoch, which changes only when
 * a link leaving src or entering dst transitions. On a 16-GPU DGX-2
 * under a dead baseboard this means the 184 still-healthy pairs never
 * recompute while relay-loaded links flap, and a transition
 * invalidates at most 2n-1 of the n^2 plans — all at one integer
 * compare per lookup.
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

#include <cstdint>
#include <functional>
#include <vector>

namespace proact {

/** Route-selection knobs. */
struct ReroutePolicy
{
    /**
     * Don't bother splitting when a leg would carry less than this
     * fraction of the payload (overhead beats benefit).
     */
    double minSplitFraction = 0.15;

    /** Don't split payloads smaller than this. */
    std::uint64_t minSplitBytes = 4 * KiB;

    /**
     * Relay paths consume wire on multiple links; their
     * residual-bandwidth score is multiplied by this once per hop
     * beyond the first before competing with the direct link.
     */
    double relayDiscount = 0.5;

    /**
     * Longest detour the BFS fallback may plan, counted in relay
     * GPUs (a path src -> a -> b -> dst has two). Bounds planning
     * cost and keeps pathological detours off large fabrics.
     */
    int maxRelayHops = 3;

    /**
     * How many single-relay candidates a detour or split fans out
     * across. On a DGX-2 a dead pair leaves 14 healthy relays;
     * spreading the payload over several of them multiplies the
     * detour bandwidth instead of hammering one relay's wires.
     */
    int maxRelayFanout = 4;

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
    double relayAdvantage = 2.0;

    /**
     * Staleness tolerance for cached relay plans. A direct-link state
     * change always invalidates immediately (the plan's shape is
     * wrong); drift in *relay* conditions — endpoint congestion
     * flapping links between HEALTHY and CONGESTED — only re-weights
     * split fractions, so a relay plan tolerates it for up to this
     * long before recomputing. 0 recomputes on every relay-side
     * transition (epoch-validated mode) or never expires by time
     * (push-invalidated mode, where wire transitions already evict).
     */
    Tick planTtl = 200 * ticksPerMicrosecond;

    /**
     * Spread-don't-detour: a CONGESTED link is never by itself a
     * reason to leave the direct route (the backlog drains when the
     * competing flows do), but when a DOWN or DEGRADED link forces a
     * relay fan-out, each congested relay leg multiplies the relay's
     * score by this factor so payload spreads toward quiet relays
     * first without abandoning congested ones. 1.0 makes scoring
     * congestion-blind.
     */
    double congestedPenalty = 0.5;

    /**
     * Queueing-theoretic congestion weighting: instead of the flat
     * congestedPenalty discount, each CONGESTED leg's score divides
     * by (1 + queueRatio) — the provider's EWMA of queueing delay
     * over service time — so a leg that is twice as backed up takes
     * proportionally less of the spread. Under sustained multi-
     * tenant hotspots the flat discount treats a barely-congested
     * and a drowning relay identically; the queue weight splits
     * between them by their actual backlogs. Enabled from the
     * environment via PROACT_REROUTE_QUEUE_WEIGHT=1.
     */
    bool queueWeightedCongestion = false;
};

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
 *  - reroute.epoch_reads:      provider epoch reads made to validate
 *                              cached plans (zero in push mode)
 *  - reroute.push_invalidations: wire transitions that evicted cache
 *                              entries via the monitor listener
 *  - reroute.push_ignored:     congestion-only transitions the push
 *                              listener left the cache alone for
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

    Rerouter(EventQueue &eq, Interconnect &fabric,
             const LinkStateProvider &health,
             ReroutePolicy policy = {});

    /**
     * Current route decision for src -> dst: one direct leg when the
     * link is healthy (or nothing better exists), a relay fan-out
     * (or, failing that, one BFS multi-relay path) when it is DOWN,
     * or a proportional direct+relay split when it is DEGRADED.
     *
     * Served from the epoch-keyed cache: the plan is recomputed when
     * the direct link changes state, and otherwise at most once per
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
     * Switch the plan cache from per-lookup epoch validation to
     * listener-driven push invalidation: the owner routes the health
     * monitor's transition fan-out into onLinkTransition(), and
     * plan() stops reading provider epochs entirely — a quiet fabric
     * serves every lookup with a flag check. One-way; the whole
     * cache is dropped at the switch so no stale epoch-keyed entry
     * survives into push mode.
     */
    void enablePushInvalidation();

    bool pushInvalidation() const { return _pushInvalidation; }

    /**
     * Health-transition listener entry (push mode). Wire transitions
     * (DEGRADED/DOWN on either side) evict exactly the entries that
     * could have read the link: the pair itself, plus every non-
     * direct-only plan in row @p src or column @p dst. Congestion-
     * only flips (HEALTHY <-> CONGESTED) leave the cache alone —
     * that is what makes pure congestion produce zero recomputes.
     */
    void onLinkTransition(int src, int dst, LinkState from,
                          LinkState to);

    const ReroutePolicy &policy() const { return _policy; }

    /** Rerouting statistics. */
    const StatSet &stats() const { return _stats; }

  private:
    EventQueue &_eq;
    Interconnect &_fabric;
    const LinkStateProvider &_health;
    ReroutePolicy _policy;
    mutable StatSet _stats;

    /**
     * Epoch-keyed plan cache, indexed src * numGpus + dst. Entries
     * computed on a HEALTHY direct link key on linkEpoch (they read
     * nothing else); the rest key on linkEpoch + routeEpoch with the
     * planTtl staleness window for relay-side drift.
     */
    mutable std::vector<std::vector<Leg>> _cachedPlans;
    mutable std::vector<std::uint64_t> _cachedLinkEpochs;
    mutable std::vector<std::uint64_t> _cachedRouteEpochs;
    mutable std::vector<Tick> _cachedTicks;
    mutable std::vector<char> _cacheDirectOnly;
    mutable std::vector<char> _cacheValid;

    /**
     * Which fabric tiers the cached plan read, as a bitmask of
     * kTierIntra / kTierInter. On a multi-node fabric an intra-node
     * pair whose plan never consulted a foreign-node relay carries
     * kTierIntra alone, so push invalidation skips it when a network-
     * tier link flaps — cross-node epochs invalidate independently of
     * intra-node ones. Single-node fabrics always read kTierIntra.
     */
    mutable std::vector<unsigned char> _cacheTierMask;
    bool _pushInvalidation = false;

    static constexpr unsigned char kTierIntra = 1;
    static constexpr unsigned char kTierInter = 2;

    /** Tier bit of the (a, b) link on this fabric. */
    unsigned char tierBit(int a, int b) const;

    std::vector<Leg> computePlan(int src, int dst,
                                 unsigned char &tier_mask) const;

    /**
     * Score multiplier a leg pays for congestion on src -> dst: 1 on
     * a non-congested link, the flat congestedPenalty by default, or
     * 1 / (1 + queueRatio) under queueWeightedCongestion.
     */
    double congestionWeight(int src, int dst) const;

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
     * maxRelayHops vias, lowest-id-first tie-break; empty when the
     * destination is unreachable within the bound. Multi-node fabrics
     * minimize network-tier hops first, then edge count, so a detour
     * never crosses a node boundary more often than the surviving
     * topology forces it to.
     */
    std::vector<int> bfsVias(int src, int dst) const;

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
                 const std::function<void()> &arrived);
};

} // namespace proact

#endif // PROACT_INTERCONNECT_REROUTER_HH
