#include "interconnect/rerouter.hh"

#include "sim/joiner.hh"
#include "sim/logging.hh"

#include <algorithm>
#include <memory>
#include <queue>
#include <tuple>

namespace proact {

Rerouter::Rerouter(EventQueue &eq, Interconnect &fabric,
                   const LinkStateProvider &health)
    : _eq(eq), _fabric(fabric), _health(health),
      _planRequests(&_stats, "reroute.plan_requests"),
      _planCacheHits(&_stats, "reroute.plan_cache_hits"),
      _planComputes(&_stats, "reroute.plan_computes"),
      _detours(&_stats, "reroute.detours"),
      _splits(&_stats, "reroute.splits"),
      _noPath(&_stats, "reroute.no_path"),
      _relayHops(&_stats, "reroute.relay_hops"),
      _bytesDetoured(&_stats, "reroute.bytes_detoured")
{
    _cache.resize(static_cast<std::size_t>(fabric.numGpus())
                  * fabric.numGpus());
}

unsigned char
Rerouter::tierBit(int a, int b) const
{
    return _fabric.interNodePair(a, b) ? kTierInter : kTierIntra;
}

std::vector<std::pair<int, double>>
Rerouter::scoredRelays(int src, int dst, bool *used_foreign) const
{
    if (used_foreign)
        *used_foreign = false;

    const auto penalty = [this](int s, int d) {
        return _health.linkState(s, d) == LinkState::Congested
            ? congestedPenalty
            : 1.0;
    };
    const auto score = [this, &penalty](int s, int k, int d) {
        double v = std::min(_health.residualFraction(s, k),
                            _health.residualFraction(k, d))
            * relayDiscount;
        // Spread-don't-detour: congested relay legs keep their full
        // residual (the wire is fine) but score lower, so the fan-out
        // leans toward quiet relays instead of piling onto a port
        // that is already backed up.
        v *= penalty(s, k);
        v *= penalty(k, d);
        return v;
    };

    const FabricSpec &spec = _fabric.spec();
    std::vector<std::pair<int, double>> relays;
    const auto collect = [&](bool endpoint_nodes) {
        for (int k = 0; k < _fabric.numGpus(); ++k) {
            if (k == src || k == dst)
                continue;
            const bool local = !spec.multiNode()
                || spec.sameNode(k, src) || spec.sameNode(k, dst);
            if (local != endpoint_nodes)
                continue;
            const double s = score(src, k, dst);
            if (s > 0.0)
                relays.emplace_back(k, s);
        }
    };

    // Hierarchical candidate classes: relays confined to the
    // endpoints' own nodes first. For a cross-node pair a relay in
    // either endpoint node keeps the detour at one network hop (the
    // same as the direct path), while a third-node relay pays the
    // network tier twice; for an intra-node pair a same-node relay
    // keeps the detour inside the chassis entirely. Foreign-node
    // relays are consulted only when no endpoint-node relay has
    // usable bandwidth — the health model justifying the boundary
    // crossing.
    collect(true);
    if (relays.empty() && spec.multiNode()) {
        // Reading foreign-node scores — even ones that come back
        // unusable — makes the resulting plan depend on network-tier
        // links, so the flag reports the consultation, not its yield.
        if (used_foreign)
            *used_foreign = true;
        collect(false);
    }

    // Equal-score ties order by a per-pair rotation of the relay id:
    // when a dead board leaves every pair the same healthy relay set,
    // different pairs still pick different relays first, spreading
    // detour load across the fabric instead of saturating the lowest
    // ids. Still a pure function of (src, dst, health) — replays are
    // tick-for-tick identical.
    const int n = _fabric.numGpus();
    const auto rotated = [n, src, dst](int id) {
        return (id + n - (src + dst) % n) % n;
    };
    std::sort(relays.begin(), relays.end(),
              [&rotated](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return rotated(a.first) < rotated(b.first);
              });
    return relays;
}

std::vector<int>
Rerouter::relayCandidates(int src, int dst) const
{
    std::vector<int> ids;
    for (const auto &[id, score] : scoredRelays(src, dst))
        ids.push_back(id);
    return ids;
}

std::vector<int>
Rerouter::relayChain(int src, int dst) const
{
    // Lexicographic (network hops, edges) shortest path: a chain that
    // crosses the node boundary twice is never preferred over one
    // that crosses once, no matter how many chassis hops the in-node
    // portion takes within the maxRelayHops bound. Relaxation is
    // strict, neighbours are scanned in id order and heap ties break
    // by discovery order, so the chain is a pure function of the
    // health snapshot. On one node every hop costs (0, 1), pops
    // follow discovery order, and this is a breadth-first search.
    const int n = _fabric.numGpus();
    const int max_edges = maxRelayHops + 1;
    struct Cost
    {
        int inter;
        int edges;
    };
    std::vector<Cost> best(n, Cost{n + 1, n + 1});
    std::vector<int> parent(n, -1);
    // Heap key (network hops, edges, discovery index); discovered[i]
    // is the node of discovery index i.
    std::vector<int> discovered{src};
    using Key = std::tuple<int, int, int>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
    best[src] = Cost{0, 0};
    heap.push({0, 0, 0});
    while (!heap.empty()) {
        const auto [ci, ce, order] = heap.top();
        heap.pop();
        const int node = discovered[static_cast<std::size_t>(order)];
        if (ci != best[node].inter || ce != best[node].edges)
            continue;
        if (node == dst)
            break;
        if (ce >= max_edges)
            continue;
        for (int next = 0; next < n; ++next) {
            if (next == node)
                continue;
            if (_health.linkState(node, next) == LinkState::Down)
                continue;
            const int ninter =
                ci + (_fabric.interNodePair(node, next) ? 1 : 0);
            const int nedges = ce + 1;
            if (ninter > best[next].inter ||
                (ninter == best[next].inter &&
                 nedges >= best[next].edges)) {
                continue;
            }
            best[next] = Cost{ninter, nedges};
            parent[next] = node;
            heap.push({ninter, nedges,
                       static_cast<int>(discovered.size())});
            discovered.push_back(next);
        }
    }
    if (parent[dst] < 0)
        return {};
    std::vector<int> vias;
    for (int node = parent[dst]; node != src; node = parent[node])
        vias.push_back(node);
    std::reverse(vias.begin(), vias.end());
    return vias;
}

std::vector<double>
Rerouter::splitFractions(const std::vector<double> &weights,
                         double min_fraction)
{
    std::vector<double> fractions(weights.size(), 0.0);
    double total = 0.0;
    for (const double w : weights)
        total += w;
    if (total <= 0.0)
        return fractions;

    // Collapse legs below the split floor and renormalize the
    // survivors; the heaviest leg always survives.
    std::vector<char> keep(weights.size(), 1);
    for (std::size_t i = 0; i < weights.size(); ++i)
        keep[i] = weights[i] / total >= min_fraction ? 1 : 0;
    const std::size_t heaviest = static_cast<std::size_t>(
        std::max_element(weights.begin(), weights.end())
        - weights.begin());
    keep[heaviest] = 1;

    double kept_total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i)
        if (keep[i])
            kept_total += weights[i];
    for (std::size_t i = 0; i < weights.size(); ++i)
        if (keep[i])
            fractions[i] = weights[i] / kept_total;
    return fractions;
}

std::vector<Rerouter::Leg>
Rerouter::computePlan(int src, int dst, Reads &reads,
                      unsigned char &tier_mask) const
{
    reads = Reads::DirectLink;
    tier_mask = tierBit(src, dst);
    const LinkState direct = _health.linkState(src, dst);
    if (direct == LinkState::Healthy ||
        direct == LinkState::Congested) {
        // Congestion is never a reason to detour: the backlog is
        // other flows' traffic and drains with them, while a relay
        // would spend wire on two more ports to dodge it.
        return {Leg{{}, 1.0}};
    }

    reads = Reads::RowColumn;
    bool foreign = false;
    auto relays = scoredRelays(src, dst, &foreign);
    // A cross-node pair's relay legs each pair one chassis link with
    // one network link, and an intra-node pair that had to consult
    // foreign-node relays read the network tier too; either way the
    // plan now depends on both tiers.
    if (tier_mask == kTierInter || foreign)
        tier_mask = kTierIntra | kTierInter;
    if (static_cast<int>(relays.size()) > maxRelayFanout)
        relays.resize(static_cast<std::size_t>(maxRelayFanout));

    if (direct == LinkState::Down) {
        if (relays.empty()) {
            // No single relay survives (a dead plane can sever every
            // two-hop detour): fall back to the shortest multi-relay
            // chain the health-filtered topology still offers. The
            // search reads the whole graph, found chain or not.
            reads = Reads::Graph;
            std::vector<int> vias = relayChain(src, dst);
            if (vias.empty())
                return {Leg{{}, 1.0}}; // No path: direct + retry.
            return {Leg{std::move(vias), 1.0}};
        }
        std::vector<double> weights;
        for (const auto &[id, score] : relays)
            weights.push_back(score);
        const auto fractions =
            splitFractions(weights, minSplitFraction);
        std::vector<Leg> legs;
        for (std::size_t i = 0; i < relays.size(); ++i) {
            if (fractions[i] > 0.0)
                legs.push_back(Leg{{relays[i].first}, fractions[i]});
        }
        return legs;
    }

    // DEGRADED: split between the direct link and the relay fan-out,
    // proportionally to residual bandwidth (relays discounted for
    // their extra wire cost). A relay only joins when its discounted
    // bottleneck beats the direct residual by relayAdvantage — when
    // the whole fabric is degraded uniformly (a dead NVSwitch
    // plane), every detour pays double wire for the same bandwidth
    // and the plan stays direct.
    const double residual = _health.residualFraction(src, dst);
    while (!relays.empty() &&
           relays.back().second
               <= residual * relayAdvantage) {
        relays.pop_back();
    }
    if (relays.empty())
        return {Leg{{}, 1.0}};
    std::vector<double> weights{residual};
    for (const auto &[id, score] : relays)
        weights.push_back(score);
    const auto fractions =
        splitFractions(weights, minSplitFraction);

    std::vector<Leg> legs;
    if (fractions[0] > 0.0)
        legs.push_back(Leg{{}, fractions[0]});
    for (std::size_t i = 0; i < relays.size(); ++i) {
        if (fractions[i + 1] > 0.0)
            legs.push_back(Leg{{relays[i].first}, fractions[i + 1]});
    }
    if (legs.empty())
        return {Leg{{}, 1.0}};
    return legs;
}

const std::vector<Rerouter::Leg> &
Rerouter::plan(int src, int dst) const
{
    _planRequests.inc();

    CachedPlan &entry = _cache.at(
        static_cast<std::size_t>(src) * _fabric.numGpus() + dst);
    // Forwarded wire transitions already evicted every plan they
    // could have changed, so a set valid flag is authoritative. Plans
    // that read more than their direct link still refresh on the TTL
    // so split weights track slow drift (congestion flips don't
    // evict by design).
    bool valid = entry.valid;
    if (valid && entry.reads != Reads::DirectLink)
        valid = _eq.curTick() - entry.computedAt < planTtl;

    if (valid) {
        _planCacheHits.inc();
    } else {
        _planComputes.inc();
        entry.legs = computePlan(src, dst, entry.reads, entry.tierMask);
        entry.computedAt = _eq.curTick();
        entry.valid = true;
    }
    return entry.legs;
}

void
Rerouter::onLinkTransition(int src, int dst, LinkState from,
                           LinkState to)
{
    if (!isWireTransition(from, to)) {
        // HEALTHY <-> CONGESTED: every cached plan is still the plan
        // we would compute (congestion never changes a plan's shape,
        // only relay tie-breaking weights, which the TTL refreshes).
        _stats.inc("reroute.push_ignored");
        return;
    }
    _stats.inc("reroute.push_invalidations");

    // Evict every plan that could have read this link: its own
    // direct entry, any relay plan in row src (a leg leaving src) or
    // column dst (a leg entering dst), and every searched chain,
    // whose interior hops can sit anywhere. The tier mask narrows the
    // relay plans on multi-node fabrics: one that never read the
    // transitioned link's tier (an in-node detour vs a network-tier
    // flap, or vice versa) kept no stale state.
    const int n = _fabric.numGpus();
    const unsigned char bit = tierBit(src, dst);
    for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
            CachedPlan &entry =
                _cache[static_cast<std::size_t>(s) * n + d];
            switch (entry.reads) {
              case Reads::DirectLink:
                break;
              case Reads::RowColumn:
                if ((s == src || d == dst) && (entry.tierMask & bit))
                    entry.valid = false;
                break;
              case Reads::Graph:
                entry.valid = false;
                break;
            }
        }
    }
    _cache[static_cast<std::size_t>(src) * n + dst].valid = false;
}

Tick
Rerouter::submitHop(const std::shared_ptr<RelayChain> &chain,
                    std::size_t k)
{
    Interconnect::Request hop = chain->base;
    hop.src = chain->nodes[k - 1];
    hop.dst = chain->nodes[k];
    if (k > 1)
        hop.notBefore = 0;
    if (k == chain->last) {
        hop.onComplete = chain->arrived;
    } else {
        hop.onComplete = [chain, k] { submitHop(chain, k + 1); };
    }
    return chain->submit(hop);
}

Tick
Rerouter::sendLeg(const Submit &submit,
                  const Interconnect::Request &base, const Leg &leg,
                  std::uint64_t bytes,
                  const EventQueue::Callback &arrived)
{
    if (leg.direct()) {
        Interconnect::Request req = base;
        req.bytes = bytes;
        req.onComplete = arrived;
        return submit(req);
    }

    _relayHops.inc(static_cast<double>(leg.vias.size()));
    _bytesDetoured.inc(static_cast<double>(bytes));

    // Node sequence src -> vias... -> dst; every hop after the first
    // is submitted on the previous hop's delivery, and only the final
    // hop's delivery counts as arrival.
    if (leg.vias.size() > static_cast<std::size_t>(maxRelayHops))
        panicError("Rerouter: leg with ", leg.vias.size(), " relays");
    auto chain = std::make_shared<RelayChain>();
    chain->submit = submit;
    chain->base = base;
    chain->base.bytes = bytes;
    chain->base.onComplete = nullptr;
    chain->nodes[0] = base.src;
    std::copy(leg.vias.begin(), leg.vias.end(), chain->nodes.begin() + 1);
    chain->last = leg.vias.size() + 1;
    chain->nodes[chain->last] = base.dst;
    chain->arrived = arrived;
    return submitHop(chain, 1);
}

Tick
Rerouter::send(const Submit &submit, Interconnect::Request req)
{
    // The cached legs are read in place: nothing reachable from
    // submit recomputes a cache entry. A health transition a
    // submission triggers reaches onLinkTransition, which only clears
    // valid flags, and RetryingSender::replan runs from a timeout
    // event, never inside a submission.
    const std::vector<Leg> &legs = plan(req.src, req.dst);

    // Payloads too small to split ride the best single leg whole:
    // the direct link on a DEGRADED split (legs[0]), the best relay
    // on a DOWN fan-out.
    const std::size_t num_legs =
        req.bytes < minSplitBytes ? 1 : legs.size();

    if (num_legs == 1 && legs[0].direct()) {
        if (_health.linkState(req.src, req.dst) == LinkState::Down)
            _noPath.inc();
        return submit(req); // Healthy or no better route: unchanged.
    }

    if (num_legs == 1) {
        _detours.inc();
    } else {
        _splits.inc();
    }

    // Join: the original completion fires once, at the last arrival.
    const EventQueue::Callback arrived = Joiner::arrival(Joiner::make(
        static_cast<int>(num_legs), std::move(req.onComplete)));

    // Byte split: integer shares, remainder on the first leg; a leg
    // rounded to zero bytes still submits (zero-byte transfers
    // complete immediately) so the join count stays exact.
    const auto share = [&req, &legs](std::size_t i) {
        return static_cast<std::uint64_t>(
            static_cast<double>(req.bytes) * legs[i].fraction);
    };
    std::uint64_t assigned = 0;
    for (std::size_t i = 1; i < num_legs; ++i)
        assigned += share(i);

    Tick predicted = 0;
    for (std::size_t i = 0; i < num_legs; ++i) {
        const std::uint64_t bytes =
            i == 0 ? req.bytes - assigned : share(i);
        predicted = std::max(
            predicted, sendLeg(submit, req, legs[i], bytes, arrived));
    }
    return predicted;
}

} // namespace proact
