/**
 * @file
 * Tests for the fault-adaptive runtime: link-health classification
 * (hysteresis, bounded DOWN-detection latency, recovery), rerouting
 * around unhealthy links (with the relay-chain search pinned against
 * reference searches), and tick-for-tick determinism of the whole
 * stack under identical seeds.
 */

#include "health/link_health.hh"
#include "interconnect/rerouter.hh"
#include "proact/transfer_agent.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "tests/scripted_link_state.hh"
#include "tests/small_workloads.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

using namespace proact;
using namespace proact::test;

namespace {

/** Volta platform with statically partitioned pair links, so a
 * detour around a dead pair uses physically distinct wires. */
PlatformSpec
pairwiseVolta()
{
    PlatformSpec p = voltaPlatform();
    p.fabric.topology = FabricTopology::PairwiseLinks;
    return p;
}

RetryPolicy
testRetry(int max_attempts = 6)
{
    RetryPolicy policy;
    policy.enabled = true;
    policy.maxAttempts = max_attempts;
    return policy;
}

/** Agent-level harness mirroring tests/test_faults.cc. */
struct HealthHarness
{
    MultiGpuSystem system;
    int deliveries = 0;
    Tick lastDelivery = 0;
    StatSet stats;

    explicit HealthHarness(const PlatformSpec &platform)
        : system(platform)
    {
    }

    TransferAgent::Context
    context(TransferMechanism mech, RetryPolicy retry = {})
    {
        TransferAgent::Context ctx;
        ctx.system = &system;
        ctx.gpuId = 0;
        ctx.config.mechanism = mech;
        ctx.config.chunkBytes = 64 * KiB;
        ctx.config.transferThreads = 2048;
        ctx.config.retry = retry;
        ctx.stats = &stats;
        ctx.onDelivered = [this](std::uint64_t) {
            ++deliveries;
            lastDelivery = system.now();
        };
        return ctx;
    }

    int peers() const { return system.numGpus() - 1; }
};

} // namespace

TEST(LinkHealthTest, LossStreakBelowThresholdDoesNotFlap)
{
    MultiGpuSystem system(voltaPlatform());
    LinkHealthMonitor &mon = system.enableHealth();
    const int threshold = LinkHealthMonitor::downAfterLosses;
    ASSERT_GE(threshold, 2);

    // One short of the streak: still healthy, no transition recorded.
    for (int i = 0; i < threshold - 1; ++i)
        mon.recordLoss(0, 1);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);
    EXPECT_TRUE(mon.transitions().empty());

    // A clean delivery resets the streak; the same number of losses
    // again still must not trip the link.
    mon.recordDelivery(0, 1, 4 * KiB, 0, 1);
    for (int i = 0; i < threshold - 1; ++i)
        mon.recordLoss(0, 1);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);

    // The full streak does.
    mon.recordDelivery(0, 1, 4 * KiB, 0, 1);
    for (int i = 0; i < threshold; ++i)
        mon.recordLoss(0, 1);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Down);
    ASSERT_EQ(mon.transitions().size(), 1u);
    EXPECT_EQ(mon.transitions()[0].to, LinkState::Down);
}

TEST(LinkHealthTest, OneSlowDeliveryDoesNotDegrade)
{
    MultiGpuSystem system(voltaPlatform());
    LinkHealthMonitor &mon = system.enableHealth();

    // Prime the EWMA with nominal-speed samples (actual == 1 tick
    // makes the achieved fraction saturate at 1.0).
    for (int i = 0; i < LinkHealthMonitor::minSamples; ++i)
        mon.recordDelivery(0, 1, 64 * KiB, 0, 1);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);

    // One pathologically slow delivery: the EWMA absorbs the spike
    // (1 - alpha stays above the degrade threshold), no flap.
    mon.recordDelivery(0, 1, 64 * KiB, 0, ticksPerSecond);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);
    EXPECT_TRUE(mon.transitions().empty());

    // A sustained slowdown does degrade.
    for (int i = 0; i < 16; ++i)
        mon.recordDelivery(0, 1, 64 * KiB, 0, ticksPerSecond);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Degraded);
    EXPECT_LT(mon.residualFraction(0, 1),
              LinkHealthMonitor::degradedBwFraction);
}

TEST(LinkHealthTest, DegradedRecoveryRequiresStreakAndBandwidth)
{
    MultiGpuSystem system(voltaPlatform());
    LinkHealthMonitor &mon = system.enableHealth();

    for (int i = 0; i < 16; ++i)
        mon.recordDelivery(0, 1, 64 * KiB, 0, ticksPerSecond);
    ASSERT_EQ(mon.linkState(0, 1), LinkState::Degraded);

    // Hysteresis: a couple of fast deliveries are not enough — the
    // EWMA must cross the *higher* healthy threshold with a streak.
    mon.recordDelivery(0, 1, 64 * KiB, 0, 1);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Degraded);

    for (int i = 0; i < 32; ++i)
        mon.recordDelivery(0, 1, 64 * KiB, 0, 1);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);

    // Exactly two transitions: in and out. No flapping in between.
    ASSERT_EQ(mon.transitions().size(), 2u);
    EXPECT_EQ(mon.transitions()[0].to, LinkState::Degraded);
    EXPECT_EQ(mon.transitions()[1].to, LinkState::Healthy);
    EXPECT_DOUBLE_EQ(mon.residualFraction(0, 1), 1.0);
}

TEST(LinkHealthTest, DownDetectionLatencyIsBounded)
{
    // A link that dies mid-run must be declared DOWN after exactly
    // downAfterLosses consecutive losses — no earlier, no later.
    HealthHarness h((voltaPlatform()));
    LinkHealthMonitor &mon = h.system.enableHealth();

    FaultPlan plan;
    plan.downLink(0, maxTick, 0, 1);
    h.system.installFaults(std::move(plan));

    std::uint64_t losses_at_down = 0;
    Tick down_tick = 0;
    mon.addListener([&](int s, int d, LinkState, LinkState to) {
        if (s == 0 && d == 1 && to == LinkState::Down) {
            losses_at_down = static_cast<std::uint64_t>(
                mon.stats().get("health.losses"));
            down_tick = h.system.now();
        }
    });

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(8)));
    for (int c = 0; c < 8; ++c)
        agent.chunkReady(c, 16 * KiB);
    h.system.run();

    EXPECT_EQ(mon.linkState(0, 1), LinkState::Down);
    // Only 0->1 deliveries are lost, so the monitor's loss count at
    // the transition is the detection latency in observations.
    EXPECT_EQ(losses_at_down, static_cast<std::uint64_t>(
                                  LinkHealthMonitor::downAfterLosses));
    // Drops are observed when the transfer is booked (cut-through
    // fabric), so detection can land at the submission tick itself —
    // only the upper bound is meaningful.
    EXPECT_LE(down_tick, h.lastDelivery);
    // Retry + fallback still landed every chunk everywhere.
    EXPECT_EQ(h.deliveries, 8 * h.peers());
}

TEST(LinkHealthTest, FlappingLinkRecoversToHealthyUnderLoad)
{
    // A link that dies and later recovers mid-run must be walked all
    // the way back to HEALTHY purely through observed deliveries —
    // the monitor gets no out-of-band signal that the fault cleared.
    HealthHarness h((voltaPlatform()));
    LinkHealthMonitor &mon = h.system.enableHealth();

    FaultPlan plan;
    plan.downLink(0, 400 * ticksPerMicrosecond, 0, 1);
    h.system.installFaults(std::move(plan));

    // Chunks keep streaming across the outage window, so the link
    // sees losses while dead and fresh clean samples once it heals.
    PollingAgent agent(
        h.context(TransferMechanism::Polling, testRetry(6)));
    auto &eq = h.system.eventQueue();
    const int chunks = 32;
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 50 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    h.system.run();

    // The link flapped: declared DOWN during the outage, recovered
    // after it, and settled HEALTHY by the end of the run.
    bool went_down = false;
    bool recovered = false;
    for (const auto &t : mon.transitions()) {
        if (t.src != 0 || t.dst != 1)
            continue;
        if (t.to == LinkState::Down)
            went_down = true;
        else if (went_down)
            recovered = true;
    }
    EXPECT_TRUE(went_down);
    EXPECT_TRUE(recovered);
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);

    // No chunk was lost or double-counted across the flap.
    EXPECT_EQ(h.deliveries, chunks * h.peers());
}

TEST(LinkHealthTest, TransitionHoldoffDampensBorderlineFlapping)
{
    // A link straddling the degrade threshold flips at delivery rate
    // without a holdoff; with one, the classification may change at
    // most once per holdoff window.
    auto flap_count = [](Tick holdoff) {
        MultiGpuSystem system(voltaPlatform());
        HealthPolicy policy;
        policy.transitionHoldoff = holdoff;
        LinkHealthMonitor &mon = system.enableHealth(policy);
        auto &eq = system.eventQueue();

        // Alternate bursts of slow and fast samples (one sample per
        // microsecond, eight per burst): the EWMA swings across both
        // hysteresis thresholds once per burst.
        for (int i = 0; i < 64; ++i) {
            const bool slow = (i / 8) % 2 == 0;
            eq.schedule(static_cast<Tick>(i) * ticksPerMicrosecond,
                        [&mon, slow] {
                            mon.recordDelivery(0, 1, 64 * KiB, 0,
                                               slow ? ticksPerSecond
                                                    : 1);
                        });
        }
        system.run();
        return mon.transitions().size();
    };

    const auto free_running = flap_count(0);
    const auto held = flap_count(32 * ticksPerMicrosecond);
    ASSERT_GT(free_running, 2u);
    EXPECT_LT(held, free_running);
    // 64 us of samples, 32 us holdoff: at most the initial transition
    // plus two holdoff expiries.
    EXPECT_LE(held, 3u);
}

TEST(LinkHealthTest, ProbingGivesUpOnAPermanentlyDeadLink)
{
    HealthHarness h((voltaPlatform()));
    LinkHealthMonitor &mon = h.system.enableHealth();

    FaultPlan plan;
    plan.downLink(0, maxTick, 0, 1);
    h.system.installFaults(std::move(plan));

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(4)));
    agent.chunkReady(0, 4 * KiB);
    h.system.run(); // Must terminate: probing is bounded.

    EXPECT_EQ(mon.linkState(0, 1), LinkState::Down);
    EXPECT_GT(mon.stats().get("health.probes"), 0.0);
    EXPECT_LE(mon.stats().get("health.probes"),
              static_cast<double>(LinkHealthMonitor::maxProbeFailures));
}

TEST(RerouterTest, PlansDetourAroundDownLink)
{
    MultiGpuSystem system(pairwiseVolta());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    // Healthy: one direct leg.
    auto legs = rr.plan(0, 1);
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_TRUE(legs[0].direct());

    for (int i = 0; i < LinkHealthMonitor::downAfterLosses; ++i)
        mon.recordLoss(0, 1);
    legs = rr.plan(0, 1);
    // On 4 GPUs both healthy relays (2 and 3) survive, so the detour
    // fans out across them; deterministic tie-break orders by id.
    ASSERT_EQ(legs.size(), 2u);
    EXPECT_EQ(legs[0].via(), 2);
    EXPECT_EQ(legs[1].via(), 3);
    EXPECT_NEAR(legs[0].fraction + legs[1].fraction, 1.0, 1e-9);
}

TEST(RerouterTest, SplitsProportionallyOnDegradedLink)
{
    MultiGpuSystem system(pairwiseVolta());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (int i = 0; i < 16; ++i)
        mon.recordDelivery(0, 1, 64 * KiB, 0, ticksPerSecond);
    ASSERT_EQ(mon.linkState(0, 1), LinkState::Degraded);

    // This link is degraded so badly (residual ~1%) that its share of
    // a proportional split falls below the floor: the payload moves
    // entirely to the relay fan-out, split across both relays.
    const auto legs = rr.plan(0, 1);
    ASSERT_EQ(legs.size(), 2u);
    EXPECT_GE(legs[0].via(), 0);
    EXPECT_GE(legs[1].via(), 0);
    EXPECT_NEAR(legs[0].fraction + legs[1].fraction, 1.0, 1e-9);
    for (const auto &leg : legs)
        EXPECT_GE(leg.fraction, Rerouter::minSplitFraction);
}

TEST(RerouterTest, AgentTrafficDetoursAndAllChunksLand)
{
    HealthHarness h((pairwiseVolta()));
    h.system.enableHealth();
    Rerouter &rr = h.system.enableReroute();

    FaultPlan plan;
    plan.downLink(0, maxTick, 0, 1); // gpu0 -> gpu1 dead forever.
    h.system.installFaults(std::move(plan));

    // Chunks become ready over time (as a real producer kernel
    // drains), so sends issued after the DOWN verdict can detour.
    PollingAgent agent(
        h.context(TransferMechanism::Polling, testRetry(6)));
    const int chunks = 16;
    auto &eq = h.system.eventQueue();
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 50 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    h.system.run();

    // Exactly-once delivery accounting survives the detours (the
    // DOWN link's payload fans out across both relays, so the moves
    // show up as splits).
    EXPECT_EQ(h.deliveries, chunks * h.peers());
    EXPECT_GT(rr.stats().get("reroute.splits"), 0.0);
    EXPECT_GT(rr.stats().get("reroute.relay_hops"), 0.0);
    EXPECT_GT(rr.stats().get("reroute.bytes_detoured"), 0.0);
    EXPECT_EQ(h.system.health()->linkState(0, 1), LinkState::Down);
}

TEST(RerouterTest, ReroutedRunBeatsRetryOnly)
{
    // With gpu0->gpu1 dead from the start, a retry-only run burns its
    // attempt budget per chunk before the reliable fallback; the
    // rerouted run walks around the corpse. Detours must win.
    auto run_scenario = [](bool reroute) {
        HealthHarness h((pairwiseVolta()));
        if (reroute)
            h.system.enableReroute();
        FaultPlan plan;
        plan.downLink(0, maxTick, 0, 1);
        h.system.installFaults(std::move(plan));

        PollingAgent agent(
            h.context(TransferMechanism::Polling, testRetry(6)));
        auto &eq = h.system.eventQueue();
        for (int c = 0; c < 16; ++c) {
            eq.schedule(
                static_cast<Tick>(c) * 50 * ticksPerMicrosecond,
                [&agent, c] { agent.chunkReady(c, 64 * KiB); });
        }
        h.system.run();
        EXPECT_EQ(h.deliveries, 16 * h.peers());
        return h.lastDelivery;
    };

    const Tick retry_only = run_scenario(false);
    const Tick rerouted = run_scenario(true);
    EXPECT_LT(rerouted, retry_only);
}

TEST(RerouterTest, IdenticalSeedsReplayTickForTick)
{
    auto run_once = [] {
        HealthHarness h((pairwiseVolta()));
        h.system.enableReroute();
        FaultPlan plan;
        plan.seed = 99;
        plan.downLink(0, maxTick, 0, 1);
        plan.dropDeliveries(0, maxTick, 0.05, 2, 3);
        h.system.installFaults(std::move(plan));

        PollingAgent agent(
            h.context(TransferMechanism::Polling, testRetry(6)));
        auto &eq = h.system.eventQueue();
        for (int c = 0; c < 16; ++c) {
            eq.schedule(
                static_cast<Tick>(c) * 50 * ticksPerMicrosecond,
                [&agent, c] { agent.chunkReady(c, 64 * KiB); });
        }
        h.system.run();

        return std::tuple<Tick, int, double, double, double>(
            h.lastDelivery, h.deliveries,
            h.system.rerouter()->stats().get("reroute.splits"),
            h.system.rerouter()->stats().get("reroute.relay_hops"),
            h.system.health()->stats().get("health.transitions"));
    };

    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_GT(std::get<2>(a), 0.0);
}

TEST(LinkHealthTest, MttrLifecycleRepromotesAndDropsDetours)
{
    // A seeded MTTR/MTBF lifecycle kills the 0->1 link at least once
    // inside its horizon and repairs it. Under continuous load the
    // monitor must walk the link back to HEALTHY and the rerouter
    // must drop its detour plans once the wire re-promotes — traffic
    // after recovery rides the direct link again.
    HealthHarness h((pairwiseVolta()));
    h.system.enableHealth();
    Rerouter &rr = h.system.enableReroute();

    // Seed 1 draws two outages, [97, 244) and [283, 500) us: long
    // enough for the loss streak to trip DOWN, with over a
    // millisecond of clean traffic after the last repair.
    LinkLifecycleOptions lifecycle;
    lifecycle.mtbf = 80 * ticksPerMicrosecond;
    lifecycle.mttr = 200 * ticksPerMicrosecond;
    lifecycle.horizon = 500 * ticksPerMicrosecond;
    FaultPlan plan;
    plan.flapLink(1, 0, 1, lifecycle);
    ASSERT_FALSE(plan.empty());
    h.system.installFaults(std::move(plan));

    // Chunks stream well past the lifecycle horizon, so the link
    // sees losses while dead and clean samples after every repair.
    PollingAgent agent(
        h.context(TransferMechanism::Polling, testRetry(6)));
    auto &eq = h.system.eventQueue();
    const int chunks = 40;
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 40 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    h.system.run();

    bool went_down = false;
    bool recovered = false;
    for (const auto &t : h.system.health()->transitions()) {
        if (t.src != 0 || t.dst != 1)
            continue;
        if (t.to == LinkState::Down)
            went_down = true;
        else if (went_down && t.to == LinkState::Healthy)
            recovered = true;
    }
    EXPECT_TRUE(went_down);
    EXPECT_TRUE(recovered);
    EXPECT_EQ(h.system.health()->linkState(0, 1), LinkState::Healthy);

    // Re-promotion evicted the detour: the post-recovery plan is the
    // plain direct link, and no chunk was lost or duplicated.
    const auto &legs = rr.plan(0, 1);
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_TRUE(legs[0].direct());
    EXPECT_EQ(h.deliveries, chunks * h.peers());
}

TEST(RerouterTest, PushInvalidatesExactlyOncePerWireTransition)
{
    MultiGpuSystem system(pairwiseVolta());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    // Congestion round trip: HEALTHY -> CONGESTED -> HEALTHY. Both
    // flips reach the push listener and both are ignored.
    for (int i = 0; i < 8; ++i)
        mon.recordSample(0, 1, 64 * KiB, ticksPerSecond, 1);
    ASSERT_EQ(mon.linkState(0, 1), LinkState::Congested);
    for (int i = 0; i < 48; ++i)
        mon.recordSample(0, 1, 64 * KiB, 0, 1);
    ASSERT_EQ(mon.linkState(0, 1), LinkState::Healthy);
    EXPECT_EQ(rr.stats().get("reroute.push_invalidations"), 0.0);
    EXPECT_EQ(rr.stats().get("reroute.push_ignored"), 2.0);

    // Wire round trip: HEALTHY -> DOWN -> HEALTHY. Each wire
    // transition invalidates exactly once — the counters stay equal.
    for (int i = 0; i < LinkHealthMonitor::downAfterLosses; ++i)
        mon.recordLoss(0, 1);
    ASSERT_EQ(mon.linkState(0, 1), LinkState::Down);
    EXPECT_EQ(rr.stats().get("reroute.push_invalidations"),
              mon.stats().get("health.wire_transitions"));

    for (int i = 0; i < 16; ++i)
        mon.recordSample(0, 1, 64 * KiB, 0, 1);
    ASSERT_EQ(mon.linkState(0, 1), LinkState::Healthy);
    EXPECT_EQ(mon.stats().get("health.wire_transitions"), 2.0);
    EXPECT_EQ(rr.stats().get("reroute.push_invalidations"), 2.0);
    EXPECT_EQ(rr.stats().get("reroute.push_ignored"), 2.0);
}

TEST(RerouterTest, QuietFabricServesPlansFromCache)
{
    MultiGpuSystem system(pairwiseVolta());
    system.enableHealth();
    Rerouter &rr = system.enableReroute();

    const int n = system.numGpus();
    const int pairs = n * (n - 1);
    const int rounds = 100;
    for (int round = 0; round < rounds; ++round) {
        for (int s = 0; s < n; ++s) {
            for (int d = 0; d < n; ++d) {
                if (s != d) {
                    ASSERT_TRUE(rr.plan(s, d)[0].direct());
                }
            }
        }
    }
    // Quiet fabric: one compute per pair, everything else a flag
    // check.
    EXPECT_EQ(rr.stats().get("reroute.plan_computes"),
              static_cast<double>(pairs));
    EXPECT_EQ(rr.stats().get("reroute.plan_cache_hits"),
              static_cast<double>((rounds - 1) * pairs));
}

namespace {

/**
 * Reference for single-node fabrics: the edge-count BFS the relay-chain
 * search replaced, kept as it was. Shortest src -> dst path over
 * non-DOWN links within @p max_edges, neighbours visited in id order;
 * the relays in order, or empty when unreachable.
 */
std::vector<int>
referenceBfs(const LinkStateProvider &health, int n, int src, int dst,
             int max_edges)
{
    std::vector<int> parent(n, -1);
    std::vector<int> dist(n, -1);
    std::queue<int> frontier;
    dist[src] = 0;
    frontier.push(src);

    while (!frontier.empty()) {
        const int node = frontier.front();
        frontier.pop();
        if (node == dst)
            break;
        if (dist[node] >= max_edges)
            continue;
        for (int next = 0; next < n; ++next) {
            if (next == node || dist[next] >= 0)
                continue;
            if (health.linkState(node, next) == LinkState::Down)
                continue;
            dist[next] = dist[node] + 1;
            parent[next] = node;
            frontier.push(next);
        }
    }

    if (dist[dst] < 0 || dist[dst] > max_edges)
        return {};
    std::vector<int> vias;
    for (int node = parent[dst]; node != src; node = parent[node])
        vias.push_back(node);
    std::reverse(vias.begin(), vias.end());
    return vias;
}

/**
 * Reference for multi-node fabrics: the lexicographic
 * (network hops, edges) Dijkstra the relay-chain search replaced,
 * kept as it was, with heap ties broken by node id.
 */
std::vector<int>
referenceDijkstra(const Interconnect &fabric,
                  const LinkStateProvider &health, int src, int dst,
                  int max_edges)
{
    const int n = fabric.numGpus();
    struct Cost
    {
        int inter;
        int edges;
    };
    std::vector<Cost> best(n, Cost{n + 1, n + 1});
    std::vector<int> parent(n, -1);
    using Key = std::tuple<int, int, int>;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
    best[src] = Cost{0, 0};
    heap.push({0, 0, src});
    while (!heap.empty()) {
        const auto [ci, ce, node] = heap.top();
        heap.pop();
        if (ci != best[node].inter || ce != best[node].edges)
            continue;
        if (node == dst)
            break;
        if (ce >= max_edges)
            continue;
        for (int next = 0; next < n; ++next) {
            if (next == node)
                continue;
            if (health.linkState(node, next) == LinkState::Down)
                continue;
            const int ninter =
                ci + (fabric.interNodePair(node, next) ? 1 : 0);
            const int nedges = ce + 1;
            if (ninter > best[next].inter ||
                (ninter == best[next].inter &&
                 nedges >= best[next].edges)) {
                continue;
            }
            best[next] = Cost{ninter, nedges};
            parent[next] = node;
            heap.push({ninter, nedges, next});
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

/** The hops of the chain src -> vias... -> dst, in order. */
std::vector<std::pair<int, int>>
chainHops(int src, const std::vector<int> &vias, int dst)
{
    std::vector<std::pair<int, int>> hops;
    int from = src;
    for (const int via : vias) {
        hops.emplace_back(from, via);
        from = via;
    }
    hops.emplace_back(from, dst);
    return hops;
}

/** (network hops, edges) of the chain src -> vias... -> dst. */
std::pair<int, int>
chainCost(const Interconnect &fabric, int src,
          const std::vector<int> &vias, int dst)
{
    int inter = 0;
    for (const auto &[a, b] : chainHops(src, vias, dst))
        inter += fabric.interNodePair(a, b) ? 1 : 0;
    return {inter, static_cast<int>(vias.size()) + 1};
}

} // namespace

TEST(RerouterSearchTest, RelayChainsMatchTheReferenceSearches)
{
    // Each seeded case kills the direct link and, for every other GPU
    // k, either src -> k or k -> dst, so no single relay survives and
    // plan() must search for a chain; random extra DOWN links shape
    // the graph, and the search is bounded by Rerouter::maxRelayHops.
    // On one node the chain must equal the edge-count BFS exactly.
    // Across nodes it must match the node-id Dijkstra's reachability
    // and (network hops, edges) cost over live hops only; equal-cost
    // ties may pick another chain.
    constexpr std::uint64_t kCampaign = 0x7365617263u;
    constexpr int kCases = 2400;
    const FabricSpec chassis = dgx2Platform().fabric;
    int chains[2] = {0, 0};
    int no_path[2] = {0, 0};
    int crossings = 0;

    for (int c = 0; c < kCases; ++c) {
        Rng rng(deriveSeed(kCampaign, static_cast<std::uint64_t>(c)));
        const bool multi = c % 2 == 1;
        const int nodes = multi ? static_cast<int>(rng.between(2, 4)) : 1;
        const int per_node =
            static_cast<int>(multi ? rng.between(2, 8)
                                   : rng.between(3, 16));
        const int n = nodes * per_node;
        EventQueue eq;
        Interconnect fabric(
            eq,
            multi ? multiNodePlatform(nodes, per_node).fabric : chassis,
            n);

        const int src = static_cast<int>(rng.below(n));
        int dst = static_cast<int>(rng.below(n - 1));
        if (dst >= src)
            ++dst;
        ScriptedLinkState health;
        health.set(src, dst, LinkState::Down);
        for (int k = 0; k < n; ++k) {
            if (k == src || k == dst)
                continue;
            if (rng.below(2) == 0)
                health.set(src, k, LinkState::Down);
            else
                health.set(k, dst, LinkState::Down);
        }
        // Extra DOWN density up to 1: at the fixed hop bound this
        // keeps both outcomes common on both kinds of fabric.
        const double density = rng.uniform();
        for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
                if (a != b && rng.uniform() < density)
                    health.set(a, b, LinkState::Down);
            }
        }

        const int max_edges = Rerouter::maxRelayHops + 1;
        Rerouter rr(eq, fabric, health);
        ASSERT_TRUE(rr.relayCandidates(src, dst).empty()) << "case " << c;
        const auto &legs = rr.plan(src, dst);
        ASSERT_EQ(legs.size(), 1u) << "case " << c;
        const std::vector<int> &vias = legs.front().vias;
        const int kind = multi ? 1 : 0;
        if (vias.empty())
            ++no_path[kind];
        else
            ++chains[kind];

        if (!multi) {
            EXPECT_EQ(vias, referenceBfs(health, n, src, dst, max_edges))
                << "case " << c;
            continue;
        }
        const std::vector<int> reference =
            referenceDijkstra(fabric, health, src, dst, max_edges);
        ASSERT_EQ(vias.empty(), reference.empty()) << "case " << c;
        if (vias.empty())
            continue;
        const auto cost = chainCost(fabric, src, vias, dst);
        EXPECT_EQ(cost, chainCost(fabric, src, reference, dst))
            << "case " << c;
        crossings += cost.first > 0 ? 1 : 0;
        for (const auto &[a, b] : chainHops(src, vias, dst)) {
            EXPECT_NE(health.linkState(a, b), LinkState::Down)
                << "case " << c << ": " << a << "->" << b;
        }
    }

    // Both outcomes on both kinds of fabric, and chains that had to
    // cross the network tier.
    for (int kind = 0; kind < 2; ++kind) {
        EXPECT_GE(chains[kind], kCases / 10) << kind;
        EXPECT_GE(no_path[kind], kCases / 10) << kind;
    }
    EXPECT_GE(crossings, kCases / 20);
}
