/**
 * @file
 * Congestion / wire-fault discrimination battery.
 *
 * The fabric splits every delivery into queueing delay (time spent
 * behind other flows at shared ports) and wire service time (what the
 * delivery would cost on an idle fabric at current link rates). The
 * health monitor must classify from the right component: a port
 * backlog of equal observable magnitude to a wire fault must surface
 * as CONGESTED — never DEGRADED, never a reroute, never a plan
 * recompute — while the wire fault must trip DEGRADED and have fresh
 * route plans available the instant the transition fires. A seeded
 * fuzz campaign checks the whole stack keeps exactly-once delivery
 * and tick-for-tick replay when congestion and MTTR/MTBF link
 * flapping overlap.
 */

#include "faults/fault_plan.hh"
#include "health/link_health.hh"
#include "interconnect/rerouter.hh"
#include "proact/transfer_agent.hh"
#include "sim/random.hh"
#include "tests/scripted_link_state.hh"
#include "tests/small_workloads.hh"

#include <gtest/gtest.h>

#include <tuple>

using namespace proact;
using namespace proact::test;

namespace {

/** Shared-port Volta: flows into one GPU contend on its ingress. */
PlatformSpec
sharedVolta()
{
    return voltaPlatform();
}

/** Pairwise-link Volta: detours ride physically distinct wires. */
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

/** Submit one fire-and-forget transfer at the current tick. */
Tick
sendNow(MultiGpuSystem &system, int src, int dst, std::uint64_t bytes)
{
    Interconnect::Request req;
    req.src = src;
    req.dst = dst;
    req.bytes = bytes;
    req.writeGranularity = 256;
    return system.fabric().transfer(req);
}

/** Delivery latency of one transfer on an otherwise idle fabric. */
Tick
idleLatency(const PlatformSpec &platform, std::uint64_t bytes)
{
    MultiGpuSystem system(platform);
    return sendNow(system, 0, 1, bytes);
}

/** Campaign seed; each fuzz case derives its own stream from it. */
constexpr std::uint64_t kCongestionCampaign = 0x636f6e67u;

} // namespace

TEST(CongestionTest, PureCongestionIsNotAWireFault)
{
    MultiGpuSystem system(sharedVolta());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    // Warm the 0->1 route plan while the fabric is quiet.
    ASSERT_EQ(rr.plan(0, 1).size(), 1u);
    ASSERT_TRUE(rr.plan(0, 1)[0].direct());
    const double computes_warm =
        rr.stats().get("reroute.plan_computes");

    // Back up gpu1's shared ingress port with other flows' traffic.
    for (int i = 0; i < 6; ++i) {
        sendNow(system, 2, 1, 4 * MiB);
        sendNow(system, 3, 1, 4 * MiB);
    }

    // The measured 0->1 flow queues behind that backlog: its
    // end-to-end latency inflates at least as much as a serious wire
    // fault would inflate it...
    const Tick idle = idleLatency(sharedVolta(), 64 * KiB);
    Tick total_latency = 0;
    const int samples = 8;
    for (int i = 0; i < samples; ++i)
        total_latency += sendNow(system, 0, 1, 64 * KiB);
    EXPECT_GE(total_latency / samples, 2 * idle);

    // ...yet the monitor attributes the wait to queueing, not the
    // wire: CONGESTED, with the bandwidth EWMA unharmed.
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Congested);
    EXPECT_GT(mon.ewmaQueueRatio(0, 1),
              LinkHealthMonitor::congestedQueueRatio);
    EXPECT_DOUBLE_EQ(mon.residualFraction(0, 1), 1.0);
    EXPECT_EQ(mon.stats().get("health.wire_transitions"), 0.0);
    EXPECT_GT(mon.stats().get("health.to_congested"), 0.0);

    // Spread-don't-detour: congestion causes zero plan churn. The
    // push listener ignored every congestion-only flip, the warm
    // direct plan survived, and no detour or split was ever planned.
    EXPECT_EQ(rr.stats().get("reroute.push_invalidations"), 0.0);
    EXPECT_GT(rr.stats().get("reroute.push_ignored"), 0.0);
    const auto &legs = rr.plan(0, 1);
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_TRUE(legs[0].direct());
    EXPECT_EQ(rr.stats().get("reroute.plan_computes"), computes_warm);
    EXPECT_EQ(rr.stats().get("reroute.detours"), 0.0);
    EXPECT_EQ(rr.stats().get("reroute.splits"), 0.0);
}

TEST(CongestionTest, EqualMagnitudeWireFaultTripsDegradedAndReroutes)
{
    // Same observable slowdown, opposite verdict: a severity-0.9
    // degrade stretches the wire service itself (~10x), which must
    // land on the wire EWMA, trip DEGRADED, and evict the route plan
    // the instant the transition fires — no staleness window.
    const Tick idle = idleLatency(pairwiseVolta(), 64 * KiB);
    {
        MultiGpuSystem probe(pairwiseVolta());
        FaultPlan plan;
        plan.degradeLink(0, maxTick, 0.9, 0, 1);
        probe.installFaults(std::move(plan));
        Tick delivered = 0;
        Tick submitted = 0;
        probe.eventQueue().schedule(
            10 * ticksPerMicrosecond, [&] {
                submitted = probe.now();
                delivered = sendNow(probe, 0, 1, 64 * KiB);
            });
        probe.run();
        EXPECT_GE(delivered - submitted, 2 * idle);
    }

    MultiGpuSystem system(pairwiseVolta());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    FaultPlan plan;
    plan.degradeLink(0, maxTick, 0.9, 0, 1);
    system.installFaults(std::move(plan));

    // Warm the 0->1 plan so the transition has something to evict.
    ASSERT_TRUE(rr.plan(0, 1)[0].direct());

    Tick degraded_at = 0;
    bool plan_recomputed_at_transition = false;
    mon.addListener([&](int s, int d, LinkState, LinkState to) {
        if (s != 0 || d != 1 || to != LinkState::Degraded ||
            degraded_at != 0) {
            return;
        }
        degraded_at = system.now();
        // The rerouter's push listener ran first in this same
        // fan-out, so the very next lookup must recompute: route
        // decisions reflect the wire fault within the transition
        // itself, well inside any holdoff window.
        const double before = rr.stats().get("reroute.plan_computes");
        rr.plan(0, 1);
        plan_recomputed_at_transition =
            rr.stats().get("reroute.plan_computes") == before + 1.0;
    });

    StatSet stats;
    int deliveries = 0;
    TransferAgent::Context ctx;
    ctx.system = &system;
    ctx.gpuId = 0;
    ctx.config.mechanism = TransferMechanism::Polling;
    ctx.config.chunkBytes = 64 * KiB;
    ctx.config.transferThreads = 2048;
    ctx.config.retry = testRetry();
    ctx.stats = &stats;
    ctx.onDelivered = [&deliveries](std::uint64_t) { ++deliveries; };
    PollingAgent agent(ctx);

    const int chunks = 16;
    auto &eq = system.eventQueue();
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 50 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    system.run();

    EXPECT_EQ(mon.linkState(0, 1), LinkState::Degraded);
    EXPECT_LT(mon.residualFraction(0, 1),
              LinkHealthMonitor::degradedBwFraction);
    EXPECT_GT(degraded_at, 0u);
    EXPECT_TRUE(plan_recomputed_at_transition);
    EXPECT_GE(mon.stats().get("health.wire_transitions"), 1.0);
    EXPECT_GE(rr.stats().get("reroute.push_invalidations"), 1.0);
    // Traffic sent after the verdict split off the degraded wire,
    // and exactly-once accounting survived the splits.
    EXPECT_GT(rr.stats().get("reroute.splits"), 0.0);
    EXPECT_EQ(deliveries, chunks * (system.numGpus() - 1));
    EXPECT_GT(rr.plan(0, 1).size(), 1u);
}

TEST(CongestionTest, WireVerdictWinsWhenCongestionOverlapsAFault)
{
    // Both signals at once: the 0->1 pair link is degraded AND its
    // queue is backed up with earlier traffic. The wire verdict must
    // win — a congested EWMA never masks a broken wire.
    MultiGpuSystem system(pairwiseVolta());
    LinkHealthMonitor &mon = system.enableHealth();

    FaultPlan plan;
    plan.degradeLink(0, maxTick, 0.8, 0, 1);
    system.installFaults(std::move(plan));

    system.eventQueue().schedule(10 * ticksPerMicrosecond, [&] {
        // A burst of large transfers builds the queue...
        for (int i = 0; i < 6; ++i)
            sendNow(system, 0, 1, 1 * MiB);
        // ...and the measured samples wait behind it on a slow wire.
        for (int i = 0; i < 6; ++i)
            sendNow(system, 0, 1, 64 * KiB);
    });
    system.run();

    EXPECT_EQ(mon.linkState(0, 1), LinkState::Degraded);
    EXPECT_LT(mon.residualFraction(0, 1),
              LinkHealthMonitor::degradedBwFraction);
    // The congestion signal was genuinely present and tracked...
    EXPECT_GT(mon.ewmaQueueRatio(0, 1),
              LinkHealthMonitor::congestedQueueRatio);
    // ...but the classification came from the wire component.
    EXPECT_GE(mon.stats().get("health.wire_transitions"), 1.0);
}

TEST(CongestionTest, CongestionClearsWithoutDisturbingPlans)
{
    MultiGpuSystem system(sharedVolta());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    ASSERT_TRUE(rr.plan(0, 1)[0].direct());
    const double computes_warm =
        rr.stats().get("reroute.plan_computes");

    auto &eq = system.eventQueue();
    // Phase 1: backlog gpu1's ingress and sample 0->1 through it.
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i) {
            sendNow(system, 2, 1, 1 * MiB);
            sendNow(system, 3, 1, 1 * MiB);
        }
        for (int i = 0; i < 6; ++i)
            sendNow(system, 0, 1, 64 * KiB);
    });
    // Phase 2: long after the backlog drained, quiet samples walk
    // the queue EWMA back below the clear threshold.
    for (int i = 0; i < 48; ++i) {
        eq.schedule((2000 + static_cast<Tick>(i) * 5)
                        * ticksPerMicrosecond,
                    [&] { sendNow(system, 0, 1, 64 * KiB); });
    }
    system.run();

    // The link visited CONGESTED and came back — and nothing else.
    EXPECT_EQ(mon.linkState(0, 1), LinkState::Healthy);
    EXPECT_LT(mon.ewmaQueueRatio(0, 1), LinkHealthMonitor::clearQueueRatio);
    int congested = 0;
    int healthy = 0;
    for (const auto &t : mon.transitions()) {
        if (t.src != 0 || t.dst != 1)
            continue;
        if (t.to == LinkState::Congested)
            ++congested;
        else if (t.to == LinkState::Healthy)
            ++healthy;
        else
            ADD_FAILURE() << "unexpected transition " << t.describe();
    }
    EXPECT_EQ(congested, 1);
    EXPECT_EQ(healthy, 1);
    EXPECT_EQ(mon.stats().get("health.wire_transitions"), 0.0);

    // The whole congestion episode caused zero plan churn: no
    // recompute, no invalidation.
    EXPECT_EQ(rr.stats().get("reroute.plan_computes"), computes_warm);
    EXPECT_EQ(rr.stats().get("reroute.push_invalidations"), 0.0);
    EXPECT_GE(rr.stats().get("reroute.push_ignored"), 2.0);
}

class CongestionFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CongestionFuzz, DeliveryAttributionIdentityHolds)
{
    // Every sample the fabric exports must satisfy
    //   enqueued + queueDelay + serviceTime == delivered
    // with fault delay spikes charged to the service component —
    // under random traffic, degradation windows and delay faults.
    const std::uint64_t seed =
        deriveSeed(kCongestionCampaign, 100 + GetParam());
    Rng rng(seed);

    MultiGpuSystem system(sharedVolta());
    FaultPlan plan;
    plan.seed = seed;
    plan.degradeLink(100 * ticksPerMicrosecond,
                     400 * ticksPerMicrosecond, 0.5, 0, 1);
    plan.delayDeliveries(50 * ticksPerMicrosecond,
                         300 * ticksPerMicrosecond,
                         5 * ticksPerMicrosecond, 2, 3);
    system.installFaults(std::move(plan));

    int samples = 0;
    system.fabric().addDeliveryObserver(
        [&samples](const Interconnect::Request &,
                   const Interconnect::DeliverySample &s) {
            ++samples;
            EXPECT_EQ(s.enqueued + s.queueDelay + s.serviceTime,
                      s.delivered);
            EXPECT_GE(s.start, s.enqueued);
            EXPECT_GT(s.serviceTime, 0u);
            EXPECT_GT(s.wireBytes, 0u);
        });

    auto &eq = system.eventQueue();
    for (int i = 0; i < 120; ++i) {
        const int src = static_cast<int>(rng.below(4));
        int dst = static_cast<int>(rng.below(3));
        if (dst >= src)
            ++dst;
        const std::uint64_t bytes = 1 + rng.below(256 * KiB);
        eq.schedule(rng.below(500) * ticksPerMicrosecond,
                    [&system, src, dst, bytes] {
                        sendNow(system, src, dst, bytes);
                    });
    }
    system.run();
    EXPECT_EQ(samples, 120);
}

TEST_P(CongestionFuzz, ExactlyOnceUnderFlappingAndCongestion)
{
    // MTTR/MTBF link flapping overlapping bursty background traffic:
    // whatever the derived stream draws, every chunk lands on every
    // peer exactly once and the run replays tick-for-tick.
    const std::uint64_t seed =
        deriveSeed(kCongestionCampaign, GetParam());

    auto run_once = [seed] {
        MultiGpuSystem system(pairwiseVolta());
        system.setFunctional(false);
        LinkHealthMonitor &mon = system.enableHealth();
        Rerouter &rr = system.enableReroute();

        LinkLifecycleOptions lifecycle;
        lifecycle.mtbf = 150 * ticksPerMicrosecond;
        lifecycle.mttr = 60 * ticksPerMicrosecond;
        lifecycle.horizon = 600 * ticksPerMicrosecond;
        lifecycle.downProbability = 0.5;
        system.installFaults(
            mtbfFaultPlan(seed, system.numGpus(), 2, lifecycle));

        StatSet stats;
        int deliveries = 0;
        Tick last = 0;
        TransferAgent::Context ctx;
        ctx.system = &system;
        ctx.gpuId = 0;
        ctx.config.mechanism = TransferMechanism::Polling;
        ctx.config.chunkBytes = 64 * KiB;
        ctx.config.transferThreads = 2048;
        ctx.config.retry = testRetry();
        ctx.config.retry.rerouteAfterAttempts = 2;
        ctx.stats = &stats;
        ctx.onDelivered = [&deliveries, &last,
                           &system](std::uint64_t) {
            ++deliveries;
            last = system.now();
        };
        PollingAgent agent(ctx);

        auto &eq = system.eventQueue();
        // Bursty background load (fire-and-forget, unacknowledged).
        Rng rng(deriveSeed(seed, 1u << 20));
        for (int i = 0; i < 40; ++i) {
            const int src = static_cast<int>(rng.below(4));
            int dst = static_cast<int>(rng.below(3));
            if (dst >= src)
                ++dst;
            const std::uint64_t bytes = 1 + rng.below(512 * KiB);
            eq.schedule(rng.below(700) * ticksPerMicrosecond,
                        [&system, src, dst, bytes] {
                            sendNow(system, src, dst, bytes);
                        });
        }
        // The measured, acknowledged flow.
        const int chunks = 8;
        for (int c = 0; c < chunks; ++c) {
            eq.schedule(
                static_cast<Tick>(c) * 60 * ticksPerMicrosecond,
                [&agent, c] { agent.chunkReady(c, 64 * KiB); });
        }
        system.run();

        EXPECT_EQ(deliveries, chunks * (system.numGpus() - 1))
            << "case " << seed;

        return std::make_tuple(
            last, deliveries, stats.get("transfers.retried"),
            stats.get("fallback.activations"),
            rr.stats().get("reroute.detours")
                + rr.stats().get("reroute.splits"),
            rr.stats().get("reroute.push_invalidations"),
            mon.stats().get("health.transitions"),
            mon.stats().get("health.wire_transitions"),
            mon.stats().get("health.to_congested"));
    };

    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b) << "case " << GetParam()
                    << " did not replay deterministically";
}

INSTANTIATE_TEST_SUITE_P(Cases, CongestionFuzz,
                         ::testing::Range<std::uint64_t>(0u, 8u));

namespace {

/** Fraction carried via relay @p via in @p plan (0 if absent). */
double
relayFraction(const std::vector<Rerouter::Leg> &plan, int via)
{
    for (const auto &leg : plan)
        if (!leg.direct() && leg.via() == via)
            return leg.fraction;
    return 0.0;
}

} // namespace

TEST(CongestedRelayTest, FlatPenaltyTreatsAllBacklogsAlike)
{
    // Direct 0->1 is DOWN on a 4-GPU fabric; relays 2 and 3 are both
    // CONGESTED on their first hop. Routing reads the classification,
    // not the backlog behind it, so however deep either queue is,
    // both relays pay the same flat congestedPenalty.
    EventQueue eq;
    FabricSpec spec = sharedVolta().fabric;
    Interconnect fabric(eq, spec, 4);
    ScriptedLinkState health;
    health.set(0, 1, LinkState::Down);
    health.set(0, 2, LinkState::Congested);
    health.set(0, 3, LinkState::Congested);

    Rerouter rr(eq, fabric, health);
    const auto &plan = rr.plan(0, 1);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_DOUBLE_EQ(relayFraction(plan, 2), relayFraction(plan, 3));
}
