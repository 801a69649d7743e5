/**
 * @file
 * DGX-2 scale tests for the fault-adaptive stack: topology
 * invariants of the 16-GPU NVSwitch fabric (every directed pair
 * reachable even with its direct link dead, redundant disjoint relay
 * candidates, bandwidth symmetry), multi-relay chain detours when the
 * single-relay fan-out is wiped out, chassis-level fault-plan
 * builders, exact plan-cache invalidation, and end-to-end delivery
 * across a dead baseboard.
 */

#include "health/link_health.hh"
#include "interconnect/rerouter.hh"
#include "proact/transfer_agent.hh"
#include "sim/logging.hh"
#include "system/platform.hh"

#include <gtest/gtest.h>

#include <vector>

using namespace proact;

namespace {

constexpr int numGpus = 16;

/** Drive a link into DOWN through the monitor's own hysteresis. */
void
killLink(LinkHealthMonitor &mon, int src, int dst)
{
    for (int i = 0; i < LinkHealthMonitor::downAfterLosses; ++i)
        mon.recordLoss(src, dst);
    ASSERT_EQ(mon.linkState(src, dst), LinkState::Down);
}

/** Walk a DOWN link back to HEALTHY with a clean delivery streak. */
void
reviveLink(LinkHealthMonitor &mon, int src, int dst)
{
    for (int i = 0; i < LinkHealthMonitor::recoverAfterDeliveries + 1; ++i)
        mon.recordDelivery(src, dst, 64 * KiB, 0, 1);
    ASSERT_EQ(mon.linkState(src, dst), LinkState::Healthy);
}

/** Agent-level harness mirroring tests/test_health.cc. */
struct Dgx2Harness
{
    MultiGpuSystem system;
    int deliveries = 0;
    Tick lastDelivery = 0;
    StatSet stats;

    Dgx2Harness() : system(dgx2Platform()) {}

    TransferAgent::Context
    context(RetryPolicy retry)
    {
        TransferAgent::Context ctx;
        ctx.system = &system;
        ctx.gpuId = 0;
        ctx.config.mechanism = TransferMechanism::Polling;
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

TEST(Dgx2TopologyTest, PlatformShape)
{
    const PlatformSpec p = dgx2Platform();
    EXPECT_EQ(p.numGpus, numGpus);
    EXPECT_EQ(dgx2GpusPerBaseboard * 2, numGpus);
    EXPECT_EQ(dgx2Baseboard(0).front(), 0);
    EXPECT_EQ(dgx2Baseboard(0).back(), 7);
    EXPECT_EQ(dgx2Baseboard(1).front(), 8);
    EXPECT_EQ(dgx2Baseboard(1).back(), 15);
    EXPECT_THROW(dgx2Baseboard(2), FatalError);
}

TEST(Dgx2TopologyTest, AllDirectedPairsSurviveTheirDirectLinkDying)
{
    // For every one of the 16*15 = 240 directed pairs: kill that
    // pair's direct link, and the rerouter must still plan a complete
    // detour (every leg off the dead wire, fractions summing to 1).
    // The link is then revived before the next pair, which also
    // exercises DOWN -> HEALTHY recovery 240 times.
    MultiGpuSystem system(dgx2Platform());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (int s = 0; s < numGpus; ++s) {
        for (int d = 0; d < numGpus; ++d) {
            if (s == d)
                continue;
            killLink(mon, s, d);

            const auto &legs = rr.plan(s, d);
            ASSERT_FALSE(legs.empty()) << s << "->" << d;
            double total = 0.0;
            for (const auto &leg : legs) {
                EXPECT_FALSE(leg.direct()) << s << "->" << d;
                total += leg.fraction;
            }
            EXPECT_NEAR(total, 1.0, 1e-9) << s << "->" << d;

            reviveLink(mon, s, d);
        }
    }
}

TEST(Dgx2TopologyTest, EveryPairHasRedundantDisjointRelays)
{
    // Distinct single-relay candidates are vertex-disjoint detours by
    // construction; the ISSUE floor is two per pair even after the
    // direct link died (a healthy DGX-2 offers all 14).
    MultiGpuSystem system(dgx2Platform());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (int s = 0; s < numGpus; ++s) {
        for (int d = 0; d < numGpus; ++d) {
            if (s == d)
                continue;
            EXPECT_EQ(rr.relayCandidates(s, d).size(),
                      static_cast<std::size_t>(numGpus - 2));
        }
    }

    killLink(mon, 0, 1);
    EXPECT_GE(rr.relayCandidates(0, 1).size(), 2u);
}

TEST(Dgx2TopologyTest, BandwidthIsSymmetricAcrossAllPairs)
{
    // The NVSwitch fabric is non-blocking and symmetric: an isolated
    // transfer of the same size must take exactly as long in both
    // directions of every pair. Each probe runs on a fresh system so
    // earlier bookings can't skew the later measurements.
    auto isolated_duration = [](int src, int dst) {
        MultiGpuSystem system(dgx2Platform());
        Interconnect::Request req;
        req.src = src;
        req.dst = dst;
        req.bytes = 256 * KiB;
        req.writeGranularity = static_cast<std::uint32_t>(
            system.fabric().packetModel().maxPayloadBytes);
        req.threads = 2048;
        return system.fabric().transfer(req);
    };

    const Tick reference = isolated_duration(0, 1);
    EXPECT_GT(reference, 0);
    for (int s = 0; s < numGpus; ++s) {
        for (int d = s + 1; d < numGpus; ++d) {
            const Tick forward = isolated_duration(s, d);
            const Tick reverse = isolated_duration(d, s);
            EXPECT_EQ(forward, reverse) << s << "<->" << d;
            EXPECT_EQ(forward, reference) << s << "->" << d;
        }
    }
}

TEST(Dgx2RerouteTest, MultiRelayDetourWhenEverySingleRelayIsDead)
{
    // Wipe out every single-relay candidate for 0 -> 2: gpu0 can only
    // reach gpu1, and gpu1 cannot reach gpu2. The shortest surviving
    // route needs two relays (0 -> 1 -> x -> 2); the chain search
    // must find it, deterministically picking the lowest-id x = 3.
    MultiGpuSystem system(dgx2Platform());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (int k = 2; k < numGpus; ++k)
        killLink(mon, 0, k);
    killLink(mon, 1, 2);

    const auto &legs = rr.plan(0, 2);
    ASSERT_EQ(legs.size(), 1u);
    ASSERT_EQ(legs[0].vias.size(), 2u);
    EXPECT_EQ(legs[0].vias[0], 1);
    EXPECT_EQ(legs[0].vias[1], 3);
    EXPECT_DOUBLE_EQ(legs[0].fraction, 1.0);

    // The planned chain actually delivers, and exactly once.
    int completions = 0;
    Interconnect::Request req;
    req.src = 0;
    req.dst = 2;
    req.bytes = 64 * KiB;
    req.writeGranularity = static_cast<std::uint32_t>(
        system.fabric().packetModel().maxPayloadBytes);
    req.threads = 2048;
    req.onComplete = [&completions] { ++completions; };
    rr.send([&](const Interconnect::Request &leg) {
        return system.fabric().transfer(leg);
    }, req);
    system.run();

    EXPECT_EQ(completions, 1);
    EXPECT_GT(rr.stats().get("reroute.relay_hops"), 1.0);
    EXPECT_GT(rr.stats().get("reroute.detours"), 0.0);
}

TEST(Dgx2RerouteTest, ChainPlanDropsADeadInteriorHop)
{
    // A relay chain reads links outside its own row and column, so
    // every wire transition must evict it: 1 -> 3 dying makes the
    // cached 0 -> 1 -> 3 -> 2 chain useless, and a DOWN-direct plan
    // that found no chain at all must see an interior link recover.
    // The clock stays at tick 0, so no plan expires by
    // Rerouter::planTtl: only transitions evict.
    MultiGpuSystem system(dgx2Platform());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (int k = 2; k < numGpus; ++k)
        killLink(mon, 0, k);
    killLink(mon, 1, 2);
    ASSERT_EQ(rr.plan(0, 2).front().vias, (std::vector<int>{1, 3}));

    killLink(mon, 1, 3);
    EXPECT_EQ(rr.plan(0, 2).front().vias, (std::vector<int>{1, 4}));

    // Sever every chain through gpu1: no path, the plan is direct.
    for (int k = 4; k < numGpus; ++k)
        killLink(mon, 1, k);
    ASSERT_EQ(rr.plan(0, 2).size(), 1u);
    EXPECT_TRUE(rr.plan(0, 2).front().direct());

    reviveLink(mon, 1, 9);
    EXPECT_EQ(rr.plan(0, 2).front().vias, (std::vector<int>{1, 9}));
}

TEST(Dgx2FaultPlanTest, ChassisBuildersExpandCorrectly)
{
    {
        // Three of six planes: every directed pair degrades by 1/2,
        // correlated as one group.
        FaultPlan plan;
        dgx2DownSwitchPlanes(plan, 0, maxTick,
                             dgx2NumSwitchPlanes / 2);
        EXPECT_NO_THROW(plan.validate(numGpus));
        EXPECT_EQ(plan.episodes.size(),
                  static_cast<std::size_t>(numGpus * (numGpus - 1)));
        EXPECT_EQ(plan.numGroups(), 1);
        for (const auto &e : plan.episodes) {
            EXPECT_EQ(e.kind, FaultKind::LinkDegrade);
            EXPECT_DOUBLE_EQ(e.severity, 0.5);
        }
    }
    {
        // All six planes dead is a dead chassis, not a degradation.
        FaultPlan plan;
        EXPECT_THROW(
            dgx2DownSwitchPlanes(plan, 0, maxTick,
                                 dgx2NumSwitchPlanes),
            FatalError);
    }
    {
        // Board 1 down: every intra-board pair of GPUs 8..15 is dead
        // (8 * 7 directed pairs); cross-board pairs are untouched.
        FaultPlan plan;
        dgx2DownBaseboard(plan, 0, maxTick, 1);
        EXPECT_NO_THROW(plan.validate(numGpus));
        EXPECT_EQ(plan.episodes.size(),
                  static_cast<std::size_t>(dgx2GpusPerBaseboard
                                           * (dgx2GpusPerBaseboard
                                              - 1)));
        for (const auto &e : plan.episodes) {
            EXPECT_EQ(e.kind, FaultKind::LinkDown);
            EXPECT_GE(e.src, dgx2GpusPerBaseboard);
            EXPECT_GE(e.dst, dgx2GpusPerBaseboard);
        }
    }
}

TEST(Dgx2FaultPlanTest, ChassisBuildersComposeWithNodeOffset)
{
    // The same chassis builders target the second node of a 2x16
    // platform through the first_gpu offset.
    const int offset = numGpus;
    EXPECT_EQ(dgx2Baseboard(0, offset).front(), 16);
    EXPECT_EQ(dgx2Baseboard(0, offset).back(), 23);
    EXPECT_EQ(dgx2Baseboard(1, offset).front(), 24);
    EXPECT_EQ(dgx2Baseboard(1, offset).back(), 31);
    EXPECT_THROW(dgx2Baseboard(0, -1), FatalError);

    {
        FaultPlan plan;
        dgx2DownBaseboard(plan, 0, maxTick, 1, offset);
        EXPECT_NO_THROW(plan.validate(2 * numGpus));
        EXPECT_EQ(plan.episodes.size(),
                  static_cast<std::size_t>(dgx2GpusPerBaseboard
                                           * (dgx2GpusPerBaseboard
                                              - 1)));
        for (const auto &e : plan.episodes) {
            EXPECT_GE(e.src, offset + dgx2GpusPerBaseboard);
            EXPECT_GE(e.dst, offset + dgx2GpusPerBaseboard);
            EXPECT_LT(e.src, 2 * numGpus);
            EXPECT_LT(e.dst, 2 * numGpus);
        }
        // An offset plan names GPUs a single chassis does not have.
        EXPECT_THROW(plan.validate(numGpus), FatalError);
    }
    {
        FaultPlan plan;
        dgx2DownSwitchPlanes(plan, 0, maxTick,
                             dgx2NumSwitchPlanes / 2, offset);
        EXPECT_NO_THROW(plan.validate(2 * numGpus));
        EXPECT_EQ(plan.episodes.size(),
                  static_cast<std::size_t>(numGpus * (numGpus - 1)));
        for (const auto &e : plan.episodes) {
            EXPECT_GE(e.src, offset);
            EXPECT_GE(e.dst, offset);
        }
    }
}

TEST(Dgx2FaultPlanTest, NodeDownBuilder)
{
    const PlatformSpec platform = multiNodePlatform(2, numGpus);
    FaultPlan plan;
    nodeDown(plan, platform, 0, maxTick, 1);
    EXPECT_NO_THROW(plan.validate(platform.numGpus));
    EXPECT_EQ(plan.episodes.size(), static_cast<std::size_t>(numGpus));
    for (const auto &e : plan.episodes) {
        EXPECT_EQ(e.kind, FaultKind::GpuDown);
        EXPECT_GE(e.gpu, numGpus);
        EXPECT_LT(e.gpu, 2 * numGpus);
    }

    FaultPlan bad;
    EXPECT_THROW(nodeDown(bad, dgx2Platform(), 0, maxTick, 0),
                 FatalError);
    EXPECT_THROW(nodeDown(bad, platform, 0, maxTick, 2), FatalError);
    EXPECT_THROW(nodeDown(bad, platform, 0, maxTick, -1), FatalError);
}

TEST(Dgx2RerouteTest, PlanCacheInvalidatesExactly)
{
    // The clock stays at tick 0, so no plan expires by
    // Rerouter::planTtl: every recompute below is a transition's.
    MultiGpuSystem system(dgx2Platform());
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    auto computes = [&rr] {
        return rr.stats().get("reroute.plan_computes");
    };
    auto hits = [&rr] {
        return rr.stats().get("reroute.plan_cache_hits");
    };

    // First lookup computes, the second is served from the cache.
    rr.plan(0, 1);
    EXPECT_DOUBLE_EQ(computes(), 1.0);
    rr.plan(0, 1);
    EXPECT_DOUBLE_EQ(computes(), 1.0);
    EXPECT_DOUBLE_EQ(hits(), 1.0);

    // A transition on an unrelated link (4 -> 5 touches neither row 0
    // nor column 1) must not invalidate the healthy direct plan.
    killLink(mon, 4, 5);
    rr.plan(0, 1);
    EXPECT_DOUBLE_EQ(computes(), 1.0);

    // A transition of the direct link itself invalidates immediately.
    killLink(mon, 0, 1);
    const auto &legs = rr.plan(0, 1);
    EXPECT_DOUBLE_EQ(computes(), 2.0);
    EXPECT_FALSE(legs[0].direct());

    // The plan is now relay-based, so it reads row 0: a transition on
    // another 0 -> x link invalidates it (relay x just died) ...
    killLink(mon, 0, 9);
    rr.plan(0, 1);
    EXPECT_DOUBLE_EQ(computes(), 3.0);

    // ... but a second unrelated transition still does not.
    killLink(mon, 4, 6);
    rr.plan(0, 1);
    EXPECT_DOUBLE_EQ(computes(), 3.0);

    // Bookkeeping: every lookup was either a compute or a hit.
    EXPECT_DOUBLE_EQ(rr.stats().get("reroute.plan_requests"),
                     computes() + hits());
}

TEST(Dgx2RerouteTest, DeadBaseboardTrafficLandsExactlyOnce)
{
    // gpu0 sits on the dead board: its seven intra-board links are
    // gone, the eight cross-board ones survive. Reroute-aware retry
    // must land every chunk on every peer exactly once, moving the
    // intra-board payload through cross-board relays.
    Dgx2Harness h;
    h.system.enableHealth();
    Rerouter &rr = h.system.enableReroute();

    FaultPlan plan;
    dgx2DownBaseboard(plan, 0, maxTick, 0);
    h.system.installFaults(std::move(plan));

    RetryPolicy retry;
    retry.enabled = true;
    retry.maxAttempts = 8;
    retry.rerouteAfterAttempts = 2;
    PollingAgent agent(h.context(retry));

    const int chunks = 8;
    auto &eq = h.system.eventQueue();
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 50 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    h.system.run();

    EXPECT_EQ(h.deliveries, chunks * h.peers());
    EXPECT_GT(rr.stats().get("reroute.bytes_detoured"), 0.0);
    EXPECT_GT(rr.stats().get("reroute.plan_cache_hits"),
              rr.stats().get("reroute.plan_computes"));
}
