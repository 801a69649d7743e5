/**
 * @file
 * Multi-node fabric battery (`ctest -L multinode`).
 *
 * Gates the hierarchical N-node platform: topology invariants of the
 * two-tier fabric (per-tier link counts, bandwidth/latency symmetry,
 * builder validation), hierarchical-routing properties (healthy
 * cross-node pairs never detour through a third node, per-tier
 * packetization goodput is monotone in transfer size, the relay-chain
 * search minimizes network-tier hops before edge count, and the
 * tier-masked plan cache lets cross-node link transitions evict
 * independently of intra-node ones), all five workloads completing
 * and replaying identically at 2x16 and 4x16 GPUs, and a 24-seed
 * fault fuzz mixing inter-node link flaps with device loss that must
 * drain with zero leaked flights.
 */

#include "faults/fault_plan.hh"
#include "harness/session.hh"
#include "health/device_health.hh"
#include "health/link_health.hh"
#include "interconnect/interconnect.hh"
#include "interconnect/rerouter.hh"
#include "proact/transfer_agent.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "system/multi_gpu_system.hh"
#include "system/platform.hh"
#include "tests/small_workloads.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

using namespace proact;

namespace {

/** Drive a link into DOWN through the monitor's own hysteresis. */
void
killLink(LinkHealthMonitor &mon, int src, int dst)
{
    for (int i = 0; i < LinkHealthMonitor::downAfterLosses; ++i)
        mon.recordLoss(src, dst);
    ASSERT_EQ(mon.linkState(src, dst), LinkState::Down);
}

Session::RunOptions
batteryOptions()
{
    Session::RunOptions options;
    options.functional = false;
    options.config.mechanism = TransferMechanism::Polling;
    options.config.chunkBytes = 64 * KiB;
    options.config.transferThreads = 2048;
    return options;
}

/** Node membership of @p gpu's every planned relay must satisfy
 * @p allowed; flattens the plan's legs into one via list. */
std::vector<int>
plannedVias(const Rerouter &rr, int src, int dst)
{
    std::vector<int> vias;
    for (const auto &leg : rr.plan(src, dst))
        vias.insert(vias.end(), leg.vias.begin(), leg.vias.end());
    return vias;
}

} // namespace

TEST(MultiNodeTopology, BuilderValidatesShape)
{
    EXPECT_THROW(multiNodePlatform(1, 16), FatalError);
    EXPECT_THROW(multiNodePlatform(2, 1), FatalError);

    const PlatformSpec p = multiNodePlatform(2, 16);
    EXPECT_EQ(p.numGpus, 32);
    EXPECT_TRUE(p.fabric.multiNode());
    EXPECT_EQ(p.fabric.gpusPerNode, 16);
    EXPECT_EQ(p.fabric.topology, FabricTopology::PairwiseLinks);
    EXPECT_EQ(p.fabric.nodeOf(15), 0);
    EXPECT_EQ(p.fabric.nodeOf(16), 1);
    EXPECT_TRUE(p.fabric.sameNode(0, 15));
    EXPECT_FALSE(p.fabric.sameNode(15, 16));

    // The network tier is strictly slower and farther than the
    // chassis tier, and the base latency stays the intra minimum.
    EXPECT_LT(p.fabric.interPerGpuBidirBandwidth,
              p.fabric.perGpuBidirBandwidth);
    EXPECT_GT(p.fabric.interLatency, p.fabric.latency);
}

TEST(MultiNodeTopology, LinkCountsAndTierSymmetry)
{
    EventQueue eq;
    const PlatformSpec platform = multiNodePlatform(2, 4);
    Interconnect fab(eq, platform.fabric, platform.numGpus);
    const int n = platform.numGpus;

    int intra = 0;
    int inter = 0;
    double intra_rate = -1.0;
    double inter_rate = -1.0;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            // Tier symmetry: forward and reverse carry identical
            // bandwidth and latency, and every pair of a tier is
            // uniform.
            EXPECT_EQ(fab.pairLink(i, j).rate(),
                      fab.pairLink(j, i).rate())
                << i << "<->" << j;
            EXPECT_EQ(fab.pairLatency(i, j), fab.pairLatency(j, i))
                << i << "<->" << j;
            double &tier_rate =
                fab.interNodePair(i, j) ? inter_rate : intra_rate;
            if (tier_rate < 0.0)
                tier_rate = fab.nominalPairRate(i, j);
            EXPECT_DOUBLE_EQ(tier_rate, fab.nominalPairRate(i, j))
                << i << "->" << j;
            ++(fab.interNodePair(i, j) ? inter : intra);
        }
    }

    // 2 nodes x 4 GPUs: 2 x (4*3) intra directed pairs, 4*4 inter
    // directed pairs each way.
    EXPECT_EQ(intra, 24);
    EXPECT_EQ(inter, 32);
    EXPECT_LT(inter_rate, intra_rate);
}

TEST(MultiNodeTopology, PerTierGoodputMonotoneInTransferSize)
{
    EventQueue eq;
    const PlatformSpec platform = multiNodePlatform(2, 4);
    Interconnect fab(eq, platform.fabric, platform.numGpus);

    // Goodput (payload / wire) at the tier's best granularity must
    // be monotone over power-of-two transfer sizes. (It is NOT
    // monotone over arbitrary sizes: one byte past a packet boundary
    // adds a whole header, e.g. 4096 -> 4097 on the IB tier.)
    for (const auto &model : {fab.pairPacketModel(0, 1),
                              fab.pairPacketModel(0, 4)}) {
        double prev = 0.0;
        for (std::uint64_t bytes = 512; bytes <= 16 * MiB;
             bytes *= 2) {
            const double goodput =
                static_cast<double>(bytes)
                / static_cast<double>(
                      model.wireBytes(bytes,
                                      model.bestGranularity()));
            EXPECT_GE(goodput, prev)
                << bytes << "B at payload "
                << model.maxPayloadBytes;
            prev = goodput;
        }
        EXPECT_GT(prev, 0.85);
    }
}

TEST(MultiNodeRouting, HealthyCrossNodePairsTakeTheDirectPath)
{
    // A HEALTHY inter-node link is the plan, full stop: no relay
    // fan-out, no third node, regardless of the tier's lower
    // bandwidth.
    MultiGpuSystem system(multiNodePlatform(4, 4));
    system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (const auto &[src, dst] : {std::pair{0, 4}, {0, 13},
                                   {5, 11}, {15, 2}}) {
        const auto &legs = rr.plan(src, dst);
        ASSERT_EQ(legs.size(), 1u) << src << "->" << dst;
        EXPECT_TRUE(legs.front().direct()) << src << "->" << dst;
    }
}

TEST(MultiNodeRouting, DetoursStayOnEndpointNodes)
{
    // 3 nodes x 4 GPUs: node 0 = {0..3}, node 1 = {4..7},
    // node 2 = {8..11} is foreign to the 0->5 pair.
    MultiGpuSystem system(multiNodePlatform(3, 4));
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    // Dead direct inter-node link: every relay candidate and every
    // planned via sits on one of the two endpoint nodes (one network
    // hop), never on the foreign node (two network hops).
    killLink(mon, 0, 5);
    for (const int via : rr.relayCandidates(0, 5))
        EXPECT_TRUE(via < 8 && via != 0 && via != 5) << via;
    EXPECT_FALSE(rr.relayCandidates(0, 5).empty());
    for (const int via : plannedVias(rr, 0, 5))
        EXPECT_LT(via, 8) << via;

    // Dead intra-node link: the detour stays inside the node.
    killLink(mon, 0, 1);
    const auto intra_relays = rr.relayCandidates(0, 1);
    EXPECT_FALSE(intra_relays.empty());
    for (const int via : intra_relays)
        EXPECT_TRUE(via == 2 || via == 3) << via;

    // Only once every endpoint-node relay is unusable may the plan
    // consult the foreign node.
    for (const int k : {2, 3})
        killLink(mon, 0, k);
    for (const int k : {4, 6, 7})
        killLink(mon, k, 5);
    const auto foreign = rr.relayCandidates(0, 5);
    EXPECT_FALSE(foreign.empty());
    for (const int via : foreign)
        EXPECT_TRUE(via >= 8 && via < 12) << via;
}

TEST(MultiNodeRouting, RelayChainMinimizesNetworkHopsBeforeEdgeCount)
{
    // 2 nodes x 8 GPUs, pair 0->2. Kill links so that no single
    // relay survives and exactly two multi-relay detours remain:
    //   intra: 0->1->3->5->2   (4 edges, 0 network hops)
    //   cross: 0->1->f->2      (3 edges, 2 network hops, f >= 8)
    // An edge-count BFS would take the 3-edge path through the
    // remote node; the hierarchical search must pay the extra edge
    // to stay on the chassis tier.
    MultiGpuSystem system(multiNodePlatform(2, 8));
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();

    for (int k = 2; k < 16; ++k)
        killLink(mon, 0, k); // Only 0->1 leaves GPU 0.
    for (const int k : {2, 4, 5, 6, 7})
        killLink(mon, 1, k); // Keep 1->3 and 1->{8..15}.
    for (const int k : {3, 4, 6, 7})
        killLink(mon, k, 2); // Keep 5->2 and {8..15}->2.

    EXPECT_TRUE(rr.relayCandidates(0, 2).empty());
    const auto &legs = rr.plan(0, 2);
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_EQ(legs.front().vias, (std::vector<int>{1, 3, 5}));
}

TEST(MultiNodeRouting, TierMaskedCacheInvalidatesIndependently)
{
    // A cached relay plan is evicted by a row/column link transition
    // only when the plan actually read that link's tier.
    MultiGpuSystem system(multiNodePlatform(2, 4));
    LinkHealthMonitor &mon = system.enableHealth();
    Rerouter &rr = system.enableReroute();
    const auto computes = [&rr] {
        return rr.stats().get("reroute.plan_computes");
    };

    // Intra-only relay plan for 0->1 (relays {2, 3} never leave the
    // node, so the plan depends on chassis-tier links alone).
    killLink(mon, 0, 1);
    (void)rr.plan(0, 1);
    const double intra_cached = computes();

    // An inter-node transition in the same row must NOT evict it...
    killLink(mon, 0, 6);
    (void)rr.plan(0, 1);
    EXPECT_EQ(computes(), intra_cached)
        << "inter-node flap evicted an intra-only plan";

    // ...but an intra-node transition in its column must.
    killLink(mon, 2, 1);
    (void)rr.plan(0, 1);
    EXPECT_EQ(computes(), intra_cached + 1.0)
        << "intra-node flap failed to evict an intra plan";

    // A cross-node relay plan reads both tiers (each relay leg pairs
    // one chassis link with one network link), so an inter-node
    // transition in its row evicts it.
    killLink(mon, 0, 5);
    (void)rr.plan(0, 5);
    const double inter_cached = computes();
    killLink(mon, 0, 7);
    (void)rr.plan(0, 5);
    EXPECT_EQ(computes(), inter_cached + 1.0)
        << "inter-node flap failed to evict a cross-node plan";
}

TEST(MultiNodeRuns, AllWorkloadsCompleteAndReplayAt2x16And4x16)
{
    for (const int nodes : {2, 4}) {
        Session session(multiNodePlatform(nodes, 16));
        const int gpus = session.platform().numGpus;
        for (const std::string &name : test::smallWorkloadNames()) {
            auto run_once = [&] {
                auto workload = test::makeSmallWorkload(name);
                workload->setup(gpus);
                return session.run(*workload, Paradigm::ProactDecoupled,
                                   batteryOptions());
            };
            const ParadigmRun first = run_once();
            EXPECT_FALSE(first.aborted)
                << name << " at " << gpus << " GPUs";
            EXPECT_EQ(first.completedIterations, 4)
                << name << " at " << gpus << " GPUs";
            EXPECT_EQ(test::runDigest(first),
                      test::runDigest(run_once()))
                << name << " at " << gpus << " GPUs did not replay";
        }
    }
}

/**
 * Seeded multi-node fault fuzz: a 2x16 fabric under flapping
 * inter-node links plus an unconditional device loss, with rebooking
 * on. Every case must drain with zero leaked flights and zero
 * orphaned retries, and replay tick-for-tick — cross-node relays,
 * retries and the device quiesce all cross node boundaries.
 */
class MultiNodeFaultFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr std::uint64_t kCampaign = 0x6d6e6f64u;

    std::uint64_t caseSeed() const
    {
        return deriveSeed(kCampaign, GetParam());
    }
};

TEST_P(MultiNodeFaultFuzz, InterNodeFlapsAndDeviceLossLeaveNoFlights)
{
    auto run_once = [](std::uint64_t seed) {
        const PlatformSpec platform = multiNodePlatform(2, 16);
        const int gpus = platform.numGpus;

        MultiGpuSystem system(platform);
        system.setFunctional(false);
        system.enableHealth();
        system.enableReroute();
        system.fabric().setRebooking(true);
        system.enableDeviceHealth();

        // Two flapping inter-node links (one per direction of the
        // node boundary) and one unconditional device loss.
        Rng rng(deriveSeed(seed, 0xfab5u));
        FaultPlan plan;
        LinkLifecycleOptions flaps;
        flaps.downProbability = 0.5;
        const int a = static_cast<int>(rng.below(16));
        const int b = 16 + static_cast<int>(rng.below(16));
        plan.flapLink(deriveSeed(seed, 1), a, b, flaps);
        plan.flapLink(deriveSeed(seed, 2), b, a, flaps);
        const int victim =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(
                gpus)));
        const Tick death =
            (40 + rng.below(160)) * ticksPerMicrosecond;
        plan.downGpu(death, maxTick, victim);
        system.installFaults(std::move(plan));

        StatSet stats;
        int deliveries = 0;
        Tick last = 0;
        TransferAgent::Context ctx;
        ctx.system = &system;
        ctx.gpuId = 0;
        ctx.config.mechanism = TransferMechanism::Polling;
        ctx.config.chunkBytes = 64 * KiB;
        ctx.config.transferThreads = 2048;
        ctx.config.retry.enabled = true;
        ctx.config.retry.maxAttempts = 6;
        ctx.config.retry.rerouteAfterAttempts = 2;
        ctx.stats = &stats;
        ctx.onDelivered = [&deliveries, &last,
                           &system](std::uint64_t) {
            ++deliveries;
            last = system.now();
        };
        PollingAgent agent(ctx);

        const int chunks = 4;
        auto &eq = system.eventQueue();
        for (int c = 0; c < chunks; ++c) {
            eq.schedule(
                static_cast<Tick>(c) * 40 * ticksPerMicrosecond,
                [&agent, c] { agent.chunkReady(c, 64 * KiB); });
        }
        system.run();

        const Interconnect &fabric = system.fabric();

        // The death is unconditional, so the watchdog must have
        // declared the victim by drain time.
        EXPECT_TRUE(system.anyDeviceLost()) << "seed " << seed;

        // Zero leaked flights and zero orphaned retries: every
        // submission was delivered, refused, quiesced or given up —
        // and the sender's in-flight ledger returned to zero.
        EXPECT_EQ(fabric.numTrackedFlights(), 0u) << "seed " << seed;
        EXPECT_EQ(agent.sender().inFlight(), 0u) << "seed " << seed;

        return std::make_tuple(
            victim, last, deliveries, stats.get("transfers.retried"),
            stats.get("transfers.orphaned"),
            fabric.refusedDeliveries(), fabric.quiescedFlights(),
            system.deviceHealth()->transitions().size());
    };

    EXPECT_EQ(run_once(caseSeed()), run_once(caseSeed()))
        << "case " << GetParam() << " did not replay deterministically";
}

INSTANTIATE_TEST_SUITE_P(Cases, MultiNodeFaultFuzz,
                         ::testing::Range<std::uint64_t>(0u, 24u));
