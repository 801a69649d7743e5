/**
 * @file
 * Tests for fabric topologies (shared ports vs. statically
 * partitioned pairwise NVLink links).
 */

#include "interconnect/interconnect.hh"
#include "system/platform.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

using namespace proact;

namespace {

FabricSpec
pairwiseNvlink2()
{
    FabricSpec spec = nvlink2Fabric();
    spec.topology = FabricTopology::PairwiseLinks;
    return spec;
}

Interconnect::Request
request(int src, int dst, std::uint64_t bytes)
{
    Interconnect::Request req;
    req.src = src;
    req.dst = dst;
    req.bytes = bytes;
    req.writeGranularity = 256;
    return req;
}

} // namespace

TEST(Topology, PairLinkAccessorsGuarded)
{
    EventQueue eq;
    Interconnect shared(eq, nvlink2Fabric(), 4);
    EXPECT_FALSE(shared.pairwise());
    EXPECT_THROW(shared.pairLink(0, 1), PanicError);

    Interconnect pairwise(eq, pairwiseNvlink2(), 4);
    EXPECT_TRUE(pairwise.pairwise());
    EXPECT_NO_THROW(pairwise.pairLink(0, 1));
    EXPECT_THROW(pairwise.pairLink(0, 0), PanicError);
    EXPECT_THROW(pairwise.pairLink(0, 4), PanicError);
}

TEST(Topology, PairLinksCarryFractionalBandwidth)
{
    EventQueue eq;
    Interconnect fab(eq, pairwiseNvlink2(), 4);
    // Each directed pair gets egress/3.
    EXPECT_NEAR(fab.pairLink(0, 1).rate(),
                nvlink2Fabric().egressRate() / 3.0, 1.0);
}

TEST(Topology, SinglePairFlowIsSlowerThanSharedPorts)
{
    // A lone src->dst stream uses only that pair's links under the
    // pairwise topology, but the whole port under shared ports.
    EventQueue eq1;
    Interconnect shared(eq1, nvlink2Fabric(), 4);
    const Tick t_shared = shared.transfer(request(0, 1, 8 << 20));

    EventQueue eq2;
    Interconnect pairwise(eq2, pairwiseNvlink2(), 4);
    const Tick t_pair = pairwise.transfer(request(0, 1, 8 << 20));

    EXPECT_GT(t_pair, 2 * t_shared);
}

TEST(Topology, BroadcastAggregateMatchesSharedPorts)
{
    // Broadcasting to every peer exercises all links, so both
    // topologies finish in (approximately) the same time.
    auto broadcast_end = [](const FabricSpec &spec) {
        EventQueue eq;
        Interconnect fab(eq, spec, 4);
        Tick last = 0;
        for (int dst = 1; dst < 4; ++dst)
            last = std::max(last,
                            fab.transfer(request(0, dst, 8 << 20)));
        return last;
    };
    const Tick shared = broadcast_end(nvlink2Fabric());
    const Tick pairwise = broadcast_end(pairwiseNvlink2());
    // Pairwise streams concurrently; shared ports serialize on the
    // egress but at 3x the pair rate. Same aggregate within latency
    // differences.
    EXPECT_NEAR(static_cast<double>(pairwise),
                static_cast<double>(shared),
                static_cast<double>(shared) * 0.05);
}

TEST(Topology, PairwiseStatsAggregateAcrossLinks)
{
    EventQueue eq;
    Interconnect fab(eq, pairwiseNvlink2(), 4);
    fab.transfer(request(0, 1, 4096));
    fab.transfer(request(2, 3, 4096));
    eq.run();
    EXPECT_EQ(fab.totalPayloadBytes(), 8192u);
    EXPECT_GT(fab.totalWireBytes(), 8192u);
    fab.resetStats();
    EXPECT_EQ(fab.totalPayloadBytes(), 0u);
}

TEST(Topology, SingleGpuPairwiseHasNoLinks)
{
    EventQueue eq;
    EXPECT_NO_THROW(Interconnect(eq, pairwiseNvlink2(), 1));
}

TEST(Topology, MultiNodeTierAccessors)
{
    EventQueue eq;
    const PlatformSpec platform = multiNodePlatform(2, 4);
    Interconnect fab(eq, platform.fabric, platform.numGpus);
    ASSERT_TRUE(fab.pairwise());

    // Node membership: GPUs 0..3 vs 4..7.
    EXPECT_FALSE(fab.interNodePair(0, 3));
    EXPECT_TRUE(fab.interNodePair(0, 4));
    EXPECT_TRUE(fab.interNodePair(7, 0));

    // The network tier is slower, farther, and coarser than the
    // chassis tier — and the per-pair channels carry exactly that.
    EXPECT_LT(fab.nominalPairRate(0, 4), fab.nominalPairRate(0, 1));
    EXPECT_GT(fab.pairLatency(0, 4), fab.pairLatency(0, 1));
    EXPECT_GT(fab.pairPacketModel(0, 4).maxPayloadBytes,
              fab.pairPacketModel(0, 1).maxPayloadBytes);
    EXPECT_EQ(fab.pairLink(0, 4).rate(), fab.nominalPairRate(0, 4));
    EXPECT_EQ(fab.pairLink(0, 4).latency(), fab.pairLatency(0, 4));

    // The base latency stays the intra (minimum) latency.
    EXPECT_EQ(platform.fabric.latency, nvswitchFabric().latency);
    EXPECT_GE(platform.fabric.interLatency, platform.fabric.latency);
}
