/**
 * @file
 * Unit tests for fabric specs and the interconnect transfer engine.
 */

#include "interconnect/interconnect.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

using namespace proact;

namespace {

Interconnect::Request
request(int src, int dst, std::uint64_t bytes,
        std::uint32_t gran = 256, std::uint32_t threads = 0)
{
    Interconnect::Request req;
    req.src = src;
    req.dst = dst;
    req.bytes = bytes;
    req.writeGranularity = gran;
    req.threads = threads;
    return req;
}

} // namespace

TEST(FabricSpec, TableOneBandwidths)
{
    EXPECT_DOUBLE_EQ(pcie3Fabric().perGpuBidirBandwidth, 16.0e9);
    EXPECT_DOUBLE_EQ(nvlink1Fabric().perGpuBidirBandwidth, 150.0e9);
    EXPECT_DOUBLE_EQ(nvlink2Fabric().perGpuBidirBandwidth, 300.0e9);
    EXPECT_DOUBLE_EQ(nvswitchFabric().perGpuBidirBandwidth, 300.0e9);
}

TEST(FabricSpec, EgressIsHalfBidirectional)
{
    const FabricSpec f = nvlink2Fabric();
    EXPECT_DOUBLE_EQ(f.egressRate(), 150.0e9);
    EXPECT_DOUBLE_EQ(f.ingressRate(), 150.0e9);
}

TEST(FabricSpec, OnlyPcieHasTreeCore)
{
    EXPECT_GT(pcie3Fabric().coreBandwidth, 0.0);
    EXPECT_DOUBLE_EQ(nvlink1Fabric().coreBandwidth, 0.0);
    EXPECT_DOUBLE_EQ(nvswitchFabric().coreBandwidth, 0.0);
}

TEST(FabricSpec, FabricForMatchesFactories)
{
    EXPECT_EQ(fabricFor(Protocol::PCIe3).name, pcie3Fabric().name);
    EXPECT_EQ(fabricFor(Protocol::NVSwitch).name,
              nvswitchFabric().name);
}

TEST(Interconnect, RejectsBadEndpoints)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 4);
    EXPECT_THROW(fab.transfer(request(0, 4, 100)), FatalError);
    EXPECT_THROW(fab.transfer(request(-1, 0, 100)), FatalError);
    EXPECT_THROW(fab.transfer(request(2, 2, 100)), FatalError);
    EXPECT_THROW(fab.transfer(request(0, 1, 100, 0)), FatalError);
    EXPECT_THROW(Interconnect(eq, nvlink2Fabric(), 0), FatalError);
}

TEST(Interconnect, ZeroByteTransferCompletesImmediately)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 2);
    bool done = false;
    auto req = request(0, 1, 0);
    req.onComplete = [&] { done = true; };
    const Tick t = fab.transfer(req);
    EXPECT_EQ(t, 0u);
    eq.run();
    EXPECT_TRUE(done);
}

TEST(Interconnect, DeliveryIncludesFabricLatency)
{
    EventQueue eq;
    const FabricSpec spec = nvlink2Fabric();
    Interconnect fab(eq, spec, 2);
    const Tick t = fab.transfer(request(0, 1, 256, 256));
    // One 288B packet at 150 GB/s on egress and ingress (cut
    // through), plus spec latency.
    const Tick wire_time = transferTicks(288, spec.egressRate());
    EXPECT_EQ(t, wire_time + spec.latency);
}

TEST(Interconnect, ThreadCapLimitsBandwidth)
{
    EventQueue eq;
    const FabricSpec spec = nvlink2Fabric();
    Interconnect fab(eq, spec, 2);

    // Few threads -> proportionally slower than the full rate.
    const Tick slow = fab.transfer(request(0, 1, 1 << 20, 256, 32));

    EventQueue eq2;
    Interconnect fab2(eq2, spec, 2);
    const Tick fast = fab2.transfer(request(0, 1, 1 << 20, 256, 0));
    EXPECT_GT(slow, fast);

    // Saturating thread count matches the engine rate.
    EventQueue eq3;
    Interconnect fab3(eq3, spec, 2);
    const Tick sat = fab3.transfer(
        request(0, 1, 1 << 20, 256, spec.saturationThreads));
    EXPECT_EQ(sat, fast);
}

TEST(Interconnect, EffectiveEgressRateModel)
{
    EventQueue eq;
    const FabricSpec spec = nvlink2Fabric();
    Interconnect fab(eq, spec, 2);
    EXPECT_DOUBLE_EQ(fab.effectiveEgressRate(0), spec.egressRate());
    EXPECT_DOUBLE_EQ(
        fab.effectiveEgressRate(spec.saturationThreads),
        spec.egressRate());
    EXPECT_NEAR(fab.effectiveEgressRate(spec.saturationThreads / 2),
                spec.egressRate() / 2, 1.0);
}

TEST(Interconnect, EgressSerializesSameSourceTransfers)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 3);
    const Tick t1 = fab.transfer(request(0, 1, 1 << 20));
    const Tick t2 = fab.transfer(request(0, 2, 1 << 20));
    EXPECT_GT(t2, t1);
}

TEST(Interconnect, DistinctSourcesProceedInParallel)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 4);
    const Tick t1 = fab.transfer(request(0, 1, 1 << 20));
    const Tick t2 = fab.transfer(request(2, 3, 1 << 20));
    EXPECT_EQ(t1, t2);
}

TEST(Interconnect, SharedCoreConstrainsAllToAll)
{
    EventQueue eq;
    const FabricSpec pcie = pcie3Fabric();
    Interconnect fab(eq, pcie, 4);
    // Four simultaneous disjoint transfers share the 32 GB/s core,
    // which is equal to 4 x 8 GB/s egress, so it just keeps pace;
    // totals on the core must equal the sum of all wire bytes.
    for (int g = 0; g < 4; ++g)
        fab.transfer(request(g, (g + 1) % 4, 1 << 20));
    eq.run();
    EXPECT_TRUE(fab.hasCore());
    EXPECT_EQ(fab.core().payloadBytes(), 4u << 20);
}

TEST(Interconnect, StoreTransactionAccounting)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 2);
    // 1024B at 256B granularity = 4 packets.
    fab.transfer(request(0, 1, 1024, 256));
    EXPECT_EQ(fab.storeTransactions(0), 4u);
    // 1024B at 8B granularity = 128 packets.
    fab.transfer(request(0, 1, 1024, 8));
    EXPECT_EQ(fab.storeTransactions(0), 132u);
    EXPECT_EQ(fab.totalStoreTransactions(), 132u);
    EXPECT_EQ(fab.storeTransactions(1), 0u);
}

TEST(Interconnect, PayloadAndWireTotals)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 2);
    fab.transfer(request(0, 1, 1024, 256));
    eq.run();
    EXPECT_EQ(fab.totalPayloadBytes(), 1024u);
    EXPECT_EQ(fab.totalWireBytes(), 4 * 288u);

    fab.resetStats();
    EXPECT_EQ(fab.totalPayloadBytes(), 0u);
    EXPECT_EQ(fab.totalStoreTransactions(), 0u);
}

TEST(Interconnect, NotBeforeDefersEntry)
{
    EventQueue eq;
    const FabricSpec spec = nvlink2Fabric();
    Interconnect fab(eq, spec, 2);
    auto req = request(0, 1, 256, 256);
    req.notBefore = 1000000;
    const Tick t = fab.transfer(req);
    EXPECT_GE(t, req.notBefore + spec.latency);
}

TEST(Interconnect, FineGranularityCostsMoreWireTime)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink1Fabric(), 2);
    const Tick coarse = fab.transfer(request(0, 1, 1 << 20, 256));

    EventQueue eq2;
    Interconnect fab2(eq2, nvlink1Fabric(), 2);
    const Tick fine = fab2.transfer(request(0, 1, 1 << 20, 4));

    // 4B NVLink efficiency is 12x worse than 256B.
    EXPECT_GT(fine, 8 * coarse);
}

TEST(Interconnect, ObserverListAllFireAndRemoveByHandle)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 2);
    int first = 0;
    int second = 0;
    const auto h1 = fab.addDeliveryObserver(
        [&](const Interconnect::Request &,
            const Interconnect::DeliverySample &) { ++first; });
    const auto h2 = fab.addDeliveryObserver(
        [&](const Interconnect::Request &,
            const Interconnect::DeliverySample &) { ++second; });
    EXPECT_NE(h1, h2);
    EXPECT_EQ(fab.numDeliveryObservers(), 2u);

    fab.transfer(request(0, 1, 1024));
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);

    fab.removeDeliveryObserver(h1);
    EXPECT_EQ(fab.numDeliveryObservers(), 1u);
    fab.transfer(request(0, 1, 1024));
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 2);

    // Removing an unknown/stale handle is a harmless no-op.
    fab.removeDeliveryObserver(h1);
    fab.removeDeliveryObserver(12345u);
    EXPECT_EQ(fab.numDeliveryObservers(), 1u);
}

TEST(Interconnect, ObserverMayRemoveItselfMidDispatch)
{
    EventQueue eq;
    Interconnect fab(eq, nvlink2Fabric(), 2);
    int one_shot = 0;
    int steady = 0;
    Interconnect::ObserverHandle self = 0;
    self = fab.addDeliveryObserver(
        [&](const Interconnect::Request &,
            const Interconnect::DeliverySample &) {
            ++one_shot;
            fab.removeDeliveryObserver(self);
        });
    fab.addDeliveryObserver(
        [&](const Interconnect::Request &,
            const Interconnect::DeliverySample &) { ++steady; });

    fab.transfer(request(0, 1, 1024));
    fab.transfer(request(0, 1, 1024));
    EXPECT_EQ(one_shot, 1);
    EXPECT_EQ(steady, 2);
    EXPECT_EQ(fab.numDeliveryObservers(), 1u);
}
