/**
 * @file
 * Heap-allocation budget of one fine-grained transfer on the
 * fault-adaptive path (retry, rebooking, health monitor and
 * rerouter). PROACT pushes every ready chunk as its own transfer, so
 * the simulator's host cost per transfer is the price of every fault
 * study. This binary replaces the global operator new with a counting
 * one, warms a DGX-2 up, and bounds the allocations one send costs
 * from submission to its last event, on a healthy direct pair and on
 * a pair whose link is down (a relay fan-out).
 */

#include "faults/fault_plan.hh"
#include "faults/retry.hh"
#include "health/link_health.hh"
#include "interconnect/rerouter.hh"
#include "system/multi_gpu_system.hh"
#include "system/platform.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

namespace {

/** Every operator new in the process (the test is single-threaded). */
std::uint64_t allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace proact;

namespace {

/**
 * A DGX-2 with the perfbench `faults` workload's adaptive stack on
 * (health with a 50 us holdoff, rebooking, reroute, retry with
 * reroute-aware attempts) and the 0 -> 1 link down for good.
 */
struct AdaptiveDgx2
{
    static constexpr int downSrc = 0;
    static constexpr int downDst = 1;

    MultiGpuSystem system{dgx2Platform()};
    RetryingSender sender;
    std::uint64_t landed = 0;

    static RetryPolicy
    retryPolicy()
    {
        RetryPolicy policy;
        policy.enabled = true;
        policy.rerouteAfterAttempts = 2;
        return policy;
    }

    AdaptiveDgx2()
        : sender(system.eventQueue(), system.fabric(), retryPolicy())
    {
        system.setFunctional(false);
        FaultPlan plan;
        plan.downLink(0, maxTick, downSrc, downDst);
        system.installFaults(std::move(plan));
        HealthPolicy health;
        health.transitionHoldoff = 50 * ticksPerMicrosecond;
        system.enableHealth(health);
        system.fabric().setRebooking(true);
        system.enableReroute();
        sender.setRerouter(system.rerouter());
    }

    /** One 8 KiB push through the rerouter, drained to the last event. */
    void
    send(int src, int dst)
    {
        Interconnect::Request req;
        req.src = src;
        req.dst = dst;
        req.bytes = 8 * KiB;
        req.writeGranularity =
            system.fabric().packetModel().maxPayloadBytes;
        req.onComplete = [this] { ++landed; };
        system.rerouter()->send(
            [this](const Interconnect::Request &leg) {
                return sender.send(leg);
            },
            std::move(req));
        system.run();
    }

    /** Mean allocations per send over @p n sends of src -> dst. */
    double
    allocationsPerSend(int src, int dst, int n)
    {
        const std::uint64_t before = allocations;
        for (int i = 0; i < n; ++i)
            send(src, dst);
        return static_cast<double>(allocations - before) / n;
    }
};

TEST(AllocBudget, FaultAdaptiveSendsStayWithinBudget)
{
    AdaptiveDgx2 rig;
    const int healthy_src = 2;
    const int healthy_dst = 3;

    // Warm-up: the link goes DOWN, its probes give up, plans are
    // cached and every slab reaches its working size.
    for (int i = 0; i < 1000; ++i) {
        rig.send(healthy_src, healthy_dst);
        rig.send(AdaptiveDgx2::downSrc, AdaptiveDgx2::downDst);
    }
    ASSERT_EQ(rig.landed, 2000u);
    ASSERT_EQ(rig.system.health()->linkState(AdaptiveDgx2::downSrc,
                                             AdaptiveDgx2::downDst),
              LinkState::Down);
    const auto &direct =
        rig.system.rerouter()->plan(healthy_src, healthy_dst);
    ASSERT_TRUE(direct.size() == 1 && direct[0].direct());
    const auto &detour = rig.system.rerouter()->plan(
        AdaptiveDgx2::downSrc, AdaptiveDgx2::downDst);
    ASSERT_FALSE(detour.empty());
    ASSERT_FALSE(detour[0].direct());

    const int sends = 200;
    const double healthy =
        rig.allocationsPerSend(healthy_src, healthy_dst, sends);
    const double relayed = rig.allocationsPerSend(
        AdaptiveDgx2::downSrc, AdaptiveDgx2::downDst, sends);
    EXPECT_EQ(rig.landed, 2000u + 2 * sends);

    // One RetryingSender::Attempt record per attempt; a relayed send
    // adds its join and one record per relay chain, and every relay
    // hop is an attempt of its own. The rest is the channels' booking
    // deques, which take a node per 16 bookings of 32 bytes.
    EXPECT_LE(healthy, 1.25) << "allocations per healthy direct send";
    EXPECT_LE(relayed, 16.0) << "allocations per send over a DOWN link";
    std::printf("allocations per send: healthy %.2f, relayed %.2f\n",
                healthy, relayed);
}

} // namespace
