/**
 * @file
 * Seeded-random fuzz tests of the readiness-tracking core: random
 * partition sizes, chunk granularities and CTA tilings must always
 * produce exact counter accounting, and random traffic on the fabric
 * must conserve bytes.
 */

#include "faults/fault_plan.hh"
#include "health/device_health.hh"
#include "interconnect/interconnect.hh"
#include "interconnect/rerouter.hh"
#include "proact/region.hh"
#include "proact/transfer_agent.hh"
#include "sim/random.hh"
#include "system/platform.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

using namespace proact;

namespace {

/** Random contiguous tiling of [0, partition) into cta ranges. */
std::vector<ByteRange>
randomTiling(Rng &rng, std::uint64_t partition, int num_ctas)
{
    std::vector<std::uint64_t> cuts{0, partition};
    for (int i = 1; i < num_ctas; ++i)
        cuts.push_back(rng.below(partition + 1));
    std::sort(cuts.begin(), cuts.end());
    std::vector<ByteRange> ranges;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
        ranges.push_back(ByteRange{cuts[i], cuts[i + 1]});
    return ranges;
}

} // namespace

class TrackingFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TrackingFuzz, RandomTilingsAccountExactly)
{
    Rng rng(GetParam());
    for (int round = 0; round < 50; ++round) {
        const std::uint64_t partition = 1 + rng.below(1 << 20);
        const std::uint64_t chunk = 1 + rng.below(128 * KiB);
        const int num_ctas = 1 + static_cast<int>(rng.below(64));

        const auto ranges = randomTiling(rng, partition, num_ctas);
        RegionTracker tracker(partition, chunk);
        tracker.initCounters(
            static_cast<int>(ranges.size()),
            [&ranges](int cta) { return ranges[cta]; });

        // Deliver CTAs in a random order.
        std::vector<int> order(ranges.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<int>(i);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);

        std::vector<int> ready;
        std::uint64_t decrements = 0;
        std::uint64_t ready_bytes = 0;
        for (const int cta : order) {
            ready.clear();
            decrements += static_cast<std::uint64_t>(
                tracker.ctaArrived(ranges[cta], ready));
            for (const int c : ready)
                ready_bytes += tracker.chunkSize(c);
        }

        ASSERT_TRUE(tracker.allReady())
            << "seed " << GetParam() << " round " << round;
        ASSERT_EQ(decrements, tracker.decrementsPerIteration());
        ASSERT_EQ(ready_bytes, partition);
    }
}

TEST_P(TrackingFuzz, RandomFabricTrafficConservesBytes)
{
    Rng rng(GetParam() + 1000);
    EventQueue eq;
    Interconnect fabric(eq, nvlink2Fabric(), 4);

    std::uint64_t submitted = 0;
    long delivered_events = 0;
    std::uint64_t delivered_bytes = 0;
    const int transfers = 200;

    for (int i = 0; i < transfers; ++i) {
        Interconnect::Request req;
        req.src = static_cast<int>(rng.below(4));
        req.dst = static_cast<int>(rng.below(4));
        if (req.dst == req.src)
            req.dst = (req.dst + 1) % 4;
        req.bytes = 1 + rng.below(1 << 18);
        req.writeGranularity =
            static_cast<std::uint32_t>(1 + rng.below(512));
        req.threads = static_cast<std::uint32_t>(rng.below(4096));
        const std::uint64_t bytes = req.bytes;
        req.onComplete = [&, bytes] {
            ++delivered_events;
            delivered_bytes += bytes;
        };
        submitted += bytes;
        fabric.transfer(req);
    }
    eq.run();

    EXPECT_EQ(delivered_events, transfers);
    EXPECT_EQ(delivered_bytes, submitted);
    EXPECT_EQ(fabric.totalPayloadBytes(), submitted);
    EXPECT_GE(fabric.totalWireBytes(), submitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackingFuzz,
                         ::testing::Values(1u, 42u, 20260706u));

/**
 * Seeded random fault campaigns on the full 16-GPU DGX-2 with the
 * whole adaptive stack armed: whatever combination of link deaths,
 * degradations and correlated plane events the generator draws, every
 * chunk must land on every peer exactly once — across retries,
 * multi-relay reroutes and reliable fallbacks — and the entire run
 * must replay tick-for-tick from the same seed.
 */
class Dgx2FaultFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /**
     * Campaign seed. Each case re-derives its own independent stream
     * from (campaign, case index) instead of feeding the raw index to
     * the generator: consecutive integers make correlated SplitMix64
     * expansions, and growing the campaign must never perturb the
     * fault plans (and golden replays) of existing cases.
     */
    static constexpr std::uint64_t kCampaign = 0x64677832u;

    /** Campaign of the random pairwise-links topologies. */
    static constexpr std::uint64_t kPairwiseCampaign = 0x73686472u;

    std::uint64_t caseSeed() const
    {
        return deriveSeed(kCampaign, GetParam());
    }
};

TEST_P(Dgx2FaultFuzz, ExactlyOnceDeliveryAndDeterministicReplay)
{
    auto run_once = [](std::uint64_t seed) {
        MultiGpuSystem system(dgx2Platform());
        system.setFunctional(false);
        system.enableHealth();
        Rerouter &rr = system.enableReroute();

        RandomFaultOptions options;
        options.numEvents = 6;
        options.planeProbability = 0.3;
        options.planeSize = 4;
        system.installFaults(
            randomFaultPlan(seed, system.numGpus(), options));

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

        const int chunks = 6;
        auto &eq = system.eventQueue();
        for (int c = 0; c < chunks; ++c) {
            eq.schedule(
                static_cast<Tick>(c) * 40 * ticksPerMicrosecond,
                [&agent, c] { agent.chunkReady(c, 64 * KiB); });
        }
        system.run();

        // Exactly once: a lost chunk and a duplicated chunk both
        // break the equality.
        EXPECT_EQ(deliveries, chunks * (system.numGpus() - 1))
            << "seed " << seed;

        return std::make_tuple(
            last, deliveries, stats.get("transfers.retried"),
            stats.get("transfers.replanned"),
            stats.get("fallback.activations"),
            rr.stats().get("reroute.detours")
                + rr.stats().get("reroute.splits"),
            rr.stats().get("reroute.relay_hops"),
            system.health()->stats().get("health.transitions"));
    };

    const auto a = run_once(caseSeed());
    const auto b = run_once(caseSeed());
    EXPECT_EQ(a, b) << "case " << GetParam()
                    << " did not replay deterministically";
}

namespace {

/**
 * One mixed campaign on @p platform: MTBF flaps on up to four links
 * plus an unconditional mid-run device death, with health, rerouting,
 * rebooking and the watchdog armed, and a polling agent on GPU 0
 * pushing six chunks to every peer. Returns the counters a replay
 * must reproduce.
 */
auto
runMixedFaultCampaign(const PlatformSpec &platform, std::uint64_t seed)
{
    MultiGpuSystem system(platform);
    const int gpus = system.numGpus();
    system.setFunctional(false);
    system.enableHealth();
    system.enableReroute();
    system.fabric().setRebooking(true);
    system.enableDeviceHealth();

    LinkLifecycleOptions flaps;
    flaps.downProbability = 0.5;
    FaultPlan plan = mtbfFaultPlan(
        seed, gpus, std::min(4, gpus * (gpus - 1)), flaps);
    Rng rng(deriveSeed(seed, 0xdeadu));
    const int victim = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(gpus)));
    const Tick death = (40 + rng.below(160)) * ticksPerMicrosecond;
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
    ctx.onDelivered = [&deliveries, &last, &system](std::uint64_t) {
        ++deliveries;
        last = system.now();
    };
    PollingAgent agent(ctx);

    const int chunks = 6;
    auto &eq = system.eventQueue();
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 40 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    system.run();

    const Interconnect &fabric = system.fabric();

    // The death is unconditional and the horizon unbounded, so the
    // watchdog must have declared the victim by drain time.
    EXPECT_TRUE(system.anyDeviceLost())
        << platform.name << " seed " << seed;

    // No leaked flying requests: after the quiesce every tracked
    // flight was delivered, rebooked or explicitly aborted, and every
    // attempt the sender issued was acknowledged or timed out.
    EXPECT_EQ(fabric.numTrackedFlights(), 0u)
        << platform.name << " seed " << seed;
    EXPECT_EQ(agent.sender().inFlight(), 0u)
        << platform.name << " seed " << seed;

    // A dead endpoint only loses traffic through the accounted
    // paths; survivors still deliver at most exactly-once.
    EXPECT_LE(deliveries, chunks * (gpus - 1))
        << platform.name << " seed " << seed;

    return std::make_tuple(
        victim, last, deliveries, stats.get("transfers.retried"),
        stats.get("transfers.orphaned"), fabric.refusedDeliveries(),
        fabric.quiescedFlights(), fabric.rebookedDeliveries(),
        system.deviceHealth()->transitions().size());
}

} // namespace

TEST_P(Dgx2FaultFuzz, MixedDeviceLossAndFlappingLeaveNoFlights)
{
    // Link flapping and a mid-run device death in one campaign: the
    // retry layer keeps working the flapping links while the watchdog
    // declares the victim LOST and the fabric quiesces it. Whatever
    // the seed draws, every tracked in-flight request must end the
    // run delivered, rebooked or quiesced — never leaked — and the
    // whole run must replay tick-for-tick. Each case runs on the
    // DGX-2 and on a random 2..8-GPU pairwise-links Volta.
    const std::uint64_t dgx2_seed = deriveSeed(caseSeed(), 1);
    EXPECT_EQ(runMixedFaultCampaign(dgx2Platform(), dgx2_seed),
              runMixedFaultCampaign(dgx2Platform(), dgx2_seed))
        << "case " << GetParam() << " did not replay deterministically";

    const std::uint64_t pair_seed =
        deriveSeed(kPairwiseCampaign, GetParam());
    Rng topo(deriveSeed(pair_seed, 0x10b0u));
    PlatformSpec pairwise = voltaPlatform().withGpuCount(
        2 + static_cast<int>(topo.below(7)));
    pairwise.fabric.topology = FabricTopology::PairwiseLinks;
    EXPECT_EQ(runMixedFaultCampaign(pairwise, pair_seed),
              runMixedFaultCampaign(pairwise, pair_seed))
        << "case " << GetParam() << " on " << pairwise.name
        << " did not replay deterministically";
}

INSTANTIATE_TEST_SUITE_P(Cases, Dgx2FaultFuzz,
                         ::testing::Range<std::uint64_t>(0u, 24u));
