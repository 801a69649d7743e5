/**
 * @file
 * Tests for the fault-injection & resilience subsystem (src/faults):
 * plan validation, episode scheduling, deterministic seeded drops,
 * the per-link fault filter against a whole-plan scan, retry/backoff
 * ordering, reliable-path fallback, rebooking of live, dead and
 * reused flight slots, ack timeouts that outlive their sender, and
 * end-to-end survival of every transfer mechanism on a faulty
 * fabric.
 */

#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "faults/retry.hh"
#include "harness/paradigm.hh"
#include "proact/runtime.hh"
#include "proact/transfer_agent.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "tests/small_workloads.hh"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace proact;
using namespace proact::test;

namespace {

/** Agent-level harness mirroring tests/test_agents.cc. */
struct FaultHarness
{
    MultiGpuSystem system;
    int deliveries = 0;
    Tick lastDelivery = 0;
    StatSet stats;

    explicit FaultHarness(const PlatformSpec &platform = voltaPlatform())
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
        ctx.config.chunkBytes = 128 * KiB;
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

RetryPolicy
testRetry(int max_attempts = 5)
{
    RetryPolicy policy;
    policy.enabled = true;
    policy.maxAttempts = max_attempts;
    return policy;
}

/**
 * The fault filter as a linear scan: every episode of the plan, in
 * plan order, judged at the submission tick, with its own RNG seeded
 * like the injector's. The reference the injector's per-link episode
 * index must agree with verdict for verdict.
 */
class LinearScanFilter
{
  public:
    LinearScanFilter(const EventQueue &eq, FaultPlan plan)
        : _eq(eq), _plan(std::move(plan)), _rng(_plan.seed)
    {
    }

    bool
    operator()(const Interconnect::Request &req)
    {
        const Tick now = _eq.curTick();
        bool drop = false;
        for (const FaultEpisode &ep : _plan.episodes) {
            if (!ep.active(now))
                continue;
            switch (ep.kind) {
              case FaultKind::LinkDown:
                if (ep.matchesLink(req.src, req.dst))
                    drop = true;
                break;
              case FaultKind::DeliveryDrop:
                if (drop || !ep.matchesLink(req.src, req.dst))
                    break;
                ++draws;
                if (_rng.uniform() < ep.severity)
                    drop = true;
                break;
              case FaultKind::LinkDegrade:
              case FaultKind::GpuDown:
                break;
            }
        }
        dropped += drop;
        return drop;
    }

    std::uint64_t draws = 0;
    std::uint64_t dropped = 0;

  private:
    const EventQueue &_eq;
    FaultPlan _plan;
    Rng _rng;
};

/**
 * A seeded plan exercising every filter path on @p num_gpus GPUs
 * within [0, horizon): overlapping drops on one hot link (so the
 * draw order matters), LinkDown windows that open and close, and the
 * degrade and device-loss episodes the filter must skip, in shuffled
 * plan order.
 */
FaultPlan
filterCoveragePlan(Rng &rng, int num_gpus, Tick horizon)
{
    auto gpu = [&] { return static_cast<int>(rng.below(num_gpus)); };
    auto other = [&](int g) {
        return (g + 1 + static_cast<int>(rng.below(num_gpus - 1)))
            % num_gpus;
    };
    auto window = [&](Tick &start, Tick &end) {
        start = rng.below(horizon);
        end = rng.below(4) == 0
            ? maxTick
            : start + 1 + rng.below(horizon / 3);
    };
    auto probability = [&] { return 0.1 + 0.8 * rng.uniform(); };

    FaultPlan plan;
    plan.seed = rng();
    Tick start = 0;
    Tick end = 0;

    const int hot_src = gpu();
    const int hot_dst = other(hot_src);
    for (int i = 0; i < 2; ++i) {
        window(start, end);
        plan.dropDeliveries(start, end, probability(), hot_src,
                            hot_dst);
    }
    window(start, end);
    plan.dropDeliveries(start, end, probability(), -1, hot_dst);
    window(start, end);
    plan.dropDeliveries(start, end, probability() / 4);

    for (int i = 0; i < 2; ++i) {
        start = rng.below(horizon);
        const int src = i == 0 ? hot_src : gpu();
        plan.downLink(start, start + 1 + rng.below(horizon / 4), src,
                      i == 0 ? hot_dst : other(src));
    }
    start = rng.below(horizon);
    plan.downLink(start, start + 1 + rng.below(horizon / 8), -1, gpu());

    window(start, end);
    plan.degradeLink(start, end, probability(), hot_src, hot_dst);
    window(start, end);
    plan.degradeLink(start, end, probability());
    start = rng.below(horizon);
    plan.downGpu(start, start + 1 + rng.below(horizon / 8), gpu());

    for (std::size_t i = plan.episodes.size() - 1; i > 0; --i)
        std::swap(plan.episodes[i], plan.episodes[rng.below(i + 1)]);
    return plan;
}

/** Everything one system saw of a seeded transfer stream. */
struct FilterOutcome
{
    std::vector<Tick> predicted;
    std::vector<Tick> landed;  ///< maxTick when never delivered.
    std::vector<bool> dropped; ///< Per observed submission.
    std::uint64_t droppedDeliveries = 0;
    std::uint64_t rebookedDeliveries = 0;
    /** Filter drop count: the injector's stats, or the scan's. */
    std::uint64_t verdictDrops = 0;
    std::uint64_t draws = 0; ///< RNG draws (reference scan only).

    bool
    operator==(const FilterOutcome &o) const
    {
        return predicted == o.predicted && landed == o.landed
            && dropped == o.dropped
            && droppedDeliveries == o.droppedDeliveries
            && rebookedDeliveries == o.rebookedDeliveries
            && verdictDrops == o.verdictDrops;
    }
};

/**
 * Arm @p plan on a fresh @p platform system and push @p transfers
 * seeded transfers through its fabric at staggered ticks. With
 * @p linear_scan set, the injector still drives degrade windows and
 * device loss, but a LinearScanFilter judges every delivery.
 */
FilterOutcome
runFilterCase(const PlatformSpec &platform, const FaultPlan &plan,
              std::uint64_t stream_seed, int transfers, Tick horizon,
              bool linear_scan)
{
    MultiGpuSystem system(platform);
    system.setFunctional(false);
    Interconnect &fabric = system.fabric();
    fabric.setRebooking(stream_seed % 2 == 0);
    FaultInjector &inj = system.installFaults(plan);
    std::shared_ptr<LinearScanFilter> reference;
    if (linear_scan) {
        reference = std::make_shared<LinearScanFilter>(
            system.eventQueue(), plan);
        fabric.setFaultFilter(
            [reference](const Interconnect::Request &req) {
                return (*reference)(req);
            });
    }

    FilterOutcome out;
    out.predicted.assign(transfers, 0);
    out.landed.assign(transfers, maxTick);
    fabric.addDeliveryObserver(
        [&out](const Interconnect::Request &,
               const Interconnect::DeliverySample &sample) {
            out.dropped.push_back(sample.dropped);
        });

    Rng rng(stream_seed);
    const int n = system.numGpus();
    const std::uint32_t grains[] = {32, 128, 4096};
    for (int i = 0; i < transfers; ++i) {
        Interconnect::Request req;
        req.src = static_cast<int>(rng.below(n));
        req.dst = (req.src + 1 + static_cast<int>(rng.below(n - 1))) % n;
        req.bytes = 256 + rng.below(64 * KiB);
        req.writeGranularity = grains[rng.below(3)];
        req.threads = rng.below(2) == 0 ? 0 : 2048;
        req.reliable = rng.below(10) == 0;
        const Tick at = rng.below(horizon);
        system.eventQueue().schedule(at, [&fabric, &out, &system, req,
                                          i]() mutable {
            req.onComplete = [&out, &system, i] {
                out.landed[i] = system.now();
            };
            out.predicted[i] = fabric.transfer(req);
        });
    }
    system.run();

    out.droppedDeliveries = fabric.droppedDeliveries();
    out.rebookedDeliveries = fabric.rebookedDeliveries();
    if (reference) {
        out.verdictDrops = reference->dropped;
        out.draws = reference->draws;
    } else {
        out.verdictDrops = static_cast<std::uint64_t>(
            inj.stats().get("faults.dropped"));
    }
    return out;
}

} // namespace

TEST(FaultPlanTest, ValidateRejectsNonsense)
{
    {
        FaultPlan plan;
        plan.dropDeliveries(100, 100, 0.5); // Empty window.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.dropDeliveries(0, maxTick, 1.5); // Probability > 1.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.degradeLink(0, maxTick, 1.0); // Fully dead != degrade.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downLink(0, maxTick, 7, 1); // GPU 7 of 4.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downLink(0, maxTick, 2, 2); // src == dst.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    {
        FaultPlan plan;
        plan.degradeLink(0, maxTick, nan); // NaN fraction.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.dropDeliveries(0, maxTick, nan); // NaN probability.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downLink(0, maxTick, -2, 1); // Below the -1 wildcard.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.dropDeliveries(0, maxTick, 0.5, 0, -7);
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downGpu(0, maxTick, -3);
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.dropDeliveries(0, maxTick, 0.01)
            .degradeLink(ticksPerMicrosecond, 2 * ticksPerMicrosecond,
                         0.5, 0, 1)
            .downGpu(0, 100, 3);
        EXPECT_NO_THROW(plan.validate(4));
    }
}

TEST(FaultPlanTest, DescribeAndKindNames)
{
    EXPECT_EQ(faultKindName(FaultKind::LinkDegrade), "degrade");
    EXPECT_EQ(faultKindName(FaultKind::DeliveryDrop), "drop");

    FaultPlan plan;
    plan.dropDeliveries(0, maxTick, 0.25, -1, 2);
    EXPECT_EQ(plan.episodes.at(0).describe(), "drop p=0.25 gpu*->gpu2");
    plan.downGpu(0, 10, 1);
    EXPECT_EQ(plan.episodes.at(1).describe(), "gpu-down gpu1");
}

TEST(FaultPlanTest, PlaneBuildersExpandToAllPairs)
{
    FaultPlan plan;
    plan.downPlane(10, 20, {0, 1, 2});
    plan.degradePlane(30, 40, 0.5, {1, 3});

    // k GPUs -> k*(k-1) directed episodes sharing the plane's window.
    ASSERT_EQ(plan.episodes.size(), 6u + 2u);

    for (std::size_t i = 0; i < 6; ++i) {
        const FaultEpisode &ep = plan.episodes[i];
        EXPECT_EQ(ep.kind, FaultKind::LinkDown);
        EXPECT_EQ(ep.start, 10u);
        EXPECT_EQ(ep.end, 20u);
        EXPECT_NE(ep.src, ep.dst);
        EXPECT_TRUE(ep.src >= 0 && ep.src <= 2);
        EXPECT_TRUE(ep.dst >= 0 && ep.dst <= 2);
    }
    for (std::size_t i = 6; i < 8; ++i) {
        const FaultEpisode &ep = plan.episodes[i];
        EXPECT_EQ(ep.kind, FaultKind::LinkDegrade);
        EXPECT_EQ(ep.start, 30u);
        EXPECT_EQ(ep.end, 40u);
        EXPECT_DOUBLE_EQ(ep.severity, 0.5);
    }
    // Every directed pair is distinct.
    std::set<std::pair<int, int>> pairs;
    for (std::size_t i = 0; i < 6; ++i)
        pairs.emplace(plan.episodes[i].src, plan.episodes[i].dst);
    EXPECT_EQ(pairs.size(), 6u);

    EXPECT_NO_THROW(plan.validate(4));

    EXPECT_THROW(FaultPlan{}.downPlane(0, 10, {2}).validate(4),
                 FatalError); // A plane needs >= 2 GPUs.
}

TEST(FaultInjectorTest, PlaneEpisodesOpenAtArmTime)
{
    MultiGpuSystem system(voltaPlatform());
    FaultPlan plan;
    plan.downPlane(0, 10 * ticksPerMicrosecond, {0, 1, 2});
    plan.downLink(0, ticksPerMicrosecond, 3, 0);
    FaultInjector &inj = system.installFaults(std::move(plan));

    // All windows opened at arm time: 6 plane episodes + 1 loner.
    EXPECT_DOUBLE_EQ(inj.stats().get("faults.injected"), 7.0);
    EXPECT_DOUBLE_EQ(inj.stats().get("faults.down_windows"), 7.0);
}

TEST(FaultPlanTest, RandomPlanIsDeterministicAndValid)
{
    RandomFaultOptions options;
    options.numEvents = 8;
    options.planeProbability = 0.5;
    options.planeSize = 3;

    const FaultPlan a = randomFaultPlan(1234, 4, options);
    const FaultPlan b = randomFaultPlan(1234, 4, options);
    const FaultPlan c = randomFaultPlan(4321, 4, options);

    EXPECT_EQ(a.seed, 1234u);
    EXPECT_NO_THROW(a.validate(4)); // Generator self-validates too.

    auto fingerprint = [](const FaultPlan &plan) {
        std::vector<std::string> lines;
        for (const FaultEpisode &ep : plan.episodes) {
            lines.push_back(ep.describe() + " @" +
                            std::to_string(ep.start) + "-" +
                            std::to_string(ep.end));
        }
        return lines;
    };
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_NE(fingerprint(a), fingerprint(c));

    // Every target respects the system size.
    for (const FaultEpisode &ep : a.episodes) {
        EXPECT_GE(ep.src, 0);
        EXPECT_LT(ep.src, 4);
        EXPECT_GE(ep.dst, 0);
        EXPECT_LT(ep.dst, 4);
        EXPECT_NE(ep.src, ep.dst);
    }
}

TEST(FaultPlanTest, RandomPlanEventMixFollowsOptions)
{
    RandomFaultOptions options;
    options.numEvents = 5;
    options.planeProbability = 0.0; // Single-link events only.
    const FaultPlan singles = randomFaultPlan(7, 4, options);
    EXPECT_EQ(singles.episodes.size(), 5u);

    options.planeProbability = 1.0; // Every event is a plane.
    options.planeSize = 3;
    const FaultPlan planes = randomFaultPlan(7, 4, options);
    EXPECT_EQ(planes.episodes.size(), 5u * 6u); // 3 GPUs -> 6 pairs.
}

TEST(FaultInjectorTest, DegradeWindowSlowsAndRestores)
{
    const Tick window_end = 10 * ticksPerMillisecond;

    auto run_one = [&](bool degraded) {
        FaultHarness h;
        if (degraded) {
            FaultPlan plan;
            plan.degradeLink(0, window_end, 0.5);
            h.system.installFaults(std::move(plan));
        }
        HardwareAgent agent(h.context(TransferMechanism::Hardware));
        agent.chunkReady(0, 4 * MiB);
        h.system.run();
        return std::pair<Tick, double>(
            h.lastDelivery, h.system.fabric().egress(0).rateScale());
    };

    const auto [healthy_tick, healthy_scale] = run_one(false);
    const auto [degraded_tick, degraded_scale] = run_one(true);

    // Half the bandwidth must slow the bulk of the transfer down.
    EXPECT_GT(degraded_tick, healthy_tick);
    EXPECT_DOUBLE_EQ(healthy_scale, 1.0);
    // The end boundary restored the nominal rate.
    EXPECT_DOUBLE_EQ(degraded_scale, 1.0);
}

TEST(FaultInjectorTest, DegradeStatsAndEpisodeScheduling)
{
    FaultHarness h;
    FaultPlan plan;
    plan.degradeLink(ticksPerMicrosecond, 2 * ticksPerMicrosecond,
                     0.9);
    FaultInjector &inj = h.system.installFaults(std::move(plan));

    auto &eq = h.system.eventQueue();
    // Before the window: nominal.
    eq.runUntil(ticksPerMicrosecond - 1);
    EXPECT_DOUBLE_EQ(h.system.fabric().egress(0).rateScale(), 1.0);
    // Inside: scaled.
    eq.runUntil(ticksPerMicrosecond);
    EXPECT_DOUBLE_EQ(h.system.fabric().egress(0).rateScale(), 0.1);
    EXPECT_DOUBLE_EQ(inj.stats().get("faults.degrade_windows"), 1.0);
    EXPECT_DOUBLE_EQ(inj.stats().get("faults.injected"), 1.0);
    // After: restored.
    eq.runUntil(2 * ticksPerMicrosecond);
    EXPECT_DOUBLE_EQ(h.system.fabric().egress(0).rateScale(), 1.0);
}

TEST(FaultInjectorTest, DroppedDeliveriesAreRetriedAndLand)
{
    FaultHarness h;
    FaultPlan plan;
    // Everything is lost for the first 20 us, then the fabric heals.
    plan.downLink(0, 20 * ticksPerMicrosecond);
    h.system.installFaults(std::move(plan));

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(10)));
    agent.chunkReady(0, 4 * KiB);
    h.system.run();

    EXPECT_EQ(h.deliveries, h.peers());
    EXPECT_GE(h.lastDelivery, 20 * ticksPerMicrosecond);
    EXPECT_GT(h.stats.get("transfers.retried"), 0.0);
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.abandoned"), 0.0);
    EXPECT_GT(h.system.faults()->stats().get("faults.dropped"), 0.0);
    EXPECT_EQ(h.system.fabric().droppedDeliveries(),
              static_cast<std::uint64_t>(
                  h.system.faults()->stats().get("faults.dropped")));
}

TEST(FaultInjectorTest, RetryBackoffSpacingGrows)
{
    FaultHarness h;
    Trace trace;
    h.system.setTrace(&trace);

    FaultPlan plan;
    plan.downLink(0, maxTick, 0, 1); // gpu0 -> gpu1 dead forever.
    h.system.installFaults(std::move(plan));

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(4)));
    agent.chunkReady(0, 1 * KiB);
    h.system.run();

    // Only the gpu0->gpu1 transfers are lost; the budget (4 attempts)
    // is spent, then the reliable fallback lands the payload.
    EXPECT_EQ(h.deliveries, h.peers());
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.retried"), 3.0);
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.abandoned"), 1.0);
    EXPECT_DOUBLE_EQ(h.stats.get("fallback.activations"), 1.0);

    // Retry spans record each lost attempt's submission; the gaps
    // between consecutive submissions widen (exponential backoff).
    const auto retries = trace.byCategory("retry");
    ASSERT_EQ(retries.size(), 4u);
    std::vector<Tick> gaps;
    for (std::size_t i = 1; i < retries.size(); ++i) {
        ASSERT_GT(retries[i].start, retries[i - 1].start);
        gaps.push_back(retries[i].start - retries[i - 1].start);
    }
    for (std::size_t i = 1; i < gaps.size(); ++i)
        EXPECT_GT(gaps[i], gaps[i - 1]);

    ASSERT_EQ(trace.byCategory("fallback").size(), 1u);
}

TEST(FaultInjectorTest, FallbackSurvivesAPermanentlyDeadLink)
{
    FaultHarness h;
    FaultPlan plan;
    plan.downLink(0, maxTick); // Nothing from gpu0 ever arrives.
    h.system.installFaults(std::move(plan));

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(2)));
    agent.chunkReady(0, 64 * KiB);
    h.system.run();

    // Degraded mode: every peer is reached via the reliable path.
    EXPECT_EQ(h.deliveries, h.peers());
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.abandoned"),
                     static_cast<double>(h.peers()));
    EXPECT_DOUBLE_EQ(h.stats.get("fallback.activations"),
                     static_cast<double>(h.peers()));
}

TEST(FaultInjectorTest, TransientGpuDownRefusesCopiesInsideItsWindow)
{
    const Tick window_start = 10 * ticksPerMicrosecond;
    const Tick window_end = 50 * ticksPerMicrosecond;

    MultiGpuSystem system(voltaPlatform());
    FaultPlan plan;
    plan.downGpu(window_start, window_end, 0);
    FaultInjector &inj = system.installFaults(std::move(plan));
    Interconnect &fabric = system.fabric();

    // Inside the window the fabric refuses the copy at submission:
    // one refusal, and its callback never fires.
    bool refused_fired = false;
    system.runTimelineTo(window_start);
    ASSERT_TRUE(fabric.deviceDown(0));
    system.dma(0).copyToPeer(1, 4 * KiB, [&] { refused_fired = true; });
    EXPECT_EQ(fabric.refusedDeliveries(), 1u);

    // Once the window closes the device is back, and a copy delivers.
    Tick delivered = 0;
    system.runTimelineTo(window_end);
    ASSERT_FALSE(fabric.deviceDown(0));
    system.dma(0).copyToPeer(1, 4 * KiB,
                             [&] { delivered = system.now(); });
    system.run();

    EXPECT_FALSE(refused_fired);
    EXPECT_GT(delivered, window_end);
    EXPECT_EQ(fabric.refusedDeliveries(), 1u);
    EXPECT_DOUBLE_EQ(inj.stats().get("faults.device_down"), 1.0);
}

TEST(FaultInjectorTest, ReliablePathIsExemptFromLoss)
{
    MultiGpuSystem system(voltaPlatform());
    FaultPlan plan;
    plan.downLink(0, maxTick);
    system.installFaults(std::move(plan));

    // DMA copies ride the hardware-reliable path: delivered despite
    // the dead link.
    bool delivered = false;
    system.dma(0).copyToPeer(1, 64 * KiB, [&] { delivered = true; });
    system.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(system.fabric().droppedDeliveries(), 0u);
}

TEST(FaultInjectorTest, VerdictsMatchLinearScanReference)
{
    // The injector's filter must return, transfer for transfer, what
    // a linear scan over the whole plan returns: same drops, same RNG
    // draws in the same order. Degrade boundaries re-time channels in
    // the fabric's order, so both systems rebook the same flights.
    const Tick horizon = 60 * ticksPerMicrosecond;
    const int transfers = 96;
    const std::pair<PlatformSpec, int> platforms[] = {
        {voltaPlatform(), 120},
        {multiNodePlatform(2, 4), 100},
    };

    std::uint64_t draws = 0;
    std::uint64_t drops = 0;
    std::uint64_t rebooks = 0;
    std::uint64_t landed = 0;
    for (const auto &[platform, cases] : platforms) {
        for (int c = 0; c < cases; ++c) {
            SCOPED_TRACE(platform.name + " case " + std::to_string(c));
            Rng rng(deriveSeed(0xf11e, static_cast<std::uint64_t>(c)));
            const FaultPlan plan =
                filterCoveragePlan(rng, platform.numGpus, horizon);
            const std::uint64_t stream_seed = rng();

            const FilterOutcome indexed = runFilterCase(
                platform, plan, stream_seed, transfers, horizon, false);
            const FilterOutcome scanned = runFilterCase(
                platform, plan, stream_seed, transfers, horizon, true);
            ASSERT_TRUE(indexed == scanned);

            draws += scanned.draws;
            drops += scanned.verdictDrops;
            rebooks += scanned.rebookedDeliveries;
            for (const Tick t : indexed.landed)
                landed += t != maxTick;
        }
    }
    // Not vacuous: every filter path fired somewhere.
    EXPECT_GT(draws, 2000u);
    EXPECT_GT(drops, 1000u);
    EXPECT_GT(rebooks, 1000u);
    EXPECT_GT(landed, 10000u);
}

TEST(FaultInjectorTest, SeededDropsAreDeterministic)
{
    auto run_once = [] {
        FaultHarness h;
        FaultPlan plan;
        plan.seed = 42;
        plan.dropDeliveries(0, maxTick, 0.5);
        h.system.installFaults(std::move(plan));

        PollingAgent agent(
            h.context(TransferMechanism::Polling, testRetry(6)));
        for (int c = 0; c < 32; ++c)
            agent.chunkReady(c, 16 * KiB);
        h.system.run();

        EXPECT_EQ(h.deliveries, 32 * h.peers());
        return std::tuple<Tick, double, double>(
            h.lastDelivery, h.stats.get("transfers.retried"),
            h.system.faults()->stats().get("faults.dropped"));
    };

    const auto a = run_once();
    const auto b = run_once();
    EXPECT_GT(std::get<1>(a), 0.0);
    EXPECT_EQ(a, b);
}

TEST(RebookingTest, WindowEndRetimesInFlightTransfers)
{
    // A transfer booked inside a degrade window but outliving it: the
    // submission-rate model (default) honors the degraded rate to the
    // end; rebooking re-times the remainder at nominal speed once the
    // window closes, landing strictly earlier.
    auto run_one = [](bool degraded, bool rebooking,
                      Tick window_end) {
        FaultHarness h;
        h.system.fabric().setRebooking(rebooking);
        if (degraded) {
            FaultPlan plan;
            plan.degradeLink(0, window_end, 0.5);
            h.system.installFaults(std::move(plan));
        }
        HardwareAgent agent(h.context(TransferMechanism::Hardware));
        agent.chunkReady(0, 4 * MiB);
        h.system.run();
        EXPECT_EQ(h.deliveries, h.peers());
        return std::pair<Tick, std::uint64_t>(
            h.lastDelivery, h.system.fabric().rebookedDeliveries());
    };

    const Tick healthy = run_one(false, false, 0).first;
    // Close the window when the healthy run would just have finished:
    // at half rate only ~half the bytes are through by then.
    const Tick window_end = healthy;
    const auto [norebook, norebook_moves] =
        run_one(true, false, window_end);
    const auto [rebooked, rebook_moves] =
        run_one(true, true, window_end);

    EXPECT_GT(norebook, healthy); // The window really cut through.
    EXPECT_LT(rebooked, norebook);
    EXPECT_GT(rebooked, healthy);
    EXPECT_EQ(norebook_moves, 0u);
    EXPECT_GT(rebook_moves, 0u);
}

TEST(RebookingTest, RetryHorizonFollowsASlowedDelivery)
{
    // A degrade window opening mid-flight pushes the delivery past the
    // originally predicted tick. With rebooking on, the retry layer's
    // ack horizon must follow the new completion instead of declaring
    // the slowed (but healthy) transfer lost.
    FaultHarness h;
    h.system.fabric().setRebooking(true);
    FaultPlan plan;
    plan.degradeLink(5 * ticksPerMicrosecond,
                     500 * ticksPerMicrosecond, 0.8);
    h.system.installFaults(std::move(plan));

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(4)));
    agent.chunkReady(0, 4 * MiB);
    h.system.run();

    EXPECT_EQ(h.deliveries, h.peers());
    EXPECT_GT(h.system.fabric().rebookedDeliveries(), 0u);
    // Nothing was dropped, so nothing may have been retried.
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.retried"), 0.0);
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.abandoned"), 0.0);
}

TEST(RebookingTest, DroppedAndQuiescedFlightsIgnoreLaterRetimes)
{
    // Three transfers share a degrade window that opens while they
    // are all still on the wire: one was dropped by a LinkDown, one
    // was aborted by quiesceDevice, one is live. The window re-times
    // all three bookings, but only the live flight may move or fire.
    PlatformSpec platform = voltaPlatform();
    platform.fabric.topology = FabricTopology::PairwiseLinks;
    MultiGpuSystem system(platform);
    system.setFunctional(false);
    Interconnect &fabric = system.fabric();
    fabric.setRebooking(true);

    const Tick window = 5 * ticksPerMicrosecond;
    FaultPlan plan;
    plan.downLink(0, window, 0, 1);
    plan.degradeLink(window, maxTick, 0.5);
    system.installFaults(std::move(plan));

    int fired[3] = {0, 0, 0};
    Tick predicted[3] = {0, 0, 0};
    Tick landed = 0;
    const std::pair<int, int> pairs[] = {{0, 1}, {2, 3}, {0, 2}};
    for (int i = 0; i < 3; ++i) {
        Interconnect::Request req;
        req.src = pairs[i].first;
        req.dst = pairs[i].second;
        req.bytes = 4 * MiB;
        req.writeGranularity = 4096;
        req.onComplete = [&fired, &landed, &system, i] {
            ++fired[i];
            landed = system.now();
        };
        predicted[i] = fabric.transfer(req);
        ASSERT_GT(predicted[i], window); // On the wire when it opens.
    }
    EXPECT_EQ(fabric.droppedDeliveries(), 1u);
    EXPECT_EQ(fabric.numTrackedFlights(), 2u);

    system.eventQueue().schedule(ticksPerMicrosecond, [&fabric] {
        EXPECT_EQ(fabric.quiesceDevice(3), 1u);
    });
    system.run();

    EXPECT_EQ(fired[0], 0); // Dropped.
    EXPECT_EQ(fired[1], 0); // Quiesced.
    EXPECT_EQ(fired[2], 1); // Live, and moved by the window.
    EXPECT_GT(landed, predicted[2]);
    EXPECT_EQ(fabric.rebookedDeliveries(), 1u);
    EXPECT_EQ(fabric.quiescedFlights(), 1u);
    EXPECT_EQ(fabric.numTrackedFlights(), 0u);
}

TEST(RebookingTest, ReusedFlightSlotIgnoresItsOldTag)
{
    // A dropped 0 -> 1 push frees its flight slot at once while its
    // booking stays on the 0 -> 1 wire, and a reliable push on the
    // same link takes the freed slot, booked right behind it. A
    // degrade window then re-times both bookings. The dropped
    // booking's tag names the reused slot under an old generation: it
    // must find nothing, or it would move the live flight to the
    // dropped booking's service end.
    PlatformSpec platform = voltaPlatform();
    platform.fabric.topology = FabricTopology::PairwiseLinks;
    MultiGpuSystem system(platform);
    system.setFunctional(false);
    Interconnect &fabric = system.fabric();
    fabric.setRebooking(true);

    const Tick window = 5 * ticksPerMicrosecond;
    FaultPlan plan;
    plan.downLink(0, window, 0, 1);
    plan.degradeLink(window, maxTick, 0.5, 0, 1);
    system.installFaults(std::move(plan));

    // dropped, reused (live, same slot), quiesced, landed early.
    const std::pair<int, int> pairs[] = {{0, 1}, {0, 1}, {2, 3}, {3, 2}};
    const std::uint64_t bytes[] = {4 * MiB, 4 * MiB, 4 * MiB, 4 * KiB};
    int fired[4] = {0, 0, 0, 0};
    Tick predicted[4] = {0, 0, 0, 0};
    Tick landed = 0;
    for (int i = 0; i < 4; ++i) {
        Interconnect::Request req;
        req.src = pairs[i].first;
        req.dst = pairs[i].second;
        req.bytes = bytes[i];
        req.writeGranularity = 4096;
        req.reliable = i == 1; // Exempt from the LinkDown drop.
        req.onComplete = [&fired, &landed, &system, i] {
            ++fired[i];
            landed = system.now();
        };
        predicted[i] = fabric.transfer(req);
    }
    ASSERT_GT(predicted[1], window); // On the wire when it opens.
    ASSERT_LT(predicted[3], window);
    EXPECT_EQ(fabric.droppedDeliveries(), 1u);
    EXPECT_EQ(fabric.numTrackedFlights(), 3u);

    // The landed 3 -> 2 flight's slot is free but still names GPU 3:
    // only the live 2 -> 3 flight may be aborted.
    system.eventQueue().schedule(window - 1, [&] {
        EXPECT_EQ(fired[3], 1);
        EXPECT_EQ(fabric.numTrackedFlights(), 2u);
        EXPECT_EQ(fabric.quiesceDevice(3), 1u);
        EXPECT_EQ(fabric.quiesceDevice(2), 0u);
        EXPECT_EQ(fabric.numTrackedFlights(), 1u);
    });
    system.run();

    EXPECT_EQ(fired[0], 0); // Dropped.
    EXPECT_EQ(fired[1], 1); // Live, moved once by the window.
    EXPECT_EQ(fired[2], 0); // Quiesced.
    EXPECT_EQ(fired[3], 1);
    EXPECT_GT(landed, predicted[1]);
    EXPECT_EQ(fabric.rebookedDeliveries(), 1u);
    EXPECT_EQ(fabric.quiescedFlights(), 1u);
    EXPECT_EQ(fabric.numTrackedFlights(), 0u);
}

TEST(RebookingTest, RebookingCannotBeTurnedOff)
{
    // Turning rebooking off would strand the tracked flights, whose
    // completions the flight table fires. The fabric refuses, and the
    // one tracked transfer still completes exactly once.
    MultiGpuSystem system(voltaPlatform());
    system.setFunctional(false);
    Interconnect &fabric = system.fabric();
    fabric.setRebooking(true);

    int fired = 0;
    Interconnect::Request req;
    req.src = 0;
    req.dst = 1;
    req.bytes = 4 * MiB;
    req.writeGranularity = 4096;
    req.onComplete = [&fired] { ++fired; };
    fabric.transfer(req);
    ASSERT_EQ(fabric.numTrackedFlights(), 1u);

    EXPECT_THROW(fabric.setRebooking(false), FatalError);
    EXPECT_TRUE(fabric.rebooking());
    system.run();
    EXPECT_EQ(fired, 1) << "fired " << fired;
    EXPECT_EQ(fabric.numTrackedFlights(), 0u);
}

TEST(RetryLifetimeTest, AckedTimeoutOutlivesItsSender)
{
    // ProactRuntime::runPhase destroys its per-phase senders once
    // every delivery has landed, while their acked attempts' timeouts
    // are still queued; a later drain fires them. They must not touch
    // the dead sender (ASan reports a use-after-free if they do; an
    // unsanitized build may crash or re-send the payload).
    MultiGpuSystem system(voltaPlatform());
    system.setFunctional(false);
    auto &eq = system.eventQueue();
    StatSet stats;
    auto sender = std::make_unique<RetryingSender>(
        eq, system.fabric(), testRetry(), &stats);

    int delivered = 0;
    Interconnect::Request req;
    req.src = 0;
    req.dst = 1;
    req.bytes = 4 * KiB;
    req.writeGranularity = 4096;
    req.onComplete = [&delivered] { ++delivered; };
    sender->send(std::move(req));
    while (delivered == 0 && eq.runNext()) {
    }
    ASSERT_EQ(delivered, 1);
    EXPECT_EQ(sender->inFlight(), 0u);
    ASSERT_FALSE(eq.empty()); // The acked attempt's timeout.

    sender.reset();
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(delivered, 1);
    EXPECT_DOUBLE_EQ(stats.get("transfers.retried"), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("fallback.activations"), 0.0);
}

TEST(RetryRerouteTest, ReplansThroughRerouterInsteadOfFallback)
{
    // Reroute-aware retry: after rerouteAfterAttempts lost attempts
    // the sender consults the rerouter instead of burning the rest of
    // its budget on the dead wire. By the time the replan finds a
    // relay plan the loss streak has marked the link DOWN, so every
    // chunk completes through relays — the reliable fallback never
    // fires.
    PlatformSpec platform = voltaPlatform();
    platform.fabric.topology = FabricTopology::PairwiseLinks;
    FaultHarness h(platform);
    h.system.enableHealth();
    h.system.enableReroute();

    FaultPlan plan;
    plan.downLink(0, maxTick, 0, 1);
    h.system.installFaults(std::move(plan));

    RetryPolicy retry = testRetry(8);
    retry.rerouteAfterAttempts = 2;
    PollingAgent agent(
        h.context(TransferMechanism::Polling, retry));
    const int chunks = 4;
    auto &eq = h.system.eventQueue();
    for (int c = 0; c < chunks; ++c) {
        eq.schedule(static_cast<Tick>(c) * 20 * ticksPerMicrosecond,
                    [&agent, c] { agent.chunkReady(c, 64 * KiB); });
    }
    h.system.run();

    EXPECT_EQ(h.deliveries, chunks * h.peers());
    EXPECT_GT(h.stats.get("transfers.retried"), 0.0);
    EXPECT_GT(h.stats.get("transfers.replanned"), 0.0);
    EXPECT_DOUBLE_EQ(h.stats.get("fallback.activations"), 0.0);
    EXPECT_EQ(h.system.health()->linkState(0, 1), LinkState::Down);
}

TEST(RetryRerouteTest, DisabledKnobNeverReplans)
{
    // rerouteAfterAttempts = 0 keeps the pre-reroute behavior even
    // with a rerouter installed: exhaust attempts, then fall back.
    PlatformSpec platform = voltaPlatform();
    platform.fabric.topology = FabricTopology::PairwiseLinks;
    FaultHarness h(platform);
    h.system.enableHealth();
    h.system.enableReroute();

    FaultPlan plan;
    plan.downLink(0, maxTick, 0, 1);
    h.system.installFaults(std::move(plan));

    HardwareAgent agent(
        h.context(TransferMechanism::Hardware, testRetry(3)));
    agent.chunkReady(0, 64 * KiB);
    h.system.run();

    EXPECT_EQ(h.deliveries, h.peers());
    EXPECT_DOUBLE_EQ(h.stats.get("transfers.replanned"), 0.0);
    EXPECT_GT(h.stats.get("fallback.activations"), 0.0);
}

TEST(FaultInjectorTest, ArmTwiceIsFatal)
{
    MultiGpuSystem system(voltaPlatform());
    FaultPlan plan;
    plan.dropDeliveries(0, maxTick, 0.1);
    FaultInjector &inj = system.installFaults(std::move(plan));
    EXPECT_THROW(inj.arm(), FatalError);
    EXPECT_THROW(system.installFaults(FaultPlan{}), FatalError);
}

/**
 * The acceptance scenario: a seeded plan with delivery drops and a
 * 50 % bandwidth-degradation window; all four transfer mechanisms
 * complete a functional workload with verified numerics (SSSP checks
 * bitwise against its serial reference, so results match the
 * fault-free run), non-zero retries, and no hang.
 */
class FaultedMechanismSweep
    : public ::testing::TestWithParam<TransferMechanism>
{
  protected:
    static FaultPlan
    acceptancePlan()
    {
        FaultPlan plan;
        plan.seed = 7;
        plan.dropDeliveries(0, maxTick, 0.05);
        plan.degradeLink(0, 2 * ticksPerMillisecond, 0.5);
        return plan;
    }
};

TEST_P(FaultedMechanismSweep, WorkloadSurvivesWithVerifiedResults)
{
    const TransferMechanism mech = GetParam();

    auto run_once = [&] {
        auto workload = makeSmallWorkload("SSSP");
        workload->setup(4);
        MultiGpuSystem system(voltaPlatform());
        system.installFaults(acceptancePlan());

        ProactRuntime::Options options;
        options.config.mechanism = mech;
        options.config.chunkBytes = 4 * KiB;
        options.config.transferThreads = 2048;
        options.config.retry = testRetry(6);
        ProactRuntime runtime(system, options);

        const Tick ticks = runtime.run(*workload);
        EXPECT_TRUE(workload->verify());
        EXPECT_GT(runtime.stats().get("transfers.retried"), 0.0);
        EXPECT_GT(system.faults()->stats().get("faults.dropped"),
                  0.0);
        return std::pair<Tick, std::map<std::string, double>>(
            ticks, runtime.stats().all());
    };

    // Two runs with the same seed: identical final tick and stats.
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, FaultedMechanismSweep,
    ::testing::Values(TransferMechanism::Inline,
                      TransferMechanism::Polling,
                      TransferMechanism::Cdp,
                      TransferMechanism::Hardware),
    [](const auto &info) { return mechanismName(info.param); });
