/**
 * @file
 * Tests for device-loss tolerance: GpuDown fault episodes and seeded
 * device-MTBF campaigns, the fabric's dead-endpoint refuse/quiesce
 * paths, the device heartbeat watchdog's hysteresis, checkpointed
 * abort/resume through the harness, election-sweep timeline
 * charging, and the fleet layer's quarantine -> shrink -> restart
 * recovery pipeline.
 */

#include "faults/fault_plan.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "fleet/placement.hh"
#include "harness/session.hh"
#include "health/device_health.hh"
#include "proact/config.hh"
#include "proact/runtime.hh"
#include "sim/logging.hh"
#include "system/multi_gpu_system.hh"
#include "system/platform.hh"
#include "tests/small_workloads.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace proact;
using namespace proact::fleet;
using namespace proact::test;

namespace {

constexpr Tick us = ticksPerMicrosecond;

TransferConfig
decoupledConfig()
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    return config;
}

RetryPolicy
testRetry(int max_attempts = 5)
{
    RetryPolicy policy;
    policy.enabled = true;
    policy.maxAttempts = max_attempts;
    return policy;
}

JobSpec
fixedJob(int id, const std::string &workload, int gpus,
         Tick arrival = 0, int priority = 0)
{
    JobSpec job;
    job.id = id;
    job.workload = workload;
    job.gpus = gpus;
    job.arrival = arrival;
    job.priority = priority;
    return job;
}

} // namespace

TEST(DeviceFaultPlan, DownGpuValidationAndDescribe)
{
    EXPECT_EQ(faultKindName(FaultKind::GpuDown), "gpu-down");

    {
        FaultPlan plan;
        plan.downGpu(0, maxTick, -1); // Wildcard device: nonsense.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downGpu(0, maxTick, 7); // GPU 7 of 4.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downGpu(100, 100, 2); // Empty window.
        EXPECT_THROW(plan.validate(4), FatalError);
    }
    {
        FaultPlan plan;
        plan.downGpu(10 * us, maxTick, 2);
        EXPECT_NO_THROW(plan.validate(4));
        EXPECT_EQ(plan.episodes.at(0).kind, FaultKind::GpuDown);
        EXPECT_EQ(plan.episodes.at(0).gpu, 2);
    }
}

TEST(DeviceFaultPlan, MtbfCampaignIsSeededAndBounded)
{
    DeviceLifecycleOptions options;
    options.mtbf = 400 * us;
    options.horizon = 2000 * us;
    options.maxLosses = 2;

    const FaultPlan a = deviceMtbfFaultPlan(17, 8, options);
    const FaultPlan b = deviceMtbfFaultPlan(17, 8, options);
    ASSERT_EQ(a.episodes.size(), b.episodes.size());
    for (std::size_t i = 0; i < a.episodes.size(); ++i) {
        EXPECT_EQ(a.episodes[i].start, b.episodes[i].start);
        EXPECT_EQ(a.episodes[i].gpu, b.episodes[i].gpu);
    }

    // Losses are permanent GpuDown episodes, capped at maxLosses,
    // targeting in-range devices.
    EXPECT_LE(a.episodes.size(), 2u);
    for (const FaultEpisode &ep : a.episodes) {
        EXPECT_EQ(ep.kind, FaultKind::GpuDown);
        EXPECT_EQ(ep.end, maxTick);
        EXPECT_GE(ep.gpu, 0);
        EXPECT_LT(ep.gpu, 8);
    }

    // Per-device derived streams: enlarging the machine never
    // rewrites the fate of devices already in it (uncapped so the
    // budget cannot evict an early death).
    options.maxLosses = 3;
    const FaultPlan small = deviceMtbfFaultPlan(23, 4, options);
    options.maxLosses = 15;
    const FaultPlan large = deviceMtbfFaultPlan(23, 16, options);
    std::map<int, Tick> large_deaths;
    for (const FaultEpisode &ep : large.episodes)
        large_deaths[ep.gpu] = ep.start;
    for (const FaultEpisode &ep : small.episodes) {
        ASSERT_TRUE(large_deaths.count(ep.gpu));
        EXPECT_EQ(large_deaths.at(ep.gpu), ep.start);
    }

    // A campaign must leave a survivor.
    options.maxLosses = 4;
    EXPECT_THROW(deviceMtbfFaultPlan(1, 4, options), FatalError);
}

TEST(RecoveryPlacement, QuarantineWithdrawsGpusPermanently)
{
    PlacementAllocator alloc(voltaPlatform(),
                             PlacementMode::PlaneSharing, 4);
    ASSERT_EQ(alloc.numPlanes(), 1);
    EXPECT_EQ(alloc.maxAllocatableGpus(), 4);

    const auto full = alloc.tryAllocate(4);
    ASSERT_TRUE(full);

    // Quarantining a granted GPU: releasing the placement later is
    // fine, but the slot never comes back.
    alloc.quarantine(2);
    alloc.quarantine(2); // Idempotent.
    EXPECT_TRUE(alloc.isQuarantined(2));
    EXPECT_FALSE(alloc.isQuarantined(1));
    EXPECT_EQ(alloc.quarantinedGpus(), 1);
    EXPECT_EQ(alloc.maxAllocatableGpus(), 3);

    alloc.release(*full);
    EXPECT_FALSE(alloc.tryAllocate(4).has_value());
    const auto shrunk = alloc.tryAllocate(3);
    ASSERT_TRUE(shrunk);
    EXPECT_EQ(std::count(shrunk->gpus.begin(), shrunk->gpus.end(), 2),
              0);

    EXPECT_THROW(alloc.quarantine(99), FatalError);
}

TEST(RecoveryPlacement, QuarantineOnOnePlaneLeavesTheOtherWhole)
{
    PlacementAllocator alloc(dgx2Platform(), PlacementMode::Disjoint);
    alloc.quarantine(3); // Plane 0.
    EXPECT_EQ(alloc.maxAllocatableGpus(), 8);
    EXPECT_EQ(alloc.freeGpusOnPlane(0), 7);
    EXPECT_EQ(alloc.freeGpusOnPlane(1), 8);

    // An 8-GPU tenant still fits -- on the intact plane.
    const auto p = alloc.tryAllocate(8);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->planes.at(0), 1);
}

TEST(RecoveryFabric, DeadEndpointRefusesAndQuiesces)
{
    MultiGpuSystem system(voltaPlatform());
    Interconnect &fabric = system.fabric();
    fabric.setRebooking(true); // Quiesce works on tracked flights.

    // A flight to a live peer, then the peer dies mid-flight:
    // quiesce aborts the tracked delivery and the callback never
    // fires.
    int delivered = 0;
    Interconnect::Request req;
    req.src = 0;
    req.dst = 1;
    req.bytes = 1 * MiB;
    req.writeGranularity = 256;
    req.onComplete = [&] { ++delivered; };
    fabric.transfer(req);
    EXPECT_GT(fabric.numTrackedFlights(), 0u);

    fabric.setDeviceDown(1, true);
    const std::size_t aborted = fabric.quiesceDevice(1);
    EXPECT_GT(aborted, 0u);
    EXPECT_EQ(fabric.quiescedFlights(), aborted);
    EXPECT_EQ(fabric.numTrackedFlights(), 0u);

    // New submissions touching the dead device -- either endpoint,
    // reliable or not -- are refused at the door.
    Interconnect::Request to_dead = req;
    to_dead.onComplete = [&] { ++delivered; };
    fabric.transfer(to_dead);
    Interconnect::Request from_dead = req;
    from_dead.src = 1;
    from_dead.dst = 2;
    from_dead.reliable = true;
    from_dead.onComplete = [&] { ++delivered; };
    fabric.transfer(from_dead);
    EXPECT_EQ(fabric.refusedDeliveries(), 2u);

    system.run();
    EXPECT_EQ(delivered, 0);
}

TEST(RecoveryWatchdog, PermanentLossIsDeclaredWithHysteresis)
{
    MultiGpuSystem system(voltaPlatform());
    FaultPlan plan;
    plan.downGpu(12 * us, maxTick, 2);
    system.installFaults(std::move(plan));
    DeviceHealthMonitor &mon = system.enableDeviceHealth();

    system.run(); // Terminates: the watchdog never pins the queue.
    EXPECT_EQ(system.eventQueue().pendingEvents(), 0u);

    EXPECT_EQ(mon.deviceState(2), DeviceState::Lost);
    EXPECT_TRUE(system.anyDeviceLost());
    ASSERT_EQ(system.lostDevices(), std::vector<int>{2});
    EXPECT_GT(mon.lostAt(2), Tick{12 * us});

    // Hysteresis: SUSPECT strictly precedes LOST.
    ASSERT_GE(mon.transitions().size(), 2u);
    bool saw_suspect = false;
    for (const auto &t : mon.transitions()) {
        if (t.gpu != 2)
            continue;
        if (t.to == DeviceState::Suspect)
            saw_suspect = true;
        if (t.to == DeviceState::Lost) {
            EXPECT_TRUE(saw_suspect);
        }
    }
    EXPECT_TRUE(saw_suspect);

    // Survivors stay healthy.
    for (const int g : {0, 1, 3})
        EXPECT_EQ(mon.deviceState(g), DeviceState::Healthy);
}

TEST(RecoveryWatchdog, TransientOutageRecoversWithoutLost)
{
    MultiGpuSystem system(voltaPlatform());
    static_assert(DeviceHealthMonitor::heartbeatInterval == 5 * us);
    static_assert(DeviceHealthMonitor::lostAfterMisses == 3);

    // Down for ~1.5 beats: enough to turn SUSPECT, never LOST.
    FaultPlan plan;
    plan.downGpu(12 * us, 19 * us, 1);
    system.installFaults(std::move(plan));
    DeviceHealthMonitor &mon = system.enableDeviceHealth();

    system.run();

    EXPECT_EQ(mon.deviceState(1), DeviceState::Healthy);
    EXPECT_FALSE(mon.anyLost());
    bool suspected = false, recovered = false;
    for (const auto &t : mon.transitions()) {
        suspected |= t.gpu == 1 && t.to == DeviceState::Suspect;
        recovered |= t.gpu == 1 && t.from == DeviceState::Suspect
            && t.to == DeviceState::Healthy;
    }
    EXPECT_TRUE(suspected);
    EXPECT_TRUE(recovered);
}

TEST(RecoverySession, CheckpointsChargeTheTimeline)
{
    auto run_once = [](bool checkpoint) {
        auto workload = makeSmallWorkload("Jacobi");
        workload->setup(4);
        Session session(voltaPlatform());
        Session::RunOptions options;
        options.config = decoupledConfig();
        options.checkpoint = checkpoint;
        return session.run(*workload, Paradigm::ProactDecoupled,
                           options);
    };

    const ParadigmRun off = run_once(false);
    EXPECT_EQ(off.checkpoints, 0);
    EXPECT_EQ(off.checkpointTicks, Tick{0});

    static_assert(ProactRuntime::checkpointCost == 50 * us);
    const ParadigmRun on = run_once(true);
    EXPECT_EQ(on.checkpoints, 4); // One per Jacobi iteration.
    EXPECT_EQ(on.checkpointIteration, 3);
    EXPECT_EQ(on.checkpointTicks, Tick{4 * 50 * us});
    // The charge is real simulated time, not a side counter.
    EXPECT_EQ(on.ticks, off.ticks + 4 * 50 * us);
}

TEST(RecoverySession, DeviceLossAbortsAndResumesFromCheckpoint)
{
    auto make = [] {
        auto w = makeSmallWorkload("Jacobi");
        w->setup(4);
        return w;
    };
    Session session(voltaPlatform());

    Session::RunOptions clean;
    clean.config = decoupledConfig();
    clean.checkpoint = true;
    const ParadigmRun healthy = session.run(
        *make(), Paradigm::ProactDecoupled, clean);
    ASSERT_FALSE(healthy.aborted);
    ASSERT_EQ(healthy.completedIterations, 4);

    // Kill GPU 3 halfway through the run.
    Session::RunOptions faulty = clean;
    faulty.faults.downGpu(healthy.ticks / 2, maxTick, 3);
    faulty.config.retry = testRetry();
    faulty.deviceHealth = true;
    const ParadigmRun lost = session.run(
        *make(), Paradigm::ProactDecoupled, faulty);

    EXPECT_TRUE(lost.aborted);
    EXPECT_EQ(lost.lostGpu, 3);
    EXPECT_LT(lost.completedIterations, 4);
    // Every completed iteration is checkpointed.
    EXPECT_EQ(lost.checkpointIteration, lost.completedIterations - 1);
    EXPECT_GT(lost.refusedDeliveries + lost.orphanedTransfers
                  + lost.quiescedFlights,
              0u);

    // Restart on a healthy system from the latest checkpoint: the
    // resumed instance only executes the remaining iterations.
    Session::RunOptions resume = clean;
    resume.firstIteration = lost.checkpointIteration + 1;
    const ParadigmRun resumed = session.run(
        *make(), Paradigm::ProactDecoupled, resume);
    EXPECT_FALSE(resumed.aborted);
    EXPECT_EQ(resumed.completedIterations, 4);
    EXPECT_LT(resumed.ticks, healthy.ticks);

    // A restart point past the workload is rejected.
    Session::RunOptions bogus = clean;
    bogus.firstIteration = 5;
    EXPECT_THROW(session.run(*make(), Paradigm::ProactDecoupled,
                             bogus),
                 FatalError);
}

TEST(RecoveryFleet, ElectionSweepsChargeTenantsWhenAsked)
{
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 4)};

    FleetSession::Options options;
    options.chargeElections = true;
    FleetSession session(voltaPlatform(), options);

    // First serve misses the elector cache: the sweep is charged.
    const FleetReport first = session.serve(jobs);
    ASSERT_EQ(first.tenants.size(), 1u);
    EXPECT_GT(first.tenants.at(0).electionSweepTicks, Tick{0});
    EXPECT_EQ(first.tenants.at(0).serviceTicks,
              first.tenants.at(0).run.ticks
                  + first.tenants.at(0).electionSweepTicks);

    // Second serve hits the cache: election is free, which is the
    // point of the persistent profiler cache.
    const FleetReport second = session.serve(jobs);
    EXPECT_EQ(second.tenants.at(0).electionSweepTicks, Tick{0});
    EXPECT_LT(second.tenants.at(0).serviceTicks,
              first.tenants.at(0).serviceTicks);
}

TEST(RecoveryFleet, ElectedAtTickMovesWhenChargingIsOn)
{
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 4)};

    auto serve_one = [&](bool charge) {
        FleetSession::Options options;
        options.chargeElections = charge;
        FleetSession session(voltaPlatform(), options);
        const FleetReport report = session.serve(jobs);
        return report.tenants.at(0);
    };

    // Free sweeps: the decision lands at admission.
    const TenantRecord free_rec = serve_one(false);
    EXPECT_EQ(free_rec.electedAt, free_rec.admitted);

    // Charged: the cache-miss sweep runs on the timeline before the
    // tenant's kernels, so the elected-at tick moves past admission
    // by exactly the charged cost.
    const TenantRecord paid = serve_one(true);
    EXPECT_GT(paid.electionSweepTicks, Tick{0});
    EXPECT_GT(paid.electedAt, paid.admitted);
    EXPECT_EQ(paid.electedAt,
              paid.admitted + paid.electionSweepTicks);
}

TEST(RecoveryFleet, ElectionChargeDefaultsOff)
{
    // Charging is a FleetSession::Options field, off unless set.
    const FleetSession::Options options;
    EXPECT_FALSE(options.chargeElections);
}

namespace {

/** Fleet options arming recovery with a mid-run GPU loss for
 * attempt 0 of @p victim. */
FleetSession::Options
recoveryOptions(int victim, Tick loss_tick, int lost_gpu)
{
    FleetSession::Options options;
    options.recovery.enabled = true;
    options.faultPlanFor = [=](const JobSpec &job, int attempt) {
        FaultPlan plan;
        if (job.id == victim && attempt == 0)
            plan.downGpu(loss_tick, maxTick, lost_gpu);
        return plan;
    };
    return options;
}

} // namespace

TEST(RecoveryFleet, DeviceLossQuarantinesShrinksAndRestarts)
{
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 4)};

    // Measure the clean service time so the loss lands mid-run.
    Tick clean_service = 0;
    {
        FleetSession::Options options;
        options.recovery.enabled = true;
            FleetSession session(voltaPlatform(), options);
        const FleetReport clean = session.serve(jobs);
        ASSERT_EQ(clean.tenants.size(), 1u);
        EXPECT_TRUE(clean.recoveries.empty());
        clean_service = clean.tenants.at(0).serviceTicks;
    }

    FleetSession session(voltaPlatform(),
                         recoveryOptions(0, clean_service / 2, 2));
    const FleetReport report = session.serve(jobs);

    ASSERT_EQ(report.recoveries.size(), 1u);
    const RecoveryEvent &ev = report.recoveries.at(0);
    EXPECT_EQ(ev.jobId, 0);
    EXPECT_EQ(ev.attempt, 0);
    EXPECT_EQ(ev.lostGpu, 2);
    EXPECT_GE(ev.readmitTick, ev.abortTick);
    EXPECT_EQ(report.quarantinedGpus, 1u);
    EXPECT_EQ(report.recoveryLatencyP95,
              ev.readmitTick - ev.abortTick);

    // The job finished on its second attempt, shrunk onto the three
    // survivors (the single volta plane lost a GPU for good), resumed
    // at the checkpointed iteration, and paid the restore cost.
    ASSERT_EQ(report.tenants.size(), 1u);
    const TenantRecord &tenant = report.tenants.at(0);
    EXPECT_FALSE(tenant.run.aborted);
    EXPECT_EQ(tenant.attempt, 1);
    EXPECT_EQ(tenant.job.gpus, 3);
    EXPECT_EQ(tenant.firstIteration, ev.resumeIteration);
    EXPECT_EQ(std::count(tenant.placement.gpus.begin(),
                         tenant.placement.gpus.end(), 2),
              0);
    if (tenant.firstIteration > 0) {
        EXPECT_GT(tenant.restoreTicks, Tick{0});
    }
    EXPECT_GE(tenant.run.completedIterations, tenant.firstIteration);
    EXPECT_GT(tenant.run.completedIterations, 0);

    // The whole-life latency spans both attempts.
    EXPECT_GE(tenant.latency, tenant.serviceTicks);
}

TEST(RecoveryFleet, MultiPlaneMachineRestartsAtFullWidth)
{
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 8)};

    Tick clean_service = 0;
    {
        FleetSession::Options options;
        options.recovery.enabled = true;
            FleetSession session(dgx2Platform(), options);
        clean_service =
            session.serve(jobs).tenants.at(0).serviceTicks;
    }

    FleetSession session(dgx2Platform(),
                         recoveryOptions(0, clean_service / 2, 5));
    const FleetReport report = session.serve(jobs);

    ASSERT_EQ(report.recoveries.size(), 1u);
    EXPECT_EQ(report.quarantinedGpus, 1u);
    ASSERT_EQ(report.tenants.size(), 1u);
    const TenantRecord &tenant = report.tenants.at(0);
    EXPECT_FALSE(tenant.run.aborted);
    EXPECT_EQ(tenant.attempt, 1);

    // Only one of the two 8-GPU planes lost a device: the restart
    // keeps its full width on the intact plane, avoiding the
    // quarantined GPU entirely.
    EXPECT_EQ(tenant.job.gpus, 8);
    EXPECT_EQ(std::count(tenant.placement.gpus.begin(),
                         tenant.placement.gpus.end(), 5),
              0);
}

TEST(RecoveryFleet, RecoveryServesAreBitIdentical)
{
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 4),
                                       fixedJob(1, "SSSP", 2, 10)};

    // Fresh sessions (a shared one would elect from a warm cache on
    // the second serve and legitimately time differently when
    // election charging is on).
    auto serve_once = [&] {
        FleetSession session(
            voltaPlatform(), recoveryOptions(0, 400 * us, 1));
        return session.serve(jobs);
    };
    const FleetReport a = serve_once();
    const FleetReport b = serve_once();

    EXPECT_EQ(a.percentileTable(), b.percentileTable());
    EXPECT_EQ(a.toJson("volta", 0), b.toJson("volta", 0));
    ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
    for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
        EXPECT_EQ(a.recoveries[i].abortTick,
                  b.recoveries[i].abortTick);
        EXPECT_EQ(a.recoveries[i].lostWork,
                  b.recoveries[i].lostWork);
        EXPECT_EQ(a.recoveries[i].readmitTick,
                  b.recoveries[i].readmitTick);
    }
}
