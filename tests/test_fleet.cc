/**
 * @file
 * Tests for the multi-tenant fleet serving layer: seeded stream
 * generation, deterministic admission, disjoint-placement isolation
 * (a tenant's faults never perturb a neighbour), plane-sharing
 * contention, and cache-hit strategy election.
 */

#include "fleet/admission.hh"
#include "fleet/elector.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "fleet/placement.hh"
#include "sim/logging.hh"
#include "system/platform.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace proact;
using namespace proact::fleet;

namespace {

/** A job list pinned by hand (no generator draws). */
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

TEST(FleetJobs, StreamIsSeedDeterministicAndAppendStable)
{
    ArrivalModel model;
    model.seed = 11;
    model.numJobs = 24;

    const auto a = generateJobStream(model);
    const auto b = generateJobStream(model);
    ASSERT_EQ(a.size(), 24u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].gpus, b[i].gpus);
        EXPECT_EQ(a[i].priority, b[i].priority);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].deadline, b[i].deadline);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }

    // Per-job derived streams: growing the campaign never rewrites
    // the existing jobs.
    model.numJobs = 32;
    const auto longer = generateJobStream(model);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(longer[i].workload, a[i].workload);
        EXPECT_EQ(longer[i].arrival, a[i].arrival);
    }

    // Arrivals are nondecreasing and the mix spans the registry.
    std::vector<std::string> seen;
    for (std::size_t i = 1; i < longer.size(); ++i)
        EXPECT_GE(longer[i].arrival, longer[i - 1].arrival);
    for (const auto &job : longer)
        seen.push_back(job.workload);
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    EXPECT_GE(seen.size(), 3u);
}

TEST(FleetPlacement, DisjointGivesEveryPlaneToOneTenant)
{
    PlacementAllocator alloc(dgx2Platform(),
                             PlacementMode::Disjoint);
    EXPECT_EQ(alloc.numPlanes(), 2);
    EXPECT_EQ(alloc.gpusPerPlane(), 8);

    const auto a = alloc.tryAllocate(4);
    const auto b = alloc.tryAllocate(4);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->shareCount, 1);
    EXPECT_EQ(b->shareCount, 1);
    ASSERT_EQ(a->planes.size(), 1u);
    ASSERT_EQ(b->planes.size(), 1u);
    EXPECT_NE(a->planes[0], b->planes[0]);

    // Both planes hold a tenant: a third tenant must wait even
    // though 8 GPUs sit idle.
    EXPECT_FALSE(alloc.tryAllocate(2).has_value());

    alloc.release(*a);
    const auto c = alloc.tryAllocate(8);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->planes[0], a->planes[0]);
}

TEST(FleetPlacement, SharingPacksLeastLoadedPlaneFirst)
{
    PlacementAllocator alloc(dgx2Platform(),
                             PlacementMode::PlaneSharing, 2);
    const auto a = alloc.tryAllocate(4);
    const auto b = alloc.tryAllocate(4);
    const auto c = alloc.tryAllocate(4);
    const auto d = alloc.tryAllocate(4);
    ASSERT_TRUE(a && b && c && d);

    // Spread before sharing: the first two tenants land on distinct
    // planes, the next two co-locate and see shareCount 2.
    EXPECT_NE(a->planes[0], b->planes[0]);
    EXPECT_EQ(a->shareCount, 1);
    EXPECT_EQ(b->shareCount, 1);
    EXPECT_EQ(c->shareCount, 2);
    EXPECT_EQ(d->shareCount, 2);

    // GPUs never overlap even on a shared plane.
    std::vector<int> all;
    for (const auto &p : {a, b, c, d})
        all.insert(all.end(), p->gpus.begin(), p->gpus.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());

    // Tenant cap: both planes carry two tenants already.
    EXPECT_FALSE(alloc.tryAllocate(2).has_value());
}

TEST(FleetAdmission, OrdersByPriorityThenArrivalThenId)
{
    const JobSpec lo = fixedJob(5, "Jacobi", 2, 100, 0);
    const JobSpec hi_late = fixedJob(7, "Jacobi", 2, 200, 2);
    const JobSpec hi_early = fixedJob(9, "Jacobi", 2, 50, 2);
    const JobSpec hi_tie = fixedJob(3, "Jacobi", 2, 50, 2);

    std::vector<const JobSpec *> queue = {&lo, &hi_late, &hi_early,
                                          &hi_tie};
    AdmissionController::sortQueue(queue);
    EXPECT_EQ(queue[0]->id, 3); // prio 2, t=50, lowest id.
    EXPECT_EQ(queue[1]->id, 9); // prio 2, t=50.
    EXPECT_EQ(queue[2]->id, 7); // prio 2, t=200.
    EXPECT_EQ(queue[3]->id, 5); // prio 0.
}

TEST(FleetAdmission, DefersCongestedCoLocationUnlessIdle)
{
    PlacementAllocator alloc(dgx2Platform(),
                             PlacementMode::PlaneSharing, 2);
    AdmissionController admission;
    const JobSpec job = fixedJob(0, "Jacobi", 4);

    // The first two tenants spread onto their own planes; with
    // shareCount 1, congestion never blocks them.
    const auto first = admission.tryAdmit(
        job, alloc, [](int) { return true; }, false);
    const auto second = admission.tryAdmit(
        job, alloc, [](int) { return true; }, false);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->shareCount, 1);
    EXPECT_EQ(second->shareCount, 1);

    // The third would co-locate — but every plane reads congested:
    // deferred, and the failed attempt must not leak seats.
    const auto deferred = admission.tryAdmit(
        job, alloc, [](int) { return true; }, false);
    EXPECT_FALSE(deferred.has_value());
    EXPECT_EQ(admission.stats().get("admission.deferred_congestion"),
              1.0);
    EXPECT_EQ(alloc.tenantsOnPlane(0) + alloc.tenantsOnPlane(1), 2);

    // Same ask on an idle fabric is force-admitted instead of
    // deadlocking.
    const auto forced = admission.tryAdmit(
        job, alloc, [](int) { return true; }, true);
    EXPECT_TRUE(forced.has_value());
    EXPECT_EQ(admission.stats().get("admission.forced"), 1.0);
}

TEST(FleetSessionTest, ServeIsDeterministicUnderFixedSeed)
{
    ArrivalModel model;
    model.seed = 3;
    model.numJobs = 10;
    const auto jobs = generateJobStream(model);

    FleetSession session(dgx2Platform());
    const FleetReport first = session.serve(jobs);
    const FleetReport second = session.serve(jobs);

    ASSERT_EQ(first.tenants.size(), jobs.size());
    ASSERT_EQ(second.tenants.size(), jobs.size());
    for (std::size_t i = 0; i < first.tenants.size(); ++i) {
        const TenantRecord &a = first.tenants[i];
        const TenantRecord &b = second.tenants[i];
        EXPECT_EQ(a.job.id, b.job.id);
        EXPECT_EQ(a.placement.gpus, b.placement.gpus);
        EXPECT_EQ(a.placement.shareCount, b.placement.shareCount);
        EXPECT_EQ(a.admitted, b.admitted);
        EXPECT_EQ(a.serviceTicks, b.serviceTicks);
        EXPECT_EQ(a.latency, b.latency);
        EXPECT_EQ(a.election.paradigm, b.election.paradigm);
        EXPECT_EQ(a.election.config.toString(),
                  b.election.config.toString());
    }
    EXPECT_EQ(first.percentileTable(), second.percentileTable());
    EXPECT_EQ(first.p95, second.p95);
}

TEST(FleetSessionTest, SecondServeElectsEntirelyFromCache)
{
    ArrivalModel model;
    model.seed = 5;
    model.numJobs = 8;
    const auto jobs = generateJobStream(model);

    FleetSession session(dgx2Platform());
    const FleetReport first = session.serve(jobs);
    EXPECT_GT(first.electionSweeps, 0u);

    const FleetReport second = session.serve(jobs);
    EXPECT_EQ(second.electionSweeps, 0u);
    EXPECT_EQ(second.electionCacheHits,
              static_cast<std::uint64_t>(jobs.size()));
    for (const TenantRecord &t : second.tenants)
        EXPECT_TRUE(t.election.cacheHit);
}

TEST(FleetSessionTest, ElectorAndTenantsShareOneGraphPerApp)
{
    // Pagerank and SSSP tenants at 2, 4 and 8 GPUs: the first two
    // take a plane each, the next two share those planes, and the
    // rest arrive as planes drain.
    constexpr Tick us = ticksPerMicrosecond;
    const std::vector<JobSpec> jobs = {
        fixedJob(0, "Pagerank", 4),
        fixedJob(1, "SSSP", 4),
        fixedJob(2, "SSSP", 2),
        fixedJob(3, "Pagerank", 2),
        fixedJob(4, "Pagerank", 8, 400 * us),
        fixedJob(5, "SSSP", 8, 800 * us),
        fixedJob(6, "SSSP", 2, 900 * us),
        fixedJob(7, "Pagerank", 4, 900 * us)};

    FleetSession session(dgx2Platform());
    const FleetReport report = session.serve(jobs);
    ASSERT_EQ(report.tenants.size(), jobs.size());

    std::set<int> gpu_counts, shares;
    for (const TenantRecord &t : report.tenants) {
        gpu_counts.insert(t.job.gpus);
        shares.insert(t.placement.shareCount);
    }
    EXPECT_GE(gpu_counts.size(), 2u);
    EXPECT_EQ(shares, (std::set<int>{1, 2}));
    EXPECT_GT(report.electionSweeps, 0u);

    // One input per application, shared by every election sweep and
    // every tenant of it. The serve is timing-only, so it draws the
    // offsets and never builds a full graph.
    EXPECT_EQ(session.graphs().size(), 2u);
    EXPECT_EQ(session.graphs().fullGraphs(), 0u);

    FleetSession fresh(dgx2Platform());
    EXPECT_EQ(fresh.serve(jobs).toJson("dgx2", 0),
              report.toJson("dgx2", 0));
    EXPECT_EQ(fresh.graphs().size(), 2u);
    EXPECT_EQ(fresh.graphs().fullGraphs(), 0u);

    // The elector's profiling instances draw from the same cache: at
    // a scale shift of their own they add one input per application.
    FleetSession::Options split;
    split.elector.scaleShift = split.scaleShift + 1;
    FleetSession split_session(dgx2Platform(), split);
    split_session.serve(jobs);
    EXPECT_EQ(split_session.graphs().size(), 4u);
    EXPECT_EQ(split_session.graphs().fullGraphs(), 0u);
}

TEST(FleetSessionTest, DisjointPlacementIsolatesTenantFaults)
{
    // Two simultaneous tenants, one plane each. Tenant 0 runs on a
    // lossy fabric; tenant 1 must not notice — not a dropped
    // delivery, not a retry, not one tick of service time.
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 4),
                                       fixedJob(1, "Jacobi", 4)};

    FleetSession::Options faulty;
    faulty.placement = PlacementMode::Disjoint;
    faulty.faultPlanFor = [](const JobSpec &job, int) {
        FaultPlan plan;
        if (job.id == 0)
            plan.dropDeliveries(0, maxTick, 0.05);
        return plan;
    };
    FleetSession session(dgx2Platform(), faulty);
    const FleetReport report = session.serve(jobs);
    ASSERT_EQ(report.tenants.size(), 2u);
    const TenantRecord &faulted = report.tenants[0];
    const TenantRecord &clean = report.tenants[1];
    ASSERT_EQ(faulted.job.id, 0);
    ASSERT_EQ(clean.job.id, 1);

    // Simultaneous arrivals on a disjoint fleet start together.
    EXPECT_EQ(faulted.admitted, clean.admitted);
    EXPECT_EQ(clean.placement.shareCount, 1);

    // The injected faults landed on tenant 0 alone.
    EXPECT_GT(faulted.run.faultsDropped, 0u);
    EXPECT_EQ(clean.run.faultsDropped, 0u);
    EXPECT_EQ(clean.run.retries, 0u);

    // Zero cross-tenant leakage: the clean tenant's run is
    // tick-identical to the same fleet with no faults anywhere.
    FleetSession::Options pristine;
    pristine.placement = PlacementMode::Disjoint;
    FleetSession baseline_session(dgx2Platform(), pristine);
    const FleetReport baseline = baseline_session.serve(jobs);
    EXPECT_EQ(clean.serviceTicks, baseline.tenants[1].serviceTicks);
    EXPECT_EQ(clean.run.wireBytes, baseline.tenants[1].run.wireBytes);
    EXPECT_EQ(clean.latency, baseline.tenants[1].latency);
}

TEST(FleetSessionTest, PlaneSharingContentionRaisesTenantP95)
{
    // Four simultaneous 4-GPU tenants: sharing packs two per plane
    // (two exclusive, two halved); disjoint serializes instead.
    const std::vector<JobSpec> jobs = {fixedJob(0, "Jacobi", 4),
                                       fixedJob(1, "Jacobi", 4),
                                       fixedJob(2, "Jacobi", 4),
                                       fixedJob(3, "Jacobi", 4)};

    FleetSession::Options sharing;
    sharing.placement = PlacementMode::PlaneSharing;
    FleetSession shared_session(dgx2Platform(), sharing);
    const FleetReport shared = shared_session.serve(jobs);

    FleetSession::Options isolated;
    isolated.placement = PlacementMode::Disjoint;
    FleetSession disjoint_session(dgx2Platform(), isolated);
    const FleetReport disjoint = disjoint_session.serve(jobs);

    ASSERT_EQ(shared.tenants.size(), 4u);
    ASSERT_EQ(disjoint.tenants.size(), 4u);

    // Sharing happened, and every disjoint run was exclusive.
    std::vector<Tick> shared_service, exclusive_service;
    for (const TenantRecord &t : shared.tenants) {
        if (t.placement.shareCount > 1)
            shared_service.push_back(t.serviceTicks);
    }
    ASSERT_FALSE(shared_service.empty());
    for (const TenantRecord &t : disjoint.tenants) {
        EXPECT_EQ(t.placement.shareCount, 1);
        exclusive_service.push_back(t.serviceTicks);
    }

    // A halved fabric slice serves strictly slower: the shared
    // tenants' p95 service time exceeds the exclusive baseline's.
    EXPECT_GT(FleetReport::percentile(shared_service, 95.0),
              FleetReport::percentile(exclusive_service, 95.0));

    EXPECT_GT(shared.admitted, 0u);
}

TEST(FleetSessionTest, ContendedPlaneDefersCoLocationUntilItEmpties)
{
    // Jobs 0 and 1 spread over the two planes; job 2 co-locates on
    // plane 0, which makes it contended. Job 2 finishes before job 3
    // arrives, so plane 0 is down to one tenant, but it stays
    // contended until it empties: job 3 waits for job 0 to finish and
    // then gets plane 0 to itself.
    constexpr Tick us = ticksPerMicrosecond;
    const std::vector<JobSpec> jobs = {
        fixedJob(0, "Jacobi", 4), fixedJob(1, "Jacobi", 4),
        fixedJob(2, "ALS", 4), fixedJob(3, "ALS", 4, 160 * us)};

    FleetSession session(dgx2Platform());
    const FleetReport report = session.serve(jobs);
    ASSERT_EQ(report.tenants.size(), 4u);

    // Tenants are reported in admission order.
    const TenantRecord &first = report.tenants[0];
    const TenantRecord &sharer = report.tenants[2];
    const TenantRecord &late = report.tenants[3];
    ASSERT_EQ(first.job.id, 0);
    ASSERT_EQ(sharer.job.id, 2);
    ASSERT_EQ(late.job.id, 3);

    ASSERT_EQ(sharer.placement.planes, std::vector<int>{0});
    ASSERT_EQ(sharer.placement.shareCount, 2);
    ASSERT_LT(sharer.completion, jobs[3].arrival);
    ASSERT_GT(first.completion, jobs[3].arrival);

    EXPECT_EQ(report.deferredCongestion, 1u);
    EXPECT_EQ(late.admitted, first.completion);
    EXPECT_EQ(late.placement.planes, std::vector<int>{0});
    EXPECT_EQ(late.placement.shareCount, 1);
}

TEST(FleetSessionTest, RejectsInvalidFabricsUpFront)
{
    // Every fabric the Interconnect rejects is rejected when the
    // session is built, before any tenant runs.
    const PlatformSpec good = multiNodePlatform(2, 16);
    EXPECT_NO_THROW(FleetSession{good});

    PlatformSpec fast_network = good;
    fast_network.fabric.interLatency = good.fabric.latency - 1;
    EXPECT_THROW(FleetSession{fast_network}, FatalError);

    PlatformSpec no_network = good;
    no_network.fabric.interPerGpuBidirBandwidth = 0.0;
    EXPECT_THROW(FleetSession{no_network}, FatalError);

    PlatformSpec shared_ports = good;
    shared_ports.fabric.topology = FabricTopology::SharedPorts;
    EXPECT_THROW(FleetSession{shared_ports}, FatalError);
}

TEST(FleetSessionTest, PriorityJumpsTheQueueUnderBackpressure)
{
    // Saturate both planes with 8-GPU tenants of different lengths
    // (so the planes free up at distinct ticks), then race a low-
    // and a high-priority job: the high-priority one (later id, same
    // arrival) must start first when the first plane frees up.
    std::vector<JobSpec> jobs = {
        fixedJob(0, "Jacobi", 8, 0),
        fixedJob(1, "X-ray CT", 8, 0),
        fixedJob(2, "SSSP", 8, 0, /*priority=*/0),
        fixedJob(3, "SSSP", 8, 0, /*priority=*/2),
    };

    FleetSession session(dgx2Platform());
    const FleetReport report = session.serve(jobs);
    ASSERT_EQ(report.tenants.size(), 4u);

    Tick start2 = 0, start3 = 0;
    for (const TenantRecord &t : report.tenants) {
        if (t.job.id == 2)
            start2 = t.admitted;
        if (t.job.id == 3)
            start3 = t.admitted;
    }
    EXPECT_LT(start3, start2);
}
