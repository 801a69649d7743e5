#include "fleet/fleet_session.hh"

#include "proact/runtime.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iomanip>
#include <map>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>

namespace proact::fleet {

Tick
FleetReport::percentile(std::vector<Tick> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    // Nearest-rank: integer arithmetic on sorted ticks, so the same
    // sample set always yields the same byte-identical answer.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    return values[std::min(idx, values.size() - 1)];
}

std::map<std::string, std::vector<Tick>>
FleetReport::latenciesByWorkload() const
{
    std::map<std::string, std::vector<Tick>> classes;
    for (const TenantRecord &t : tenants)
        classes[t.job.workload].push_back(t.latency);
    return classes;
}

std::string
FleetReport::percentileTable() const
{
    std::ostringstream oss;
    oss << "class                 n     p50us     p95us     p99us\n";
    auto row = [&](const std::string &name,
                   const std::vector<Tick> &lat) {
        oss << std::left << std::setw(18) << name << std::right
            << std::setw(5) << lat.size() << std::setw(10)
            << percentile(lat, 50.0) / ticksPerMicrosecond
            << std::setw(10)
            << percentile(lat, 95.0) / ticksPerMicrosecond
            << std::setw(10)
            << percentile(lat, 99.0) / ticksPerMicrosecond << "\n";
    };
    for (const auto &[name, lat] : latenciesByWorkload())
        row(name, lat);
    std::vector<Tick> all;
    for (const TenantRecord &t : tenants)
        all.push_back(t.latency);
    row("(fleet)", all);
    // Recovery digest joins the byte-comparable artifact only when a
    // recovery happened, so fault-free tables stay unchanged.
    if (!recoveries.empty()) {
        oss << "recoveries " << recoveries.size() << " quarantined "
            << quarantinedGpus << " lost_work_p95us "
            << lostWorkP95 / ticksPerMicrosecond
            << " recovery_latency_p95us "
            << recoveryLatencyP95 / ticksPerMicrosecond << "\n";
    }
    return oss.str();
}

std::string
FleetReport::toJson(const std::string &platform_name,
                    std::uint64_t stream_seed) const
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(4);
    oss << "{\n";
    oss << "  \"platform\": \"" << platform_name << "\",\n";
    oss << "  \"stream_seed\": " << stream_seed << ",\n";
    oss << "  \"jobs\": " << tenants.size() << ",\n";
    oss << "  \"makespan_ticks\": " << makespan << ",\n";
    oss << "  \"latency_p50_ticks\": " << p50 << ",\n";
    oss << "  \"latency_p95_ticks\": " << p95 << ",\n";
    oss << "  \"latency_p99_ticks\": " << p99 << ",\n";
    oss << "  \"throughput_jobs_per_sec\": " << throughputJobsPerSec
        << ",\n";
    oss << "  \"payload_gbps\": " << payloadGBps << ",\n";
    oss << "  \"fabric_utilization\": " << fabricUtilization << ",\n";
    oss << "  \"election_sweeps\": " << electionSweeps << ",\n";
    oss << "  \"election_cache_hits\": " << electionCacheHits << ",\n";
    oss << "  \"admitted\": " << admitted << ",\n";
    oss << "  \"deferred_capacity\": " << deferredCapacity << ",\n";
    oss << "  \"deferred_congestion\": " << deferredCongestion
        << ",\n";
    oss << "  \"forced_admissions\": " << forcedAdmissions << ",\n";
    oss << "  \"recoveries\": " << recoveries.size() << ",\n";
    oss << "  \"quarantined_gpus\": " << quarantinedGpus << ",\n";
    oss << "  \"lost_work_p50_ticks\": " << lostWorkP50 << ",\n";
    oss << "  \"lost_work_p95_ticks\": " << lostWorkP95 << ",\n";
    oss << "  \"recovery_latency_p50_ticks\": " << recoveryLatencyP50
        << ",\n";
    oss << "  \"recovery_latency_p95_ticks\": " << recoveryLatencyP95
        << ",\n";

    oss << "  \"recovery_events\": [\n";
    for (std::size_t i = 0; i < recoveries.size(); ++i) {
        const RecoveryEvent &ev = recoveries[i];
        oss << "    {\"job\": " << ev.jobId << ", \"attempt\": "
            << ev.attempt << ", \"lost_gpu\": " << ev.lostGpu
            << ", \"resume_iteration\": " << ev.resumeIteration
            << ", \"abort_ticks\": " << ev.abortTick
            << ", \"readmit_ticks\": " << ev.readmitTick
            << ", \"lost_work_ticks\": " << ev.lostWork << "}"
            << (i + 1 < recoveries.size() ? "," : "") << "\n";
    }
    oss << "  ],\n";

    oss << "  \"classes\": [\n";
    const auto classes = latenciesByWorkload();
    std::size_t c = 0;
    for (const auto &[name, lat] : classes) {
        oss << "    {\"workload\": \"" << name << "\", \"jobs\": "
            << lat.size() << ", \"p50_ticks\": "
            << percentile(lat, 50.0) << ", \"p95_ticks\": "
            << percentile(lat, 95.0) << ", \"p99_ticks\": "
            << percentile(lat, 99.0) << "}"
            << (++c < classes.size() ? "," : "") << "\n";
    }
    oss << "  ],\n";

    oss << "  \"tenants\": [\n";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantRecord &t = tenants[i];
        oss << "    {\"id\": " << t.job.id << ", \"workload\": \""
            << t.job.workload << "\", \"gpus\": " << t.job.gpus
            << ", \"priority\": " << t.job.priority
            << ", \"plane\": "
            << (t.placement.planes.empty() ? -1
                                           : t.placement.planes[0])
            << ", \"share\": " << t.placement.shareCount
            << ", \"paradigm\": \""
            << paradigmName(t.election.paradigm) << "\""
            << ", \"config\": \"" << t.election.config.toString()
            << "\", \"cache_hit\": "
            << (t.election.cacheHit ? "true" : "false")
            << ", \"arrival_ticks\": " << t.job.arrival
            << ", \"admitted_ticks\": " << t.admitted
            << ", \"elected_at_ticks\": " << t.electedAt
            << ", \"queue_delay_ticks\": " << t.queueDelay
            << ", \"service_ticks\": " << t.serviceTicks
            << ", \"latency_ticks\": " << t.latency
            << ", \"met_deadline\": "
            << (t.metDeadline ? "true" : "false")
            << ", \"attempt\": " << t.attempt
            << ", \"first_iteration\": " << t.firstIteration
            << ", \"faults_dropped\": " << t.run.faultsDropped
            << ", \"retries\": " << t.run.retries << "}"
            << (i + 1 < tenants.size() ? "," : "") << "\n";
    }
    oss << "  ]\n";
    oss << "}\n";
    return oss.str();
}

FleetSession::FleetSession(PlatformSpec platform, Options options)
    : _platform(std::move(platform)), _options(std::move(options)),
      _elector(_platform, _options.elector, &_graphs)
{
    _platform.fabric.validate(_platform.numGpus);
    if (_platform.numGpus < 2)
        fatalError("FleetSession: need a multi-GPU platform");
}

FleetSession::FleetSession(PlatformSpec platform)
    : FleetSession(std::move(platform), Options{})
{
}

TenantRecord
FleetSession::runTenant(const JobSpec &job,
                        const Placement &placement, Tick now,
                        int attempt, int first_iteration)
{
    TenantRecord rec;
    rec.job = job;
    rec.placement = placement;
    rec.attempt = attempt;
    rec.firstIteration = first_iteration;
    // A resumed job re-elects for its (possibly shrunk) GPU count
    // and its new plane share — the elector cache makes a repeat
    // shape free.
    rec.election =
        _elector.elect(job.workload, job.gpus, placement.shareCount);

    // The tenant's world: the machine at its GPU count, with its
    // plane's per-GPU bandwidth split across the plane's tenants.
    // Running on a private slice is what makes placement isolation
    // real — no counter, fault or observer can cross tenants.
    PlatformSpec slice = _platform.withGpuCount(job.gpus);
    slice.fabric.perGpuBidirBandwidth /=
        static_cast<double>(placement.shareCount);

    auto workload =
        makeWorkload(job.workload, _options.scaleShift, &_graphs);
    workload->setFootprintScale(_options.footprintScale);
    workload->setup(job.gpus);

    Session::RunOptions run_options;
    run_options.config = rec.election.config;
    run_options.functional = _options.functional;
    if (_options.faultPlanFor) {
        run_options.faults = _options.faultPlanFor(job, attempt);
        if (!run_options.faults.empty())
            run_options.config.retry.enabled = true;
    }
    if (_options.recovery.enabled) {
        run_options.deviceHealth = true;
        run_options.checkpoint = true;
        run_options.firstIteration = first_iteration;
    }

    Session session(slice);
    rec.run =
        session.run(*workload, rec.election.paradigm, run_options);

    rec.admitted = now;
    rec.queueDelay = now - job.arrival;
    if (_options.chargeElections)
        rec.electionSweepTicks = rec.election.sweepCost;
    // The sweep runs before the tenant's kernels: the decision lands
    // (and the run starts) only after its charged cost elapses.
    rec.electedAt = now + rec.electionSweepTicks;
    if (first_iteration > 0)
        rec.restoreTicks = ProactRuntime::checkpointCost;
    rec.serviceTicks =
        rec.run.ticks + rec.electionSweepTicks + rec.restoreTicks;
    rec.completion = now + rec.serviceTicks;
    rec.latency = rec.completion - job.arrival;
    rec.metDeadline =
        job.deadline == 0 || rec.completion <= job.deadline;
    return rec;
}

FleetReport
FleetSession::serve(const std::vector<JobSpec> &jobs)
{
    PlacementAllocator allocator(_platform, _options.placement,
                                 _options.maxTenantsPerPlane);
    AdmissionController admission;

    const double sweeps_before = _elector.stats().get("elect.sweeps");
    const double hits_before =
        _elector.stats().get("elect.cache_hits");

    // Fleet clock: an explicit (tick, kind, idx) event list.
    // Completions (kind 0) sort before arrivals at the same tick so
    // freed GPUs are visible to the newcomer's admission pass.
    struct Event
    {
        Tick tick;
        int kind; ///< 0 = completion (record idx), 1 = arrival (job idx).
        int idx;
    };
    auto later = [](const Event &a, const Event &b) {
        return std::tie(a.tick, a.kind, a.idx)
            > std::tie(b.tick, b.kind, b.idx);
    };
    std::priority_queue<Event, std::vector<Event>, decltype(later)>
        events(later);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        events.push(Event{jobs[i].arrival, 1, static_cast<int>(i)});

    std::vector<TenantRecord> records;
    records.reserve(jobs.size());
    std::vector<const JobSpec *> pending;
    int running = 0;

    // Device-loss recovery bookkeeping. Resumed specs live in a
    // deque (stable addresses for the pending pointers) and keep the
    // job's original arrival, so a recovered job's latency spans its
    // whole life — queueing, the killed attempt, and the restart.
    struct ResumeState
    {
        int attempt = 0;
        int firstIteration = 0;
        std::size_t openRecovery = 0; ///< Index into recoveries.
    };
    std::map<int, ResumeState> resume;
    std::deque<JobSpec> respawned;
    std::vector<RecoveryEvent> recoveries;

    // Re-queues a job shrunk to what a surviving plane can ever
    // grant, never below the recovery floor.
    const auto respawn = [&](JobSpec job) -> const JobSpec * {
        const int capacity = allocator.maxAllocatableGpus();
        if (job.gpus > capacity) {
            if (capacity < _options.recovery.minGpus) {
                fatalError("FleetSession: only ", capacity,
                           " allocatable GPUs left, below the "
                           "recovery floor of ",
                           _options.recovery.minGpus);
            }
            job.gpus = capacity;
        }
        respawned.push_back(std::move(job));
        return &respawned.back();
    };

    // Plane contention: an admission that leaves two or more tenants
    // on a plane sets its flag, and only the plane emptying clears
    // it. A plane back down to one tenant still reads contended, so
    // a newcomer waits for the backlog to drain instead of sharing.
    std::vector<bool> contended(
        static_cast<std::size_t>(allocator.numPlanes()), false);
    const auto plane_contended = [&](int plane) -> bool {
        return contended[static_cast<std::size_t>(plane)];
    };

    while (!events.empty()) {
        const Event event = events.top();
        events.pop();
        const Tick now = event.tick;

        if (event.kind == 0) {
            const TenantRecord &done =
                records[static_cast<std::size_t>(event.idx)];
            allocator.release(done.placement);
            --running;
            // A plane that just emptied re-opens to co-location.
            for (const int plane : done.placement.planes) {
                if (allocator.tenantsOnPlane(plane) == 0)
                    contended[static_cast<std::size_t>(plane)] = false;
            }

            if (done.run.aborted && _options.recovery.enabled) {
                // The run's lostGpu is a slice-local id; the fleet
                // quarantines the physical device behind it.
                const int physical = done.placement.gpus.at(
                    static_cast<std::size_t>(done.run.lostGpu));
                allocator.quarantine(physical);

                ResumeState &state = resume[done.job.id];
                state.attempt = done.attempt + 1;
                if (state.attempt > _options.recovery.maxAttempts) {
                    fatalError("FleetSession: job ", done.job.id,
                               " exceeded ",
                               _options.recovery.maxAttempts,
                               " restart attempts");
                }
                // Checkpoints from earlier attempts survive: an
                // attempt that died before its first checkpoint
                // resumes from where the previous one left off.
                state.firstIteration = std::max(
                    state.firstIteration,
                    done.run.checkpointIteration + 1);

                RecoveryEvent ev;
                ev.jobId = done.job.id;
                ev.attempt = done.attempt;
                ev.lostGpu = physical;
                ev.resumeIteration = state.firstIteration;
                ev.abortTick = now;
                // Progress past the resume point is discarded:
                // prorate the killed attempt's service time over its
                // uncheckpointed iterations.
                const int executed = done.run.completedIterations
                    - done.firstIteration;
                const int preserved = std::max(
                    0, state.firstIteration - done.firstIteration);
                ev.lostWork = executed > 0
                    ? done.serviceTicks
                        * static_cast<Tick>(executed - preserved)
                        / static_cast<Tick>(executed)
                    : done.serviceTicks;
                state.openRecovery = recoveries.size();
                recoveries.push_back(ev);

                pending.push_back(respawn(done.job));
            }
        } else {
            pending.push_back(
                &jobs[static_cast<std::size_t>(event.idx)]);
        }

        // Admission pass: highest priority first; admitting one job
        // only shrinks capacity, so a single sweep suffices.
        AdmissionController::sortQueue(pending);
        for (auto it = pending.begin(); it != pending.end();) {
            const JobSpec *spec = *it;
            auto placement = admission.tryAdmit(
                *spec, allocator, plane_contended, running == 0);
            if (!placement && _options.recovery.enabled
                && spec->gpus > allocator.maxAllocatableGpus()) {
                // Quarantine shrank the machine under a waiting
                // job's feet: clamp the request and retry at once —
                // this pass may be the last event.
                *it = spec = respawn(*spec);
                placement = admission.tryAdmit(
                    *spec, allocator, plane_contended, running == 0);
            }
            if (!placement) {
                ++it;
                continue;
            }
            const JobSpec &job = *spec;
            int attempt = 0;
            int first_iteration = 0;
            if (const auto rs = resume.find(job.id);
                rs != resume.end()) {
                attempt = rs->second.attempt;
                first_iteration = rs->second.firstIteration;
                recoveries.at(rs->second.openRecovery).readmitTick =
                    now;
            }
            records.push_back(runTenant(job, *placement, now,
                                        attempt, first_iteration));
            events.push(Event{records.back().completion, 0,
                              static_cast<int>(records.size()) - 1});
            ++running;
            // Fresh co-location backs up the plane's port group.
            for (const int plane : placement->planes) {
                if (allocator.tenantsOnPlane(plane) > 1)
                    contended[static_cast<std::size_t>(plane)] = true;
            }
            it = pending.erase(it);
        }
    }

    if (!pending.empty()) {
        fatalError("FleetSession: job '", pending.front()->workload,
                   "' x", pending.front()->gpus,
                   " can never be placed on ", _platform.name);
    }

    FleetReport report;
    report.recoveries = std::move(recoveries);
    report.quarantinedGpus =
        static_cast<std::uint64_t>(allocator.quarantinedGpus());

    // Killed attempts still consumed fleet time and fabric capacity
    // (makespan, utilization, payload), but only each job's final
    // successful attempt is a served tenant with a latency.
    std::vector<Tick> latencies;
    std::uint64_t payload = 0;
    double gpu_ticks = 0.0;
    for (TenantRecord &t : records) {
        payload += t.run.payloadBytes;
        gpu_ticks += static_cast<double>(t.job.gpus)
            * static_cast<double>(t.serviceTicks);
        report.makespan = std::max(report.makespan, t.completion);
        if (t.run.aborted)
            continue;
        latencies.push_back(t.latency);
        report.tenants.push_back(std::move(t));
    }

    {
        std::vector<Tick> lost, latency;
        for (const RecoveryEvent &ev : report.recoveries) {
            lost.push_back(ev.lostWork);
            latency.push_back(ev.readmitTick - ev.abortTick);
        }
        report.lostWorkP50 = FleetReport::percentile(lost, 50.0);
        report.lostWorkP95 = FleetReport::percentile(lost, 95.0);
        report.recoveryLatencyP50 =
            FleetReport::percentile(latency, 50.0);
        report.recoveryLatencyP95 =
            FleetReport::percentile(latency, 95.0);
    }
    report.p50 = FleetReport::percentile(latencies, 50.0);
    report.p95 = FleetReport::percentile(latencies, 95.0);
    report.p99 = FleetReport::percentile(latencies, 99.0);
    if (report.makespan > 0) {
        const double seconds = secondsFromTicks(report.makespan);
        report.throughputJobsPerSec =
            static_cast<double>(report.tenants.size()) / seconds;
        report.payloadGBps =
            static_cast<double>(payload) / seconds / 1e9;
        report.fabricUtilization = gpu_ticks
            / (static_cast<double>(_platform.numGpus)
               * static_cast<double>(report.makespan));
    }

    const auto u64 = [](double v) {
        return static_cast<std::uint64_t>(v);
    };
    report.electionSweeps =
        u64(_elector.stats().get("elect.sweeps") - sweeps_before);
    report.electionCacheHits =
        u64(_elector.stats().get("elect.cache_hits") - hits_before);
    report.admitted =
        u64(admission.stats().get("admission.admitted"));
    report.deferredCapacity =
        u64(admission.stats().get("admission.deferred_capacity"));
    report.deferredCongestion =
        u64(admission.stats().get("admission.deferred_congestion"));
    report.forcedAdmissions =
        u64(admission.stats().get("admission.forced"));
    return report;
}

} // namespace proact::fleet
