#include "harness/session.hh"

#include "baselines/runner.hh"
#include "proact/runtime.hh"
#include "sim/logging.hh"

#include <sstream>

namespace proact {

std::string
ParadigmRun::faultSummary() const
{
    std::ostringstream oss;
    auto field = [&](const char *name, std::uint64_t value) {
        if (value == 0)
            return;
        if (oss.tellp() > 0)
            oss << " ";
        oss << name << "=" << value;
    };
    field("dropped", faultsDropped);
    field("retries", retries);
    field("fallbacks", fallbacks);
    field("transitions", linkTransitions);
    field("wire_transitions", wireTransitions);
    field("congested", congestionEvents);
    field("reroutes", reroutes);
    field("refused", refusedDeliveries);
    field("quiesced", quiescedFlights);
    field("orphaned", orphanedTransfers);
    field("checkpoints", static_cast<std::uint64_t>(checkpoints));
    if (aborted) {
        if (oss.tellp() > 0)
            oss << " ";
        oss << "lost_gpu=" << lostGpu;
    }
    return oss.str();
}

Session::Session(PlatformSpec platform)
    : _platform(std::move(platform))
{
}

ProfileResult
Session::profile(Workload &workload,
                 const Profiler::Options &options)
{
    Profiler profiler(_platform, options);
    return profiler.profile(workload);
}

ParadigmRun
Session::run(Workload &workload, Paradigm paradigm,
             const RunOptions &options)
{
    MultiGpuSystem system(_platform);
    system.setFunctional(options.functional);

    if (!options.faults.empty())
        system.installFaults(options.faults);
    if (options.health || options.reroute) {
        system.enableHealth();
        // Boundary-aware bookings: in-flight transfers follow
        // degradation windows instead of keeping their stale
        // delivery tick.
        system.fabric().setRebooking(true);
    }
    if (options.deviceHealth)
        system.enableDeviceHealth();
    if (options.reroute)
        system.enableReroute();

    auto runtime = makeRuntime(paradigm, system, options.config,
                               options.checkpoint,
                               options.firstIteration);

    ParadigmRun result;
    result.paradigm = paradigm;
    result.ticks = runtime->run(workload);
    result.wireBytes = system.fabric().totalWireBytes();
    result.payloadBytes = system.fabric().totalPayloadBytes();
    result.storeTransactions =
        system.fabric().totalStoreTransactions();

    // Fault-adaptive counters for the summary line.
    auto u64 = [](double v) {
        return static_cast<std::uint64_t>(v);
    };
    if (const FaultInjector *faults = system.faults())
        result.faultsDropped = u64(faults->stats().get("faults.dropped"));
    if (const auto *pr = dynamic_cast<ProactRuntime *>(runtime.get())) {
        result.retries = u64(pr->stats().get("transfers.retried"));
        result.fallbacks =
            u64(pr->stats().get("fallback.activations"));
        result.aborted = pr->aborted();
        result.lostGpu = pr->lostGpu();
        result.completedIterations = pr->completedIterations();
        result.checkpointIteration = pr->checkpointIteration();
        result.checkpoints = pr->checkpoints();
        result.checkpointTicks = pr->checkpointTicks();
        result.orphanedTransfers =
            u64(pr->stats().get("transfers.orphaned"));
    }
    result.refusedDeliveries = system.fabric().refusedDeliveries();
    result.quiescedFlights = system.fabric().quiescedFlights();
    if (const LinkHealthMonitor *health = system.health()) {
        result.linkTransitions =
            u64(health->stats().get("health.transitions"));
        result.wireTransitions =
            u64(health->stats().get("health.wire_transitions"));
        result.congestionEvents =
            u64(health->stats().get("health.to_congested"));
    }
    if (const Rerouter *rerouter = system.rerouter()) {
        result.reroutes = u64(rerouter->stats().get("reroute.detours")
                              + rerouter->stats().get("reroute.splits"));
    }

    // An aborted run legitimately leaves the math unfinished, and a
    // resumed run never executed the iterations before its restart
    // point on this instance — neither can pass full verification.
    if (options.functional && !result.aborted &&
        options.firstIteration == 0 && !workload.verify()) {
        fatalError("Session: '", workload.name(),
                   "' failed verification under ", runtime->name());
    }
    return result;
}

Tick
Session::singleGpuTicks(const WorkloadFactory &factory,
                        bool functional)
{
    auto workload = factory(1);
    if (!workload)
        fatalError("Session: workload factory returned null");
    MultiGpuSystem system(_platform.withGpuCount(1));
    system.setFunctional(functional);
    IdealRuntime runtime(system);
    const Tick ticks = runtime.run(*workload);
    if (functional && !workload->verify())
        fatalError("Session: single-GPU '", workload->name(),
                   "' failed verification");
    return ticks;
}

std::vector<ParadigmRun>
Session::compareParadigms(const WorkloadFactory &factory,
                          bool functional,
                          const Profiler::Options &profiler_options)
{
    const Tick single = singleGpuTicks(factory, functional);

    // Profile on a dedicated (timing-only) instance.
    auto profile_workload = factory(_platform.numGpus);
    const ProfileResult prof =
        profile(*profile_workload, profiler_options);
    const TransferConfig decoupled_cfg = prof.bestDecoupled().config;

    std::vector<ParadigmRun> results;
    for (const Paradigm paradigm : allParadigms()) {
        auto workload = factory(_platform.numGpus);
        ParadigmRun run_result = run(
            *workload, paradigm,
            {.config = decoupled_cfg, .functional = functional});
        run_result.speedup = static_cast<double>(single)
            / static_cast<double>(run_result.ticks);
        results.push_back(run_result);
    }
    return results;
}

} // namespace proact
