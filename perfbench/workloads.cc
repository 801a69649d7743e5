#include "workloads.hh"

#include "faults/fault_plan.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "harness/paradigm.hh"
#include "health/link_health.hh"
#include "interconnect/rerouter.hh"
#include "proact/profiler.hh"
#include "proact/runtime.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "system/multi_gpu_system.hh"
#include "system/platform.hh"
#include "workloads/als.hh"
#include "workloads/jacobi.hh"
#include "workloads/mbir.hh"
#include "workloads/pagerank.hh"
#include "workloads/registry.hh"
#include "workloads/sssp.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>

namespace perfbench {

using namespace proact;

Scale
Scale::tiny()
{
    Scale s;
    s.appShift = 7;
    s.jacobiShift = 7;
    s.fleetJobs = 8;
    s.fleetShift = 7;
    s.functionalShift = 7;
    return s;
}

namespace {

std::string
slug(Paradigm paradigm)
{
    switch (paradigm) {
      case Paradigm::CudaMemcpy: return "cudamemcpy";
      case Paradigm::UnifiedMemory: return "um";
      case Paradigm::ProactInline: return "proact_inline";
      case Paradigm::ProactDecoupled: return "proact_decoupled";
      case Paradigm::InfiniteBw: return "infinite_bw";
    }
    return "unknown";
}

double
ms(Tick ticks)
{
    return static_cast<double>(ticks)
        / static_cast<double>(ticksPerMillisecond);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
describe(const TransferConfig &config)
{
    std::ostringstream oss;
    oss << "mech=" << static_cast<int>(config.mechanism)
        << " chunk=" << config.chunkBytes
        << " threads=" << config.transferThreads;
    return oss.str();
}

/**
 * A registry application at 2^-shift of standard size, with every
 * input-generating seed derived from the benchmark seed.
 */
std::unique_ptr<Workload>
makeApp(const std::string &name, int shift, std::uint64_t seed)
{
    const auto names = standardWorkloadNames();
    const auto index = static_cast<std::uint64_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
    const std::uint64_t app_seed = deriveSeed(seed, index);

    if (name == "X-ray CT") {
        MbirWorkload::Params p;
        p.numPixels >>= shift;
        p.seed = app_seed;
        return std::make_unique<MbirWorkload>(p);
    }
    if (name == "Jacobi") {
        JacobiWorkload::Params p;
        p.numUnknowns >>= shift;
        p.seed = app_seed;
        return std::make_unique<JacobiWorkload>(p);
    }
    if (name == "Pagerank") {
        PagerankWorkload::Params p;
        p.graph.numVertices >>= shift;
        p.graph.numEdges >>= shift;
        p.graph.seed = app_seed;
        return std::make_unique<PagerankWorkload>(p);
    }
    if (name == "SSSP") {
        SsspWorkload::Params p;
        p.graph.numVertices >>= shift;
        p.graph.numEdges >>= shift;
        p.graph.seed = app_seed;
        return std::make_unique<SsspWorkload>(p);
    }
    if (name == "ALS") {
        AlsWorkload::Params p;
        p.numUsers >>= shift;
        p.numItems >>= shift;
        p.numRatings >>= shift;
        p.seed = app_seed;
        return std::make_unique<AlsWorkload>(p);
    }
    fatalError("perfbench: unknown application '", name, "'");
}

/** Outcome of one paradigm run the benchmark built. */
struct RunOut
{
    bool ok = false;
    Tick ticks = 0;
    Tick tail = 0;
    double deliveredBytes = 0.0;
};

class Pass
{
  public:
    Pass(Tracer &tracer, const Scale &scale, std::uint64_t seed)
        : scale(scale), seed(seed), _tracer(tracer)
    {}

    const Scale &scale;
    const std::uint64_t seed;
    PassResult result;

    Tracer &tracer() { return _tracer; }

    double &sim(const std::string &name) { return result.sim[name]; }
    double &host(const std::string &name) { return result.host[name]; }

    /** Fold one line of simulated output into the digest. */
    void
    record(const std::string &line)
    {
        for (const char c : line + "\n") {
            _digest ^= static_cast<unsigned char>(c);
            _digest *= 1099511628211ULL;
        }
    }

    /** Count one check; a false @p ok is a failed operation. */
    void
    check(bool ok, const std::string &what)
    {
        ++result.attempted;
        if (!ok) {
            ++result.failed;
            result.errors.push_back("check failed: " + what);
        }
    }

    /** Run @p body as one operation; simulator errors count as
     * failures instead of ending the benchmark. */
    template <typename Body>
    bool
    attempt(const std::string &what, Body &&body)
    {
        ++result.attempted;
        try {
            body();
            return true;
        } catch (const FatalError &e) {
            fail(what, e.what());
        } catch (const PanicError &e) {
            fail(what, e.what());
        } catch (const std::exception &e) {
            fail(what, e.what());
        }
        return false;
    }

    /** Set up application @p app for @p gpus GPUs (nullptr on error). */
    std::unique_ptr<Workload>
    setup(const std::string &app, int gpus, int shift)
    {
        std::unique_ptr<Workload> workload;
        const bool ok = attempt("setup " + app, [&] {
            Tracer::Scope span(_tracer, "workloads.setup");
            auto w = makeApp(app, shift, seed);
            w->setFootprintScale(scale.footprint);
            w->setup(gpus);
            workload = std::move(w);
        });
        std::ostringstream key;
        key << app << "/" << shift << "/" << seed << "/" << gpus << "/"
            << scale.footprint;
        _inputs.insert(key.str());
        sim("workloads.setup_calls") += 1;
        sim("workloads.distinct_inputs") =
            static_cast<double>(_inputs.size());
        return ok ? std::move(workload) : nullptr;
    }

    /** Profile @p workload; false (and @p out untouched) on error. */
    bool
    profile(const PlatformSpec &platform, Workload &workload,
            const Profiler::Options &options, ProfileResult &out)
    {
        const std::string tag = platform.name + " " + workload.name();
        const bool ok = attempt("profile " + tag, [&] {
            Tracer::Scope span(_tracer, "profiler.profile");
            Profiler profiler(platform, options);
            out = profiler.profile(workload);
        });
        if (!ok)
            return false;
        sim("profiler.candidates") += static_cast<double>(
            out.entries.size() + (options.includeInline ? 1 : 0));
        sim("profiler.sweep_sim_ms") += ms(out.sweepTicks);
        std::ostringstream line;
        line << "profile " << tag << " best " << describe(out.best)
             << " ticks=" << out.bestTicks << " inline=" << out.inlineTicks
             << " sweep=" << out.sweepTicks << " entries";
        for (const ProfileEntry &e : out.entries)
            line << " " << e.ticks;
        record(line.str());
        return true;
    }

    /**
     * Execute @p workload under @p paradigm on a fresh system, with
     * @p plan armed and, when @p adaptive, the health + rebooking +
     * reroute stack of the fault studies.
     */
    RunOut
    run(const PlatformSpec &platform, Workload &workload, Paradigm paradigm,
        const TransferConfig &config = {}, const FaultPlan &plan = {},
        bool adaptive = false)
    {
        RunOut out;
        const std::string tag = platform.name + " x"
            + std::to_string(platform.numGpus) + " " + workload.name() + " "
            + slug(paradigm) + (adaptive ? " adaptive" : "");
        out.ok = attempt("run " + tag, [&] {
            std::unique_ptr<MultiGpuSystem> system;
            {
                Tracer::Scope span(_tracer, "system.build");
                system = std::make_unique<MultiGpuSystem>(platform);
                system->setFunctional(false);
            }
            if (!plan.empty()) {
                Tracer::Scope span(_tracer, "faults.install");
                system->installFaults(plan);
            }
            if (adaptive) {
                // As in the Fig. 10 fault study: the holdoff keeps
                // congested relay links from flapping the plan cache.
                Tracer::Scope span(_tracer, "system.build");
                HealthPolicy health;
                health.transitionHoldoff = 50 * ticksPerMicrosecond;
                system->enableHealth(health);
                system->fabric().setRebooking(true);
                system->enableReroute();
            }
            std::unique_ptr<Runtime> runtime;
            {
                Tracer::Scope span(_tracer, "runtime.run");
                const Clock::time_point start = Clock::now();
                runtime = makeRuntime(paradigm, *system, config);
                out.ticks = runtime->run(workload);
                host("runtime.run_s." + slug(paradigm)) +=
                    secondsSince(start);
            }
            harvest(*system, *runtime, out, tag, !plan.empty());
        });
        sim("runtime.runs") += 1;
        return out;
    }

    void
    finish()
    {
        const double calls = sim("workloads.setup_calls");
        sim("workloads.redundant_setup_frac") = calls > 0.0
            ? (calls - sim("workloads.distinct_inputs")) / calls
            : 0.0;
        const double wire = sim("fabric.wire_bytes");
        sim("fabric.wire_efficiency") =
            wire > 0.0 ? sim("fabric.payload_bytes") / wire : 0.0;
        const double requests = sim("reroute.plan_requests");
        sim("reroute.plan_hit_ratio") = requests > 0.0
            ? (requests - sim("reroute.plan_computes")) / requests
            : 0.0;
        std::ostringstream line;
        line.precision(17);
        for (const auto &[name, value] : result.sim)
            line << name << "=" << value << " ";
        record(line.str());
        result.digest = _digest;
    }

  private:
    Tracer &_tracer;
    std::set<std::string> _inputs;
    std::uint64_t _digest = 14695981039346656037ULL;

    void
    fail(const std::string &what, const std::string &why)
    {
        ++result.failed;
        result.errors.push_back(what + ": " + why);
    }

    void
    harvest(MultiGpuSystem &system, Runtime &runtime, RunOut &out,
            const std::string &tag, bool faulted)
    {
        const EventQueue &eq = system.eventQueue();
        const Interconnect &fabric = system.fabric();
        std::ostringstream line;
        line << "run " << tag << " ticks=" << out.ticks
             << " events=" << eq.dispatchedEvents()
             << " tombstones=" << eq.tombstones()
             << " payload=" << fabric.totalPayloadBytes()
             << " wire=" << fabric.totalWireBytes()
             << " txns=" << fabric.totalStoreTransactions()
             << " dropped=" << fabric.droppedDeliveries();
        sim("sim.events") += static_cast<double>(eq.dispatchedEvents());
        sim("sim.tombstones") += static_cast<double>(eq.tombstones());
        sim("fabric.payload_bytes") +=
            static_cast<double>(fabric.totalPayloadBytes());
        sim("fabric.wire_bytes") +=
            static_cast<double>(fabric.totalWireBytes());
        sim("fabric.store_txns") +=
            static_cast<double>(fabric.totalStoreTransactions());
        sim("fabric.dropped") +=
            static_cast<double>(fabric.droppedDeliveries());

        if (const auto *pr = dynamic_cast<const ProactRuntime *>(&runtime)) {
            out.tail = pr->tailTicks();
            out.deliveredBytes = pr->stats().get("delivered_bytes");
            const double retried = pr->stats().get("transfers.retried");
            const double fallbacks =
                pr->stats().get("fallback.activations");
            sim("retry.retried") += retried;
            sim("retry.fallbacks") += fallbacks;
            line << " tail=" << out.tail << " delivered="
                 << out.deliveredBytes << " retried=" << retried
                 << " fallbacks=" << fallbacks;
        }
        if (const LinkHealthMonitor *health = system.health()) {
            const double transitions =
                health->stats().get("health.transitions");
            sim("health.transitions") += transitions;
            line << " transitions=" << transitions;
        }
        if (const Rerouter *rerouter = system.rerouter()) {
            const StatSet &stats = rerouter->stats();
            sim("reroute.plan_requests") +=
                stats.get("reroute.plan_requests");
            sim("reroute.plan_computes") +=
                stats.get("reroute.plan_computes");
            // Detours and splits both move traffic off its direct link.
            const double rerouted = stats.get("reroute.detours")
                + stats.get("reroute.splits");
            sim("reroute.detours") += rerouted;
            line << " plan_requests=" << stats.get("reroute.plan_requests")
                 << " plan_computes=" << stats.get("reroute.plan_computes")
                 << " rerouted=" << rerouted;
        }
        record(line.str());
        if (faulted) {
            check(fabric.numTrackedFlights() == 0,
                  "no tracked flights left after " + tag);
        }
    }
};

/** Profiler grid the Fig. 10 study deploys (the benches' default). */
Profiler::Options
coarseGrid()
{
    Profiler::Options options;
    options.chunkSizes = {4 * KiB,   16 * KiB, 128 * KiB,
                          256 * KiB, 1 * MiB,  16 * MiB};
    options.threadCounts = {32, 256, 1024, 2048, 4096, 8192};
    options.mechanisms = {TransferMechanism::Cdp,
                          TransferMechanism::Polling};
    options.includeInline = true;
    options.profileIterations = 2;
    options.maxChunksPerGpu = 65536;
    return options;
}

/** The paper's full fine grid (Table II / Fig. 4). */
Profiler::Options
fineGrid()
{
    Profiler::Options options = coarseGrid();
    options.chunkSizes = chunkSizeSweep();
    options.threadCounts = threadCountSweep();
    return options;
}

/**
 * Fig. 10 DGX-2 strong scaling: profile each app once at 16 GPUs, then
 * run cudaMemcpy, PROACT and Infinite-BW at 1..16 GPUs, rebuilding the
 * workload per GPU count as the scaling harnesses do.
 */
void
scalingPass(Pass &p)
{
    const PlatformSpec dgx2 = dgx2Platform();
    const auto apps = standardWorkloadNames();
    const Profiler::Options grid = coarseGrid();

    std::vector<TransferConfig> configs(apps.size());
    std::vector<bool> use_inline(apps.size(), false);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        auto workload = p.setup(apps[a], dgx2.numGpus, p.scale.appShift);
        ProfileResult prof;
        if (workload && p.profile(dgx2, *workload, grid, prof)) {
            configs[a] = prof.bestDecoupled().config;
            use_inline[a] = !prof.best.decoupled();
        }
    }

    std::vector<double> single(apps.size(), 0.0);
    std::vector<double> speedups, captures;
    for (const int n : {1, 2, 4, 8, 16}) {
        const PlatformSpec platform = dgx2.withGpuCount(n);
        for (std::size_t a = 0; a < apps.size(); ++a) {
            auto workload = p.setup(apps[a], n, p.scale.appShift);
            if (!workload)
                continue;
            p.run(platform, *workload, Paradigm::CudaMemcpy);
            const RunOut ideal =
                p.run(platform, *workload, Paradigm::InfiniteBw);
            RunOut proact = p.run(platform, *workload,
                                  Paradigm::ProactDecoupled, configs[a]);
            if (use_inline[a]) {
                const RunOut inl =
                    p.run(platform, *workload, Paradigm::ProactInline);
                if (inl.ok && (!proact.ok || inl.ticks < proact.ticks))
                    proact = inl;
            }
            if (!ideal.ok || !proact.ok)
                continue;
            if (n == 1)
                single[a] = static_cast<double>(ideal.ticks);
            if (n == 16) {
                p.sim("sim.compute_ms") += ms(ideal.ticks);
                p.sim("sim.exposed_transfer_ms") +=
                    ms(proact.ticks) - ms(ideal.ticks);
                p.sim("sim.tail_ms") += ms(proact.tail);
                captures.push_back(100.0 * static_cast<double>(ideal.ticks)
                                   / static_cast<double>(proact.ticks));
                if (single[a] > 0.0) {
                    speedups.push_back(
                        single[a] / static_cast<double>(proact.ticks));
                }
            }
        }
    }
    p.check(speedups.size() == apps.size(), "every app scaled to 16 GPUs");
    p.sim("sim_speedup_16") = geomean(speedups);
    p.sim("sim_capture_pct") = geomean(captures);
}

/**
 * Table II / Fig. 4 profiler: the full fine grid for every app on the
 * three 4-GPU platforms, each workload built once and reused, plus one
 * Infinite-BW reference and one run of the pick per (app, platform).
 */
void
sweepPass(Pass &p)
{
    const std::vector<PlatformSpec> platforms = {
        keplerPlatform(), pascalPlatform(), voltaPlatform()};
    const Profiler::Options grid = fineGrid();
    std::vector<double> captures;
    for (const std::string &app : standardWorkloadNames()) {
        auto workload =
            p.setup(app, platforms.front().numGpus, p.scale.appShift);
        if (!workload)
            continue;
        for (const PlatformSpec &platform : platforms) {
            ProfileResult prof;
            if (!p.profile(platform, *workload, grid, prof))
                continue;
            const RunOut ideal =
                p.run(platform, *workload, Paradigm::InfiniteBw);
            const RunOut pick = prof.best.decoupled()
                ? p.run(platform, *workload, Paradigm::ProactDecoupled,
                        prof.best)
                : p.run(platform, *workload, Paradigm::ProactInline);
            if (!ideal.ok || !pick.ok)
                continue;
            p.sim("sim.compute_ms") += ms(ideal.ticks);
            p.sim("sim.exposed_transfer_ms") +=
                ms(pick.ticks) - ms(ideal.ticks);
            p.sim("sim.tail_ms") += ms(pick.tail);
            captures.push_back(100.0 * static_cast<double>(ideal.ticks)
                               / static_cast<double>(pick.ticks));
        }
    }
    p.check(captures.size() == 3 * standardWorkloadNames().size(),
            "every (app, platform) profiled and run");
    p.sim("sim_capture_pct") = geomean(captures);
}

/** Every victimStride-th job slot loses a GPU on its first attempt. */
constexpr int victimStride = 6;

/**
 * The seeded arrival stream with its (workload, gpus) requests replaced
 * by a seeded permutation of a balanced mix: every registry workload at
 * every GPU count equally often. Arrivals, priorities and deadlines
 * still vary with the seed, but the amount of work does not, so host
 * time is comparable across seeds. @p slots receives each job's index
 * in the balanced mix.
 */
std::vector<proact::fleet::JobSpec>
balancedJobStream(std::uint64_t seed, int num_jobs, std::vector<int> &slots)
{
    proact::fleet::ArrivalModel model;
    model.seed = deriveSeed(seed, 100);
    model.numJobs = num_jobs;
    std::vector<proact::fleet::JobSpec> jobs =
        proact::fleet::generateJobStream(model);

    const auto names = standardWorkloadNames();
    const std::vector<int> &counts = model.gpuCounts;
    slots.resize(jobs.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        slots[i] = static_cast<int>(i);
    Rng rng(deriveSeed(seed, 101));
    for (std::size_t i = slots.size(); i > 1; --i)
        std::swap(slots[i - 1], slots[rng.below(i)]);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto k = static_cast<std::size_t>(slots[i]);
        jobs[i].workload = names[k % names.size()];
        jobs[i].gpus = counts[(k / names.size()) % counts.size()];
    }
    return jobs;
}

/**
 * A seeded mixed-registry stream on the DGX-2 with plane sharing and
 * recovery armed, every victimStride-th job losing one GPU halfway
 * through its fault-free service time. Set-up serves the stream once
 * fault-free to find those times; then one session serves the faulted
 * stream cold (election sweeps fill the cache) and warm (cache hits).
 */
void
fleetPass(Pass &p)
{
    using namespace proact::fleet;
    const PlatformSpec platform = dgx2Platform();

    FleetSession::Options options;
    options.placement = PlacementMode::PlaneSharing;
    options.maxTenantsPerPlane = 2;
    options.functional = false;
    options.scaleShift = p.scale.fleetShift;
    options.elector.scaleShift = p.scale.fleetShift;
    options.footprintScale = 1;
    options.chargeElections = false;
    options.recovery.enabled = true;
    options.recovery.minGpus = 2;
    options.recovery.maxAttempts = 4;

    std::vector<JobSpec> jobs;
    std::vector<int> slots;
    std::map<int, Tick> service;
    std::unique_ptr<FleetSession> session;
    const bool ready = p.attempt("fleet setup", [&] {
        Tracer::Scope span(p.tracer(), "fleet.setup");
        jobs = balancedJobStream(p.seed, p.scale.fleetJobs, slots);

        FleetSession calibration(platform, options);
        for (const TenantRecord &t : calibration.serve(jobs).tenants)
            service[t.job.id] = t.serviceTicks;

        FleetSession::Options campaign = options;
        campaign.faultPlanFor = [service, slots](const JobSpec &job,
                                                 int attempt) {
            FaultPlan plan;
            const int slot = slots.at(static_cast<std::size_t>(job.id));
            if (attempt == 0 && slot % victimStride == 1)
                plan.downGpu(service.at(job.id) / 2, maxTick,
                             slot % job.gpus);
            return plan;
        };
        session = std::make_unique<FleetSession>(platform, campaign);
    });
    if (!ready)
        return;

    double served_s = 0.0;
    std::vector<FleetReport> reports;
    for (const char *pass : {"cold", "warm"}) {
        FleetReport report;
        const bool ok = p.attempt(std::string("fleet serve ") + pass, [&] {
            Tracer::Scope span(p.tracer(), "fleet.serve");
            const Clock::time_point start = Clock::now();
            report = session->serve(jobs);
            p.host(std::string("fleet.serve_") + pass + "_s") =
                secondsSince(start);
        });
        if (!ok)
            return;
        served_s += p.host(std::string("fleet.serve_") + pass + "_s");
        bool complete = report.tenants.size() == jobs.size();
        for (const TenantRecord &t : report.tenants)
            complete = complete && !t.run.aborted;
        p.check(complete, std::string("every job completes (") + pass + ")");
        p.sim("elector.sweeps") += static_cast<double>(report.electionSweeps);
        p.sim("elector.cache_hits") +=
            static_cast<double>(report.electionCacheHits);
        p.sim("admission.deferred") += static_cast<double>(
            report.deferredCapacity + report.deferredCongestion);
        p.sim("fleet.recoveries") +=
            static_cast<double>(report.recoveries.size());
        p.record(report.toJson(platform.name, p.seed));
        reports.push_back(std::move(report));
    }
    p.sim("fleet_p50_ms") = ms(reports.front().p50);
    p.sim("fleet_p95_ms") = ms(reports.front().p95);
    p.host("jobs_per_s") =
        static_cast<double>(2 * jobs.size()) / std::max(served_s, 1e-9);
}

/** Plans and configs of the Fig. 10 fault study. */
TransferConfig
faultConfig(bool adaptive)
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    config.retry.enabled = true;
    config.retry.maxAttempts = 5;
    config.retry.rerouteAfterAttempts = adaptive ? 2 : 0;
    return config;
}

FaultPlan
boardDownPlan(Tick at, int board)
{
    FaultPlan plan;
    dgx2DownBaseboard(plan, at, maxTick, board);
    return plan;
}

FaultPlan
planeDegradePlan(Tick at)
{
    FaultPlan plan;
    dgx2DownSwitchPlanes(plan, at, maxTick, dgx2NumSwitchPlanes / 2);
    return plan;
}

/** Every network-tier link of one half of node 0 goes down. */
FaultPlan
uplinksDownPlan(const PlatformSpec &platform, Tick at, int half)
{
    FaultPlan plan;
    const FabricSpec &fabric = platform.fabric;
    const int width = fabric.gpusPerNode / 2;
    for (int g = half * width; g < (half + 1) * width; ++g) {
        for (int h = 0; h < platform.numGpus; ++h) {
            if (fabric.sameNode(g, h))
                continue;
            plan.downLink(at, maxTick, g, h);
            plan.downLink(at, maxTick, h, g);
        }
    }
    return plan;
}

/**
 * Jacobi on the 16-GPU DGX-2 under board-down and plane-degrade, and on
 * 2x16 under uplinks-down, each with the retry-only and the adaptive
 * stack. The seed picks the faulted board/half and the strike point,
 * 24.5-25.5% into the fault-free makespan (Fig. 10 strikes at 25%); the
 * narrow window keeps the amount of work independent of the seed.
 */
void
faultsPass(Pass &p)
{
    const int side = static_cast<int>(deriveSeed(p.seed, 200) & 1);
    const double strike = 0.245
        + 0.01 * static_cast<double>(deriveSeed(p.seed, 201) % 1000)
            / 1000.0;
    std::vector<double> goodputs;

    auto study = [&](const PlatformSpec &platform,
                     const std::vector<std::function<FaultPlan(Tick)>>
                         &plans) {
        auto workload =
            p.setup("Jacobi", platform.numGpus, p.scale.jacobiShift);
        if (!workload)
            return;
        const RunOut clean = p.run(platform, *workload,
                                   Paradigm::ProactDecoupled,
                                   faultConfig(false));
        if (!clean.ok)
            return;
        const Tick at = static_cast<Tick>(
            static_cast<double>(clean.ticks) * strike);
        for (const auto &plan : plans) {
            for (const bool adaptive : {false, true}) {
                const RunOut out = p.run(platform, *workload,
                                         Paradigm::ProactDecoupled,
                                         faultConfig(adaptive), plan(at),
                                         adaptive);
                if (adaptive && out.ok && out.ticks > 0) {
                    goodputs.push_back(
                        out.deliveredBytes
                        / (static_cast<double>(out.ticks)
                           / static_cast<double>(ticksPerSecond))
                        / 1e9);
                }
            }
        }
    };

    study(dgx2Platform(),
          {[&](Tick at) { return boardDownPlan(at, side); },
           [](Tick at) { return planeDegradePlan(at); }});
    const PlatformSpec two_node = multiNodePlatform(2, 16);
    study(two_node, {[&](Tick at) {
              return uplinksDownPlan(two_node, at, side);
          }});

    p.check(goodputs.size() == 3, "every adaptive faulted run finished");
    p.sim("fault_goodput_gbps") = geomean(goodputs);
}

using PassFn = void (*)(Pass &);

const std::vector<std::pair<std::string, PassFn>> &
registry()
{
    static const std::vector<std::pair<std::string, PassFn>> passes = {
        {"scaling", scalingPass},
        {"sweep", sweepPass},
        {"fleet", fleetPass},
        {"faults", faultsPass},
    };
    return passes;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &[name, fn] : registry())
        names.push_back(name);
    return names;
}

bool
isWorkload(const std::string &name)
{
    const auto names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

PassResult
runPass(const std::string &workload, Tracer &tracer, const Scale &scale,
        std::uint64_t seed)
{
    tracer.beginRun();
    Pass p(tracer, scale, seed);
    const Clock::time_point start = Clock::now();
    {
        Tracer::Scope root(tracer, "pass");
        for (const auto &[name, fn] : registry()) {
            if (name == workload)
                fn(p);
        }
    }
    p.finish();
    p.result.wallS = secondsSince(start);
    for (const auto &[layer, seconds] : tracer.totals())
        p.result.host[layer + "_s"] = seconds;
    p.result.setupS = p.result.host["workloads.setup_s"]
        + p.result.host["fleet.setup_s"];
    return std::move(p.result);
}

PassResult
functionalPass(const Scale &scale, std::uint64_t seed)
{
    Tracer tracer;
    Pass p(tracer, scale, seed);
    const Clock::time_point start = Clock::now();
    const PlatformSpec platform = dgx2Platform().withGpuCount(4);
    for (const std::string &app : standardWorkloadNames()) {
        for (const Paradigm paradigm : allParadigms()) {
            p.attempt("functional " + app + " " + slug(paradigm), [&] {
                auto workload = makeApp(app, scale.functionalShift, seed);
                workload->setup(platform.numGpus);
                MultiGpuSystem system(platform);
                system.setFunctional(true);
                makeRuntime(paradigm, system)->run(*workload);
                p.check(workload->verify(),
                        app + " verifies under " + slug(paradigm));
            });
        }
    }
    p.finish();
    p.result.wallS = secondsSince(start);
    return std::move(p.result);
}

} // namespace perfbench
