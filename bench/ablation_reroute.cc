/**
 * @file
 * Fault-adaptation ablation: what does each layer of the adaptive
 * runtime buy when a link dies mid-run?
 *
 * A 4-GPU pairwise-link Volta runs a workload while the 0->1 link
 * goes DOWN a quarter of the way into the (healthy) makespan and
 * never recovers. Two stacked configurations face the same fault
 * plan:
 *
 *   retry-only   acknowledged chunks, exponential backoff, reliable
 *                fallback after the attempt budget — every post-fault
 *                chunk to GPU 1 pays the full discovery latency.
 *   + reroute    the health monitor trips the link DOWN after a short
 *                loss streak and new sends detour via a relay GPU on
 *                physically distinct pair links.
 *
 * The bench exits nonzero unless the adaptive stack (+ reroute)
 * completes strictly faster than retry-only under the identical
 * fault plan. There is no re-profiled row: re-sweeping chunk size and
 * threads on the observed fabric never beat + reroute alone
 * (DESIGN.md §8). Emits a machine-readable summary
 * (ablation_reroute.json or $PROACT_BENCH_JSON) uploaded as a CI
 * artifact.
 */

#include "bench/bench_common.hh"

#include "faults/fault_plan.hh"
#include "health/link_health.hh"
#include "interconnect/rerouter.hh"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

using namespace proact;
using namespace proact::bench;

namespace {

PlatformSpec
pairwiseVolta()
{
    PlatformSpec p = voltaPlatform();
    p.fabric.topology = FabricTopology::PairwiseLinks;
    return p;
}

TransferConfig
baseConfig()
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Polling;
    config.chunkBytes = 64 * KiB;
    config.transferThreads = 2048;
    config.retry.enabled = true;
    config.retry.maxAttempts = 5;
    return config;
}

struct Outcome
{
    Tick ticks = 0;
    double retried = 0;
    double fallbacks = 0;
    double detours = 0;
};

Outcome
runOnce(const std::string &app, std::uint64_t scale, Tick down_at,
        bool reroute)
{
    auto workload = makeScaledWorkload(app, 4, scale);
    MultiGpuSystem system(pairwiseVolta());
    system.setFunctional(false);

    if (down_at != maxTick) {
        FaultPlan plan;
        plan.downLink(down_at, maxTick, 0, 1);
        system.installFaults(std::move(plan));
    }

    if (reroute) {
        system.enableHealth();
        system.fabric().setRebooking(true);
        system.enableReroute();
    }

    ProactRuntime::Options options;
    options.config = baseConfig();
    ProactRuntime runtime(system, options);

    Outcome out;
    out.ticks = runtime.run(*workload);
    out.retried = runtime.stats().get("transfers.retried");
    out.fallbacks = runtime.stats().get("fallback.activations");
    if (const Rerouter *rr = system.rerouter()) {
        out.detours = rr->stats().get("reroute.detours")
            + rr->stats().get("reroute.splits");
    }
    return out;
}

} // namespace

int
main()
{
    const std::uint64_t scale = envFootprintScale();
    const std::string app = "Jacobi";

    // The link dies a quarter of the way into the healthy makespan.
    const Tick healthy = runOnce(app, scale, maxTick, false).ticks;
    const Tick down_at = healthy / 4;

    std::cout << "Ablation: fault-adaptive runtime layers ("
              << app << " on 4x Volta, pairwise links)\n"
              << "link gpu0->gpu1 DOWN at " << down_at / 1000
              << " ns, never recovers\n\n";

    std::cout << std::left << std::setw(22) << "configuration"
              << std::right << std::setw(12) << "slowdown"
              << std::setw(10) << "retries" << std::setw(10)
              << "fallbks" << std::setw(10) << "detours" << "\n";

    std::ostringstream json;
    json << "{\n  \"bench\": \"ablation_reroute\",\n  \"app\": \""
         << app << "\",\n  \"down_at_ticks\": " << down_at
         << ",\n  \"rows\": [";
    bool first_row = true;

    auto row = [&](const std::string &label, const Outcome &out) {
        const double slowdown = static_cast<double>(out.ticks)
            / static_cast<double>(healthy);
        std::cout << std::left << std::setw(22) << label << std::right
                  << std::setw(11) << std::fixed
                  << std::setprecision(2) << slowdown << "x"
                  << std::setw(10)
                  << static_cast<long>(out.retried) << std::setw(10)
                  << static_cast<long>(out.fallbacks) << std::setw(10)
                  << static_cast<long>(out.detours) << "\n";
        json << (first_row ? "" : ",") << "\n    {\"config\": \""
             << label << "\", \"ticks\": " << out.ticks
             << ", \"slowdown\": " << slowdown
             << ", \"retries\": " << static_cast<long>(out.retried)
             << ", \"fallbacks\": "
             << static_cast<long>(out.fallbacks)
             << ", \"detours\": " << static_cast<long>(out.detours)
             << "}";
        first_row = false;
    };

    row("healthy fabric", Outcome{healthy, 0, 0, 0});
    const Outcome retry_only = runOnce(app, scale, down_at, false);
    row("retry-only", retry_only);
    const Outcome adaptive = runOnce(app, scale, down_at, true);
    row("+ reroute", adaptive);

    const bool pass = adaptive.ticks < retry_only.ticks;
    json << "\n  ],\n  \"acceptance\": {\n"
         << "    \"adaptive_beats_retry_only\": "
         << (pass ? "true" : "false") << ",\n    \"pass\": "
         << (pass ? "true" : "false") << "\n  }\n}\n";

    const char *env = std::getenv("PROACT_BENCH_JSON");
    const std::string path =
        env != nullptr && *env != '\0' ? env : "ablation_reroute.json";
    std::ofstream(path) << json.str();

    std::cout << "\nacceptance: reroute "
              << (pass ? "beats" : "DOES NOT BEAT")
              << " retry-only ("
              << static_cast<double>(retry_only.ticks)
                     / static_cast<double>(adaptive.ticks)
              << "x faster)\nJSON written to " << path << "\n";
    return pass ? 0 : 1;
}
