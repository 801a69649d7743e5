/**
 * @file
 * Benchmark binary: runs one workload for a fixed host time and prints
 * every end-to-end and per-layer metric with its unit, a digest of the
 * simulated results, and one JSON result line.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--tiny 0|1] [--trace-out PATH]
 *
 * The workload is run pass after pass until --seconds have elapsed (at
 * least three passes); host metrics are medians over passes. Every
 * pass must reproduce the first pass's digest. With --trace 1, passes
 * alternate untraced and traced: the traced ones record spans, give
 * the per-layer metrics and self times, and are written as Chrome
 * trace-event JSON to --trace-out.
 */

#include "trace.hh"
#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

extern char **environ;

namespace {

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics every workload reports (BENCHMARK.json). */
const std::vector<MetricDef> endToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"simulate_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** End-to-end metrics of single workloads (printed only). */
const std::vector<MetricDef> workloadEndToEnd = {
    {"sim_events_per_s", "1/s"},    {"jobs_per_s", "1/s"},
    {"sim_speedup_16", "x"},        {"sim_capture_pct", "%"},
    {"fleet_p50_ms", "ms"},         {"fleet_p95_ms", "ms"},
    {"fault_goodput_gbps", "GB/s"},
};

const std::vector<MetricDef> perLayer = {
    {"workloads.setup_s", "s"},
    {"workloads.setup_calls", "count"},
    {"workloads.distinct_inputs", "count"},
    {"workloads.redundant_setup_frac", "ratio"},
    {"profiler.sweep_s", "s"},
    {"profiler.candidates", "count"},
    {"profiler.cands_per_s", "1/s"},
    {"profiler.sweep_sim_ms", "ms"},
    {"runtime.run_s.cudamemcpy", "s"},
    {"runtime.run_s.um", "s"},
    {"runtime.run_s.proact_inline", "s"},
    {"runtime.run_s.proact_decoupled", "s"},
    {"runtime.run_s.infinite_bw", "s"},
    {"runtime.runs", "count"},
    {"sim.events", "count"},
    {"sim.tombstones", "count"},
    {"sim.ns_per_event", "ns"},
    {"fabric.payload_bytes", "B"},
    {"fabric.wire_bytes", "B"},
    {"fabric.wire_efficiency", "ratio"},
    {"fabric.store_txns", "count"},
    {"fabric.dropped", "count"},
    {"sim.compute_ms", "ms"},
    {"sim.exposed_transfer_ms", "ms"},
    {"sim.tail_ms", "ms"},
    {"retry.retried", "count"},
    {"retry.fallbacks", "count"},
    {"health.transitions", "count"},
    {"reroute.plan_requests", "count"},
    {"reroute.plan_computes", "count"},
    {"reroute.plan_hit_ratio", "ratio"},
    {"reroute.detours", "count"},
    {"fleet.serve_cold_s", "s"},
    {"fleet.serve_warm_s", "s"},
    {"elector.sweeps", "count"},
    {"elector.cache_hits", "count"},
    {"admission.deferred", "count"},
    {"fleet.recoveries", "count"},
    {"self.workloads.setup_s", "s"},
    {"self.profiler.profile_s", "s"},
    {"self.runtime.run_s", "s"},
    {"self.system.build_s", "s"},
    {"self.faults.install_s", "s"},
    {"self.fleet.setup_s", "s"},
    {"self.fleet.serve_s", "s"},
    {"self.untracked_s", "s"},
};

/** Reference figures from the paper (accuracy note, not a gate). */
const std::vector<std::pair<const char *, double>> paperReference = {
    {"sim_speedup_16", 11.0},
    {"sim_capture_pct", 83.0},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = 0;
    bool tiny = false;
    std::string traceOut = "perfbench-trace.json";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny 0|1] [--trace-out PATH]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--tiny") {
            args.tiny = value == "1";
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!isWorkload(args.workload))
        usage("unknown workload '" + args.workload + "'");
    if (!have_seed)
        usage("--seed must be a non-negative integer");
    if (args.seconds <= 0.0)
        usage("--seconds is required");
    return args;
}

/** Unset every PROACT_* variable so no library knob leaks in. */
std::vector<std::string>
clearProactEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("PROACT_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    return names;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
valueOr0(const std::map<std::string, double> &map, const std::string &key)
{
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
}

/** Host rates derived from one pass's layer totals and counters. */
void
deriveHost(PassResult &r)
{
    auto &h = r.host;
    const double events = valueOr0(r.sim, "sim.events");
    const double run_s = valueOr0(h, "runtime.run_s");
    const double sweep_s = valueOr0(h, "profiler.profile_s");
    h["simulate_s"] = r.wallS - r.setupS;
    h["profiler.sweep_s"] = sweep_s;
    h["profiler.cands_per_s"] = sweep_s > 0.0
        ? valueOr0(r.sim, "profiler.candidates") / sweep_s
        : 0.0;
    h["sim.ns_per_event"] = events > 0.0 ? run_s * 1e9 / events : 0.0;
    h["sim_events_per_s"] = run_s > 0.0 ? events / run_s : 0.0;
}

/** Median over @p passes of a host metric, else the simulated value. */
double
metricValue(const std::vector<PassResult> &passes, const std::string &name)
{
    if (passes.empty())
        return 0.0;
    if (name == "wall_s" || name == "setup_s") {
        std::vector<double> v;
        for (const PassResult &p : passes)
            v.push_back(name == "wall_s" ? p.wallS : p.setupS);
        return median(v);
    }
    if (passes.front().host.count(name)) {
        std::vector<double> v;
        for (const PassResult &p : passes)
            v.push_back(valueOr0(p.host, name));
        return median(v);
    }
    return valueOr0(passes.front().sim, name);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream oss;
    oss << std::hex << std::setw(16) << std::setfill('0') << v;
    return oss.str();
}

void
printMetric(const std::string &name, double value, const std::string &unit)
{
    std::cout << "metric " << std::left << std::setw(34) << name
              << std::right << std::setw(22) << std::setprecision(10)
              << value << " " << unit << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<std::string> cleared = clearProactEnvironment();
    const Scale scale = args.tiny ? Scale::tiny() : Scale{};

    std::cout << "config workload=" << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << " tiny=" << args.tiny << " app_shift=" << scale.appShift
              << " jacobi_shift=" << scale.jacobiShift
              << " footprint=" << scale.footprint
              << " fleet_jobs=" << scale.fleetJobs
              << " fleet_shift=" << scale.fleetShift
              << " functional_shift=" << scale.functionalShift
              << " processes=1 threads=1 profiler_workers=api-default\n";
    std::cout << "config cleared_env=";
    for (const std::string &name : cleared)
        std::cout << name << ",";
    std::cout << (cleared.empty() ? "none" : "") << "\n";

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    auto absorb = [&](const PassResult &r) {
        attempted += r.attempted;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    };
    auto check = [&](bool ok, const std::string &what) {
        ++attempted;
        if (!ok) {
            ++failed;
            errors.push_back("check failed: " + what);
        }
    };

    const PassResult functional = functionalPass(scale, args.seed);
    absorb(functional);
    std::cout << "functional pass: " << functional.attempted
              << " ops, " << functional.failed << " failed, "
              << std::setprecision(4) << functional.wallS
              << " s (outside the timed region)\n";

    Tracer tracer;
    std::vector<PassResult> plain, traced;
    const std::size_t min_passes = args.trace ? 2 : 3;
    const Clock::time_point start = Clock::now();
    while (true) {
        const bool record = args.trace && plain.size() > traced.size();
        tracer.setRecording(record);
        PassResult r = runPass(args.workload, tracer, scale, args.seed);
        std::cout << "pass " << plain.size() + traced.size()
                  << (record ? " traced" : " untraced") << " wall "
                  << std::setprecision(6) << r.wallS << " s setup "
                  << r.setupS << " s\n";
        deriveHost(r);
        absorb(r);
        if (record) {
            double self_sum = 0.0;
            for (const auto &[name, s] :
                 tracer.selfSeconds(tracer.currentRun())) {
                r.host[name == "pass" ? "self.untracked_s"
                                      : "self." + name + "_s"] = s;
                self_sum += s;
            }
            check(std::abs(self_sum - r.wallS) <= 1e-3 * r.wallS + 1e-3,
                  "traced self times sum to the pass wall time");
            traced.push_back(std::move(r));
        } else {
            plain.push_back(std::move(r));
        }
        const std::size_t done =
            args.trace ? std::min(plain.size(), traced.size())
                       : plain.size();
        if (secondsSince(start) >= args.seconds && done >= min_passes)
            break;
    }
    const double timed_s = secondsSince(start);

    // Every pass repeats the same seeded inputs, traced or not, so
    // every simulated tick and counter must repeat exactly.
    const std::uint64_t digest = plain.front().digest;
    for (std::size_t i = 1; i < plain.size(); ++i)
        check(plain[i].digest == digest, "untraced pass repeats pass 0");
    for (const PassResult &r : traced)
        check(r.digest == digest, "traced pass matches untraced digest");

    std::cout << "passes: " << plain.size() << " untraced, " << traced.size()
              << " traced in " << std::setprecision(4) << timed_s << " s\n";
    std::cout << "digest " << args.workload << " seed=" << args.seed << " "
              << hex(digest) << "\n";

    const double rss = peakRssMb();
    for (const MetricDef &m : endToEnd) {
        printMetric(m.name,
                    m.name == std::string("peak_rss_mb")
                        ? rss
                        : metricValue(plain, m.name),
                    m.unit);
    }
    for (const MetricDef &m : workloadEndToEnd) {
        // Only the workloads that define the metric report it.
        const double value = metricValue(plain, m.name);
        if (value != 0.0)
            printMetric(m.name, value, m.unit);
    }
    for (const auto &[name, paper] : paperReference) {
        if (plain.front().sim.count(name)) {
            std::cout << "accuracy " << name << " simulated "
                      << std::setprecision(4)
                      << metricValue(plain, name) << " vs paper " << paper
                      << " (note, not a gate)\n";
        }
    }

    const std::vector<PassResult> &layer_passes =
        args.trace ? traced : plain;
    for (const MetricDef &m : perLayer)
        printMetric(m.name, metricValue(layer_passes, m.name), m.unit);

    if (args.trace) {
        const double traced_wall = metricValue(traced, "wall_s");
        const double plain_wall = metricValue(plain, "wall_s");
        const double untracked =
            metricValue(traced, "self.untracked_s");
        std::cout << "trace: median traced wall " << std::setprecision(6)
                  << traced_wall << " s, untraced " << plain_wall
                  << " s, overhead " << (traced_wall - plain_wall)
                  << " s; layers' self time covers "
                  << (traced_wall - untracked) << " s, untracked remainder "
                  << untracked << " s\n";
        std::ofstream out(args.traceOut);
        tracer.writeChrome(out);
        out.close();
        check(out.good(), "trace written to " + args.traceOut);
        std::cout << "trace: wrote " << tracer.spans().size()
                  << " spans to " << args.traceOut << "\n";
        std::cout << "trace_spans " << tracer.spans().size() << "\n";
    }

    for (const std::string &e : errors)
        std::cout << "error: " << e << "\n";
    printMetric("error_rate",
                static_cast<double>(failed)
                    / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
                "ratio");

    std::ostringstream json;
    json << std::setprecision(17);
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    const std::vector<MetricDef> &emitted = args.trace ? perLayer : endToEnd;
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        const MetricDef &m = emitted[i];
        const double value = m.name == std::string("peak_rss_mb")
            ? rss
            : metricValue(layer_passes, m.name);
        json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
             << value << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
