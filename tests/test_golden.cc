/**
 * @file
 * Golden behaviour gate (`ctest -L golden`).
 *
 * Pins the simulator's numbers so that a refactor cannot move them
 * silently. Every row is one readable `<key>: <value>` line of
 * tests/golden/golden.txt:
 *
 *  - paradigm/...: the five small workloads under all five paradigms
 *    on the four Table I platforms, timing-only, with one fixed
 *    transfer config and no profiler;
 *  - recovery/...: one seeded DGX-2 Jacobi run with random link
 *    faults, retry, health monitoring (and with it boundary-aware
 *    rebooking), rerouting and a mid-run device loss, followed by its
 *    restart from the latest checkpoint;
 *  - fleet/...: one seeded small DGX-2 fleet serve, recorded as
 *    FleetReport::toJson with one row per JSON line.
 *
 * A mismatch prints every row that differs. After an intended
 * behaviour change, regenerate the file by running this test with
 * PROACT_GOLDEN_UPDATE=1, and record the reason in CHANGES.md.
 */

#include "faults/fault_plan.hh"
#include "fleet/fleet_session.hh"
#include "fleet/job.hh"
#include "harness/session.hh"
#include "system/platform.hh"
#include "tests/small_workloads.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace proact;

namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

constexpr const char *kGoldenFile = PROACT_GOLDEN_FILE;

/** The fixed transfer config every golden run uses. */
Session::RunOptions
goldenOptions()
{
    Session::RunOptions options;
    options.functional = false;
    options.config.mechanism = TransferMechanism::Polling;
    options.config.chunkBytes = 64 * KiB;
    options.config.transferThreads = 2048;
    return options;
}

void
addParadigmRows(Rows &rows)
{
    for (const PlatformSpec &platform : allPlatforms()) {
        Session session(platform);
        for (const std::string &name : test::smallWorkloadNames()) {
            for (const Paradigm paradigm : allParadigms()) {
                auto workload = test::makeSmallWorkload(name);
                workload->setup(platform.numGpus);
                const ParadigmRun run =
                    session.run(*workload, paradigm, goldenOptions());
                rows.emplace_back("paradigm/" + platform.name + "/"
                                      + name + "/"
                                      + paradigmName(paradigm),
                                  test::runDigest(run));
            }
        }
    }
}

/**
 * Seeded faults on DGX-2 Jacobi: random link episodes plus a lossy
 * wildcard window keep the retry, health and reroute layers busy,
 * and GPU 5 dies halfway through the fault-free run. The restart
 * resumes from the latest checkpoint on a healthy system.
 */
void
addRecoveryRows(Rows &rows)
{
    const PlatformSpec platform = dgx2Platform();
    const int gpus = platform.numGpus;
    Session session(platform);
    auto make = [gpus] {
        auto workload = test::makeSmallWorkload("Jacobi");
        workload->setup(gpus);
        return workload;
    };

    const Tick clean_ticks =
        session.run(*make(), Paradigm::ProactDecoupled, goldenOptions())
            .ticks;

    Session::RunOptions options = goldenOptions();
    RandomFaultOptions random;
    random.numEvents = 6;
    FaultPlan plan = randomFaultPlan(20210614, gpus, random);
    plan.dropDeliveries(0, maxTick, 0.05);
    plan.downGpu(clean_ticks / 2, maxTick, 5);
    options.faults = std::move(plan);
    options.config.retry.enabled = true;
    options.config.retry.maxAttempts = 6;
    options.config.retry.rerouteAfterAttempts = 2;
    options.reroute = true;
    options.deviceHealth = true;
    options.checkpoint = true;
    const ParadigmRun lost =
        session.run(*make(), Paradigm::ProactDecoupled, options);
    rows.emplace_back("recovery/" + platform.name + "/Jacobi/lost",
                      test::runDigest(lost));

    Session::RunOptions resume = goldenOptions();
    resume.checkpoint = true;
    resume.firstIteration = lost.checkpointIteration + 1;
    const ParadigmRun resumed =
        session.run(*make(), Paradigm::ProactDecoupled, resume);
    rows.emplace_back("recovery/" + platform.name + "/Jacobi/resumed",
                      test::runDigest(resumed));
}

void
addFleetRows(Rows &rows)
{
    fleet::ArrivalModel model;
    model.seed = 7;
    model.numJobs = 6;
    const auto jobs = fleet::generateJobStream(model);

    fleet::FleetSession::Options options;
    options.chargeElections = false;
    fleet::FleetSession session(dgx2Platform(), options);
    const std::string json =
        session.serve(jobs).toJson("dgx2", model.seed);

    std::istringstream lines(json);
    std::string line;
    int index = 0;
    while (std::getline(lines, line)) {
        const auto first = line.find_first_not_of(' ');
        char key[32];
        std::snprintf(key, sizeof(key), "fleet/json/%03d", index++);
        rows.emplace_back(key, first == std::string::npos
                                   ? std::string()
                                   : line.substr(first));
    }
}

Rows
goldenRows()
{
    Rows rows;
    addParadigmRows(rows);
    addRecoveryRows(rows);
    addFleetRows(rows);
    return rows;
}

/** Parse `<key>: <value>` lines (the key holds no ": "). */
Rows
readGolden(const std::string &path)
{
    Rows rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto sep = line.find(": ");
        if (sep == std::string::npos)
            continue;
        rows.emplace_back(line.substr(0, sep), line.substr(sep + 2));
    }
    return rows;
}

void
writeGolden(const std::string &path, const Rows &rows)
{
    std::ofstream out(path);
    for (const auto &[key, value] : rows)
        out << key << ": " << value << "\n";
}

/**
 * Human-readable list of every row that differs, in row order:
 * "changed" rows show both values, "added" rows are produced but not
 * in the golden file, "removed" rows are in the file but no longer
 * produced.
 */
std::string
describeDiff(const Rows &golden, const Rows &actual)
{
    const std::map<std::string, std::string> want(golden.begin(),
                                                  golden.end());
    const std::map<std::string, std::string> got(actual.begin(),
                                                 actual.end());
    std::ostringstream os;
    for (const auto &[key, value] : actual) {
        const auto it = want.find(key);
        if (it == want.end()) {
            os << "added   " << key << ": " << value << "\n";
        } else if (it->second != value) {
            os << "changed " << key << "\n  golden: " << it->second
               << "\n  actual: " << value << "\n";
        }
    }
    for (const auto &[key, value] : golden) {
        if (got.find(key) == got.end())
            os << "removed " << key << ": " << value << "\n";
    }
    return os.str();
}

} // namespace

TEST(Golden, DigestMatchesCommittedFile)
{
    const Rows actual = goldenRows();

    const char *update = std::getenv("PROACT_GOLDEN_UPDATE");
    if (update != nullptr && std::string(update) == "1") {
        writeGolden(kGoldenFile, actual);
        GTEST_SKIP() << "rewrote " << kGoldenFile << " ("
                     << actual.size() << " rows)";
    }

    const Rows golden = readGolden(kGoldenFile);
    ASSERT_FALSE(golden.empty())
        << "no golden rows in " << kGoldenFile
        << "; generate it with PROACT_GOLDEN_UPDATE=1";
    const std::string diff = describeDiff(golden, actual);
    EXPECT_TRUE(diff.empty())
        << "golden digest drifted from " << kGoldenFile << ":\n"
        << diff;
}
