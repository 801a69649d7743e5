/**
 * @file
 * Tests for configuration rendering and environment-variable
 * parsing used by the benchmark harnesses.
 */

#include "harness/session.hh"
#include "proact/config.hh"
#include "system/platform.hh"
#include "tests/toy_workload.hh"
#include "workloads/registry.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace proact;

namespace {

/** RAII environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : _name(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            _had = true;
            _old = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (_had)
            ::setenv(_name, _old.c_str(), 1);
        else
            ::unsetenv(_name);
    }

  private:
    const char *_name;
    bool _had = false;
    std::string _old;
};

} // namespace

TEST(ConfigEnv, ScaleShiftDefaultsToZero)
{
    ScopedEnv env("PROACT_SCALE_SHIFT", nullptr);
    EXPECT_EQ(envScaleShift(), 0);
}

TEST(ConfigEnv, ScaleShiftParsesAndClamps)
{
    {
        ScopedEnv env("PROACT_SCALE_SHIFT", "3");
        EXPECT_EQ(envScaleShift(), 3);
    }
    {
        ScopedEnv env("PROACT_SCALE_SHIFT", "99");
        EXPECT_EQ(envScaleShift(), 8); // Clamped.
    }
    {
        ScopedEnv env("PROACT_SCALE_SHIFT", "-4");
        EXPECT_EQ(envScaleShift(), 0);
    }
    {
        ScopedEnv env("PROACT_SCALE_SHIFT", "garbage");
        EXPECT_EQ(envScaleShift(), 0);
    }
    {
        // Out of long long's range: saturates, then clamps.
        ScopedEnv env("PROACT_SCALE_SHIFT", "99999999999999999999");
        EXPECT_EQ(envScaleShift(), 8);
    }
    {
        ScopedEnv env("PROACT_SCALE_SHIFT", "-99999999999999999999");
        EXPECT_EQ(envScaleShift(), 0);
    }
}

TEST(ConfigEnv, ScaledWorkloadsShrink)
{
    auto big = makeWorkload("Jacobi", 0);
    auto small = makeWorkload("Jacobi", 2);
    big->setup(1);
    small->setup(1);
    const Phase pb = big->phase(0);
    const Phase ps = small->phase(0);
    EXPECT_EQ(pb.perGpu[0].bytesProduced,
              4 * ps.perGpu[0].bytesProduced);
}

TEST(ConfigEnv, FormatBytesRendering)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(4 * KiB), "4kB");
    EXPECT_EQ(formatBytes(128 * KiB), "128kB");
    EXPECT_EQ(formatBytes(1 * MiB), "1MB");
    EXPECT_EQ(formatBytes(16 * MiB), "16MB");
    EXPECT_EQ(formatBytes(2 * GiB), "2GB");
    // Non-power-of-two values fall back to raw bytes.
    EXPECT_EQ(formatBytes(1000), "1000B");
}

TEST(ConfigEnv, MechanismNamesRoundTrip)
{
    EXPECT_EQ(mechanismName(TransferMechanism::Inline), "inline");
    EXPECT_EQ(mechanismName(TransferMechanism::Polling), "polling");
    EXPECT_EQ(mechanismName(TransferMechanism::Cdp), "cdp");
    EXPECT_EQ(mechanismName(TransferMechanism::Hardware), "hardware");
    EXPECT_EQ(mechanismCode(TransferMechanism::Polling), "Poll");
    EXPECT_EQ(mechanismCode(TransferMechanism::Hardware), "HW");
}

TEST(ConfigEnv, SessionRunsIgnoreFaultVariables)
{
    // Faults, checkpoints and the device watchdog are RunOptions
    // fields. The examples reach Session::run through
    // compareParadigms, so these variables must change no row.
    const WorkloadFactory factory = [](int gpus) {
        auto workload = std::make_unique<test::ToyWorkload>();
        workload->setup(gpus);
        return workload;
    };
    Profiler::Options sweep;
    sweep.chunkSizes = {64 * KiB};
    sweep.threadCounts = {256};
    auto compare = [&] {
        Session session(voltaPlatform());
        return session.compareParadigms(factory, /*functional=*/false,
                                        sweep);
    };
    std::vector<ParadigmRun> clean;
    {
        ScopedEnv faults("PROACT_FAULTS", nullptr);
        ScopedEnv drop("PROACT_FAULT_DROP_RATE", nullptr);
        ScopedEnv checkpoint("PROACT_CHECKPOINT", nullptr);
        ScopedEnv watchdog("PROACT_DEVICE_HEALTH", nullptr);
        clean = compare();
    }
    ScopedEnv faults("PROACT_FAULTS", "1");
    ScopedEnv drop("PROACT_FAULT_DROP_RATE", "0.5");
    ScopedEnv checkpoint("PROACT_CHECKPOINT", "1");
    ScopedEnv watchdog("PROACT_DEVICE_HEALTH", "1");
    const std::vector<ParadigmRun> set = compare();

    ASSERT_EQ(set.size(), clean.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        const std::string name = paradigmName(set[i].paradigm);
        EXPECT_EQ(set[i].ticks, clean[i].ticks) << name;
        EXPECT_EQ(set[i].faultSummary(), "") << name;
        EXPECT_EQ(clean[i].faultSummary(), "") << name;
    }
}

TEST(ConfigEnv, DecoupledPredicate)
{
    TransferConfig config;
    config.mechanism = TransferMechanism::Inline;
    EXPECT_FALSE(config.decoupled());
    for (const auto mech :
         {TransferMechanism::Polling, TransferMechanism::Cdp,
          TransferMechanism::Hardware}) {
        config.mechanism = mech;
        EXPECT_TRUE(config.decoupled());
    }
}

TEST(ConfigEnv, NodesParsesAndClamps)
{
    {
        ScopedEnv unset("PROACT_NODES", nullptr);
        EXPECT_EQ(envNodes(), 1);
    }
    const std::pair<const char *, int> cases[] = {
        {"1", 1},
        {"4", 4},
        {"999", 64},
        {"-3", 1},
        {"abc", 1},
        {"nan", 1}, // Not an integer: the default count.
    };
    for (const auto &[value, nodes] : cases) {
        ScopedEnv env("PROACT_NODES", value);
        EXPECT_EQ(envNodes(), nodes) << value;
    }
}
