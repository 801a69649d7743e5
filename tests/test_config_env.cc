/**
 * @file
 * Tests for configuration rendering and environment-variable
 * parsing used by the benchmark harnesses.
 */

#include "proact/config.hh"
#include "workloads/registry.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

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

TEST(ConfigEnv, FaultsDefaultOff)
{
    ScopedEnv off("PROACT_FAULTS", nullptr);
    EXPECT_FALSE(envFaultsEnabled());
    EXPECT_TRUE(envFaultPlan().empty());
    EXPECT_FALSE(envRetryPolicy().enabled);

    ScopedEnv zero("PROACT_FAULTS", "0");
    EXPECT_FALSE(envFaultsEnabled());
}

TEST(ConfigEnv, FaultKnobsBuildAPlan)
{
    ScopedEnv on("PROACT_FAULTS", "1");
    ScopedEnv seed("PROACT_FAULT_SEED", "123");
    ScopedEnv drop("PROACT_FAULT_DROP_RATE", "0.25");
    ScopedEnv degrade("PROACT_FAULT_DEGRADE", "0.5");

    EXPECT_TRUE(envFaultsEnabled());
    const FaultPlan plan = envFaultPlan();
    EXPECT_EQ(plan.seed, 123u);
    ASSERT_EQ(plan.episodes.size(), 2u);
    EXPECT_EQ(plan.episodes[0].kind, FaultKind::DeliveryDrop);
    EXPECT_DOUBLE_EQ(plan.episodes[0].severity, 0.25);
    EXPECT_EQ(plan.episodes[1].kind, FaultKind::LinkDegrade);
    EXPECT_DOUBLE_EQ(plan.episodes[1].severity, 0.5);
    EXPECT_NO_THROW(plan.validate(4));
    EXPECT_TRUE(envRetryPolicy().enabled);
}

TEST(ConfigEnv, FaultKnobsClampAndDefault)
{
    ScopedEnv on("PROACT_FAULTS", "1");
    {
        // Defaults: 1 % drops, no degradation.
        ScopedEnv drop("PROACT_FAULT_DROP_RATE", nullptr);
        ScopedEnv degrade("PROACT_FAULT_DEGRADE", nullptr);
        const FaultPlan plan = envFaultPlan();
        ASSERT_EQ(plan.episodes.size(), 1u);
        EXPECT_DOUBLE_EQ(plan.episodes[0].severity, 0.01);
    }
    {
        // Out-of-range values clamp into the valid episode ranges.
        ScopedEnv drop("PROACT_FAULT_DROP_RATE", "7.0");
        ScopedEnv degrade("PROACT_FAULT_DEGRADE", "1.0");
        const FaultPlan plan = envFaultPlan();
        ASSERT_EQ(plan.episodes.size(), 2u);
        EXPECT_DOUBLE_EQ(plan.episodes[0].severity, 1.0);
        EXPECT_DOUBLE_EQ(plan.episodes[1].severity, 0.95);
        EXPECT_NO_THROW(plan.validate(4));
    }
    {
        // NaN is unparsable: the default drop rate, not no drops.
        ScopedEnv drop("PROACT_FAULT_DROP_RATE", "nan");
        ScopedEnv degrade("PROACT_FAULT_DEGRADE", "nan");
        const FaultPlan plan = envFaultPlan();
        ASSERT_EQ(plan.episodes.size(), 1u);
        EXPECT_DOUBLE_EQ(plan.episodes[0].severity, 0.01);
    }
    {
        ScopedEnv attempts("PROACT_RETRY_MAX_ATTEMPTS", "99");
        EXPECT_EQ(envRetryPolicy().maxAttempts, 16); // Clamped.
    }
    {
        ScopedEnv attempts("PROACT_RETRY_MAX_ATTEMPTS", "3");
        EXPECT_EQ(envRetryPolicy().maxAttempts, 3);
    }
    {
        // Too large for any integer type: clamped, not wrapped.
        ScopedEnv attempts("PROACT_RETRY_MAX_ATTEMPTS",
                           "99999999999999999999");
        EXPECT_EQ(envRetryPolicy().maxAttempts, 16);
    }
    {
        // A value that does not parse keeps the default.
        ScopedEnv reroute("PROACT_REROUTE", nullptr);
        ScopedEnv attempts("PROACT_RETRY_MAX_ATTEMPTS", "abc");
        ScopedEnv after("PROACT_RETRY_REROUTE_AFTER", "abc");
        ScopedEnv seed("PROACT_FAULT_SEED", "abc");
        const RetryPolicy policy = envRetryPolicy();
        EXPECT_EQ(policy.maxAttempts, RetryPolicy{}.maxAttempts);
        EXPECT_EQ(policy.rerouteAfterAttempts, 2);
        EXPECT_EQ(envFaultPlan().seed, FaultPlan{}.seed);
    }
}

TEST(ConfigEnv, NanNodesFallBackToOneNode)
{
    // The count is cast to int, and a NaN cast is undefined.
    ScopedEnv nodes("PROACT_NODES", "nan");
    EXPECT_EQ(envNodes(), 1);
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

TEST(ConfigEnv, SimShardsParsesAndClamps)
{
    {
        ScopedEnv unset("PROACT_SIM_SHARDS", nullptr);
        EXPECT_EQ(envSimShards(), 0);
    }
    const std::pair<const char *, int> cases[] = {
        {"1", 0}, // One worker is the serial sweep.
        {"4", 4},
        {"999", 64},
        {"-3", 0},
        {"abc", 0},
    };
    for (const auto &[value, workers] : cases) {
        ScopedEnv env("PROACT_SIM_SHARDS", value);
        EXPECT_EQ(envSimShards(), workers) << value;
    }
}
