#include "proact/config.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace proact {

std::string
mechanismName(TransferMechanism mechanism)
{
    switch (mechanism) {
      case TransferMechanism::Inline:
        return "inline";
      case TransferMechanism::Polling:
        return "polling";
      case TransferMechanism::Cdp:
        return "cdp";
      case TransferMechanism::Hardware:
        return "hardware";
    }
    return "unknown";
}

std::string
mechanismCode(TransferMechanism mechanism)
{
    switch (mechanism) {
      case TransferMechanism::Inline:
        return "I";
      case TransferMechanism::Polling:
        return "Poll";
      case TransferMechanism::Cdp:
        return "CDP";
      case TransferMechanism::Hardware:
        return "HW";
    }
    return "?";
}

std::string
formatBytes(std::uint64_t bytes)
{
    std::ostringstream oss;
    if (bytes >= GiB && bytes % GiB == 0)
        oss << bytes / GiB << "GB";
    else if (bytes >= MiB && bytes % MiB == 0)
        oss << bytes / MiB << "MB";
    else if (bytes >= KiB && bytes % KiB == 0)
        oss << bytes / KiB << "kB";
    else
        oss << bytes << "B";
    return oss.str();
}

std::string
TransferConfig::toString() const
{
    if (mechanism == TransferMechanism::Inline)
        return "I";
    std::ostringstream oss;
    oss << "D " << formatBytes(chunkBytes) << " " << transferThreads
        << " " << mechanismCode(mechanism);
    return oss.str();
}

std::vector<std::uint64_t>
chunkSizeSweep()
{
    return {4 * KiB,   16 * KiB,  64 * KiB, 128 * KiB,
            256 * KiB, 1 * MiB,   4 * MiB,  16 * MiB};
}

std::vector<std::uint32_t>
threadCountSweep()
{
    return {32, 128, 256, 512, 1024, 2048, 4096, 8192};
}

namespace {

double
envDouble(const char *name, double fallback, double lo, double hi)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    // NaN parses, but clamps to itself, and callers cast the result
    // to int or Tick: treat it as unparsable.
    if (end == env || std::isnan(v))
        return fallback;
    return std::clamp(v, lo, hi);
}

} // namespace

std::int64_t
envInt(const char *name, std::int64_t fallback, std::int64_t lo,
       std::int64_t hi)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    // strtoll saturates on overflow, so a huge value clamps to hi.
    const long long v = std::strtoll(env, &end, 10);
    if (end == env)
        return fallback;
    return std::clamp<std::int64_t>(v, lo, hi);
}

bool
envFaultsEnabled()
{
    const char *env = std::getenv("PROACT_FAULTS");
    return env != nullptr && *env != '\0'
        && std::string(env) != "0";
}

FaultPlan
envFaultPlan()
{
    FaultPlan plan;
    if (!envFaultsEnabled())
        return plan;

    plan.seed = static_cast<std::uint64_t>(
        envInt("PROACT_FAULT_SEED", static_cast<std::int64_t>(plan.seed),
               0, std::numeric_limits<std::int64_t>::max()));

    const double drop =
        envDouble("PROACT_FAULT_DROP_RATE", 0.01, 0.0, 1.0);
    if (drop > 0.0)
        plan.dropDeliveries(0, maxTick, drop);

    const double degrade =
        envDouble("PROACT_FAULT_DEGRADE", 0.0, 0.0, 0.95);
    if (degrade > 0.0)
        plan.degradeLink(0, maxTick, degrade);

    return plan;
}

namespace {

/** A fault-adaptive layer: on by default when faults are on. */
bool
envLayerEnabled(const char *name)
{
    if (!envFaultsEnabled())
        return false;
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return true;
    return std::string(env) != "0";
}

} // namespace

bool
envHealthEnabled()
{
    return envLayerEnabled("PROACT_HEALTH") || envRerouteEnabled()
        || envReprofileEnabled();
}

bool
envRerouteEnabled()
{
    return envLayerEnabled("PROACT_REROUTE");
}

bool
envReprofileEnabled()
{
    return envLayerEnabled("PROACT_REPROFILE");
}

HealthPolicy
envHealthPolicy()
{
    HealthPolicy policy;
    policy.congestedQueueRatio = envDouble(
        "PROACT_HEALTH_CONGEST_RATIO", policy.congestedQueueRatio,
        0.1, 1000.0);
    policy.clearQueueRatio =
        envDouble("PROACT_HEALTH_CLEAR_RATIO", policy.clearQueueRatio,
                  0.0, 1000.0);
    if (policy.clearQueueRatio >= policy.congestedQueueRatio)
        policy.clearQueueRatio = policy.congestedQueueRatio * 0.5;
    const double holdoff_us =
        envDouble("PROACT_HEALTH_HOLDOFF_US", 0.0, 0.0, 1e6);
    policy.transitionHoldoff = static_cast<Tick>(
        holdoff_us * static_cast<double>(ticksPerMicrosecond));
    return policy;
}

namespace {

/** Opt-in flag: off unless the variable is set to something != "0". */
bool
envFlagEnabled(const char *name)
{
    const char *env = std::getenv(name);
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

} // namespace

bool
envCheckpointEnabled()
{
    return envFlagEnabled("PROACT_CHECKPOINT");
}

CheckpointPolicy
envCheckpointPolicy()
{
    CheckpointPolicy policy;
    policy.enabled = envCheckpointEnabled();
    policy.interval = static_cast<int>(
        envDouble("PROACT_CHECKPOINT_INTERVAL",
                  static_cast<double>(policy.interval), 1.0, 1e6));
    const double cost_us = envDouble(
        "PROACT_CHECKPOINT_COST_US",
        static_cast<double>(policy.cost)
            / static_cast<double>(ticksPerMicrosecond),
        0.0, 1e9);
    policy.cost = static_cast<Tick>(
        cost_us * static_cast<double>(ticksPerMicrosecond));
    return policy;
}

bool
envDeviceHealthEnabled()
{
    return envFlagEnabled("PROACT_DEVICE_HEALTH");
}

DeviceHealthPolicy
envDeviceHealthPolicy()
{
    DeviceHealthPolicy policy;
    const double interval_us = envDouble(
        "PROACT_DEVICE_HEALTH_INTERVAL_US",
        static_cast<double>(policy.heartbeatInterval)
            / static_cast<double>(ticksPerMicrosecond),
        1.0, 1e6);
    policy.heartbeatInterval = static_cast<Tick>(
        interval_us * static_cast<double>(ticksPerMicrosecond));
    policy.suspectAfterMisses = static_cast<int>(envDouble(
        "PROACT_DEVICE_HEALTH_SUSPECT_MISSES",
        static_cast<double>(policy.suspectAfterMisses), 1.0, 1e3));
    policy.lostAfterMisses = static_cast<int>(envDouble(
        "PROACT_DEVICE_HEALTH_LOST_MISSES",
        static_cast<double>(policy.lostAfterMisses), 1.0, 1e3));
    if (policy.suspectAfterMisses > policy.lostAfterMisses)
        policy.suspectAfterMisses = policy.lostAfterMisses;
    return policy;
}

bool
envReprofileChargeEnabled()
{
    return envFlagEnabled("PROACT_REPROFILE_CHARGE");
}

int
envNodes()
{
    return static_cast<int>(envDouble("PROACT_NODES", 1.0, 1.0, 64.0));
}

PlatformSpec
envMultiNodePlatform(int gpus_per_node)
{
    const int nodes = envNodes();
    if (nodes <= 1)
        return dgx2Platform();
    PlatformSpec platform = multiNodePlatform(nodes, gpus_per_node);
    FabricSpec &fabric = platform.fabric;

    const double bw_gbps = envDouble(
        "PROACT_INTER_BW_GBPS",
        fabric.interPerGpuBidirBandwidth / 1e9, 1.0, 400.0);
    fabric.interPerGpuBidirBandwidth = bw_gbps * 1e9;

    const double latency_us = envDouble(
        "PROACT_INTER_LATENCY_US",
        static_cast<double>(fabric.interLatency)
            / static_cast<double>(ticksPerMicrosecond),
        0.0, 1e6);
    Tick latency = static_cast<Tick>(
        latency_us * static_cast<double>(ticksPerMicrosecond));
    // The network tier is never faster than the chassis tier
    // (FabricSpec::validate rejects such a fabric).
    if (latency < fabric.latency)
        latency = fabric.latency;
    fabric.interLatency = latency;
    return platform;
}

int
envSimShards()
{
    const auto v = static_cast<int>(envInt("PROACT_SIM_SHARDS", 0, 0, 64));
    return v <= 1 ? 0 : v;
}

RetryPolicy
envRetryPolicy()
{
    RetryPolicy policy;
    policy.enabled = envFaultsEnabled();

    policy.maxAttempts = static_cast<int>(envInt(
        "PROACT_RETRY_MAX_ATTEMPTS", policy.maxAttempts, 1, 16));

    // Reroute-aware retry defaults on whenever rerouting itself is
    // on: two lost attempts is exactly the streak that can flip a
    // link to DOWN (the first loss plus downAfterLosses reached while
    // retries overlap), so consulting the rerouter then is cheap and
    // never earlier than the health picture can change.
    if (envRerouteEnabled()) {
        policy.rerouteAfterAttempts = static_cast<int>(
            envInt("PROACT_RETRY_REROUTE_AFTER", 2, 0, 16));
    }
    return policy;
}

} // namespace proact
