/**
 * @file
 * PROACT transfer configuration (the profiler's search space).
 *
 * A configuration is the triple the paper's Table II reports per
 * application and platform: transfer scheme (inline vs. decoupled),
 * decoupled mechanism (polling vs. CDP vs. future hardware), transfer
 * granularity, and transfer thread count.
 */

#ifndef PROACT_PROACT_CONFIG_HH
#define PROACT_PROACT_CONFIG_HH

#include "faults/fault_plan.hh"
#include "faults/retry.hh"
#include "health/device_health.hh"
#include "health/link_health.hh"
#include "sim/types.hh"
#include "system/platform.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace proact {

/** How ready chunks travel to peer GPUs (paper Sec. III-C). */
enum class TransferMechanism
{
    /** P2P stores issued directly from producer threads. */
    Inline,

    /** Persistent warp-specialized kernel polling readiness bitmaps. */
    Polling,

    /** CUDA Dynamic Parallelism child kernel per ready chunk. */
    Cdp,

    /** Proposed hardware agent (Sec. III-D): counters and transfer
     * triggering in dedicated hardware, no SM overhead. */
    Hardware,
};

std::string mechanismName(TransferMechanism mechanism);

/** Short Table II-style code: I, Poll, CDP, HW. */
std::string mechanismCode(TransferMechanism mechanism);

/** One point in the profiler's configuration space. */
struct TransferConfig
{
    TransferMechanism mechanism = TransferMechanism::Cdp;

    /** Decoupled transfer granularity (paper range: 4 kB - 16 MB). */
    std::uint64_t chunkBytes = 64 * KiB;

    /** Transfer threads (paper range: 32 - 8192). */
    std::uint32_t transferThreads = 256;

    /**
     * Delivery acknowledgement / retry policy for the push traffic.
     * Disabled by default (a fault-free fabric needs none); must be
     * enabled when the system has a FaultPlan installed.
     */
    RetryPolicy retry;

    /** Table II-style rendering, e.g. "D 128kB 2048 Poll" or "I". */
    std::string toString() const;

    bool decoupled() const
    {
        return mechanism != TransferMechanism::Inline;
    }
};

/**
 * Iteration-boundary checkpointing. Region boundaries are the only
 * points where no chunk is mid-flight (the paper's sys-scope release
 * flushes all PROACT buffers there), so a checkpoint taken at one is
 * consistent by construction — the runtime models it as a fixed cost
 * charged to the simulated timeline every @c interval iterations.
 * After a device loss, a job restarts from the latest checkpointed
 * iteration (ProactRuntime::Options::firstIteration) instead of from
 * zero.
 */
struct CheckpointPolicy
{
    bool enabled = false;

    /** Iterations between checkpoints (>= 1). */
    int interval = 1;

    /** Simulated cost of writing one checkpoint. */
    Tick cost = 50 * ticksPerMicrosecond;
};

/** Human-readable byte size (4kB, 1MB, ...). */
std::string formatBytes(std::uint64_t bytes);

/** Paper's studied chunk-granularity sweep: 4 kB ... 16 MB. */
std::vector<std::uint64_t> chunkSizeSweep();

/** Paper's studied transfer-thread sweep: 32 ... 8192. */
std::vector<std::uint32_t> threadCountSweep();

/**
 * Integer knob @p name from the environment: @p fallback when it is
 * unset, empty or does not start with a number, otherwise the value
 * clamped to [lo, hi] (a number too large to parse clamps too).
 */
std::int64_t envInt(const char *name, std::int64_t fallback,
                    std::int64_t lo, std::int64_t hi);

/** @{ @name Environment-variable fault knobs
 *
 * Benchmarks enable fault injection without recompiling:
 *  - PROACT_FAULTS=1            master switch (0/unset = off)
 *  - PROACT_FAULT_DROP_RATE     delivery-loss probability
 *                               (default 0.01, clamped to [0, 1])
 *  - PROACT_FAULT_DEGRADE       fabric bandwidth fraction removed for
 *                               the whole run (default 0, clamp
 *                               [0, 0.95]; 0 = no degradation window)
 *  - PROACT_FAULT_SEED          drop-decision seed (default 1)
 *  - PROACT_RETRY_MAX_ATTEMPTS  retry budget before the reliable
 *                               fallback (default 5, clamp [1, 16])
 *  - PROACT_RETRY_REROUTE_AFTER lost attempts before a retrying
 *                               transfer consults the rerouter for an
 *                               alternate route (default 2 when
 *                               rerouting is on, clamp [0, 16];
 *                               0 = never re-plan mid-retry)
 *
 * Fault-adaptive runtime knobs (each defaults to on whenever
 * PROACT_FAULTS is on; set to 0 to ablate one layer):
 *  - PROACT_HEALTH=0/1          per-link health monitoring
 *  - PROACT_REROUTE=0/1         detours/splits around unhealthy links
 *                               (implies health monitoring)
 *  - PROACT_REPROFILE=0/1       re-profile + config hot-swap at
 *                               iteration boundaries on link-state
 *                               changes (implies health monitoring)
 *
 * Health-classification thresholds (read by envHealthPolicy when the
 * monitor is enabled from the environment):
 *  - PROACT_HEALTH_CONGEST_RATIO enter CONGESTED when the EWMA of
 *                               queueing delay over expected service
 *                               time exceeds this (default 2.0,
 *                               clamp [0.1, 1000])
 *  - PROACT_HEALTH_CLEAR_RATIO  leave CONGESTED below this (default
 *                               0.75, clamped under the enter
 *                               threshold to preserve hysteresis)
 *  - PROACT_HEALTH_HOLDOFF_US   minimum microseconds between state
 *                               changes of one link, DOWN exempt
 *                               (default 0 = off, clamp [0, 1e6])
 */

/** Whether PROACT_FAULTS enables fault injection. */
bool envFaultsEnabled();

/**
 * Fault schedule from the environment: empty when disabled, else a
 * whole-run delivery-drop episode (and, with PROACT_FAULT_DEGRADE, a
 * whole-run bandwidth-degradation episode), seeded by
 * PROACT_FAULT_SEED.
 */
FaultPlan envFaultPlan();

/**
 * Retry policy matching envFaultPlan(): enabled iff faults are, with
 * the PROACT_RETRY_MAX_ATTEMPTS budget applied.
 */
RetryPolicy envRetryPolicy();

/** Whether link health monitoring is enabled (PROACT_HEALTH). */
bool envHealthEnabled();

/** Whether fault-adaptive rerouting is enabled (PROACT_REROUTE). */
bool envRerouteEnabled();

/** Whether adaptive re-profiling is enabled (PROACT_REPROFILE). */
bool envReprofileEnabled();

/**
 * Monitor thresholds from the environment: library defaults with the
 * PROACT_HEALTH_CONGEST_RATIO / PROACT_HEALTH_CLEAR_RATIO /
 * PROACT_HEALTH_HOLDOFF_US overrides applied (and the congestion
 * hysteresis gap re-established if the overrides inverted it).
 */
HealthPolicy envHealthPolicy();
/** @} */

/** @{ @name Device-loss tolerance knobs
 *
 * All default OFF so existing golden timings are untouched:
 *  - PROACT_CHECKPOINT=1              iteration-boundary checkpoints
 *  - PROACT_CHECKPOINT_INTERVAL       iterations between checkpoints
 *                                     (default 1, clamp [1, 1e6])
 *  - PROACT_CHECKPOINT_COST_US        simulated microseconds per
 *                                     checkpoint (default 50, clamp
 *                                     [0, 1e9])
 *  - PROACT_DEVICE_HEALTH=1           device heartbeat watchdog
 *  - PROACT_DEVICE_HEALTH_INTERVAL_US heartbeat period (default 5,
 *                                     clamp [1, 1e6])
 *  - PROACT_DEVICE_HEALTH_SUSPECT_MISSES consecutive missed beats
 *                                     before SUSPECT (default 1)
 *  - PROACT_DEVICE_HEALTH_LOST_MISSES consecutive missed beats before
 *                                     LOST (default 3)
 *  - PROACT_REPROFILE_CHARGE=1        charge the adaptive reprofiler's
 *                                     narrowed sweeps (and the fleet
 *                                     elector's cache-miss sweeps) to
 *                                     the simulated timeline
 */

/** Whether PROACT_CHECKPOINT enables checkpointing. */
bool envCheckpointEnabled();

/** Checkpoint policy from the environment (enabled iff
 * envCheckpointEnabled()). */
CheckpointPolicy envCheckpointPolicy();

/** Whether PROACT_DEVICE_HEALTH enables the device watchdog. */
bool envDeviceHealthEnabled();

/** Watchdog thresholds from the environment. */
DeviceHealthPolicy envDeviceHealthPolicy();

/** Whether PROACT_REPROFILE_CHARGE charges online sweeps. */
bool envReprofileChargeEnabled();
/** @} */

/** @{ @name Multi-node fabric knobs
 *
 * Benchmarks scale from one DGX-2 chassis to a hierarchical N-node
 * fabric without recompiling:
 *  - PROACT_NODES            chassis count for environment-built
 *                            platforms (default 1 = one DGX-2,
 *                            clamp [1, 64])
 *  - PROACT_INTER_BW_GBPS    per-GPU bidirectional network-tier
 *                            bandwidth in GB/s (default 12.5, clamp
 *                            [1, 400])
 *  - PROACT_INTER_LATENCY_US network-tier one-way latency in
 *                            microseconds (default 2.5; clamped up
 *                            to the intra-node latency)
 */

/** Node count from PROACT_NODES. */
int envNodes();

/**
 * Environment-selected platform: one DGX-2 when PROACT_NODES is
 * unset or 1, otherwise multiNodePlatform(envNodes(), gpus_per_node)
 * with the PROACT_INTER_* network-tier overrides applied.
 */
PlatformSpec envMultiNodePlatform(int gpus_per_node = 16);
/** @} */

/**
 * Profiler sweep workers requested by PROACT_SIM_SHARDS (0/unset/1 =
 * serial, clamped to [0, 64]). Workers measure whole candidate
 * simulations in parallel; each simulation runs on one event queue.
 */
int envSimShards();

} // namespace proact

#endif // PROACT_PROACT_CONFIG_HH
