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

#include "faults/retry.hh"
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

/** Chassis count from PROACT_NODES (default 1, clamped to [1, 64]). */
int envNodes();

/**
 * Environment-selected platform: one DGX-2 when PROACT_NODES is
 * unset or 1, otherwise multiNodePlatform(envNodes(), gpus_per_node).
 * The network tier's bandwidth and latency are FabricSpec fields.
 */
PlatformSpec envMultiNodePlatform(int gpus_per_node = 16);

/**
 * Workload scale shift from PROACT_SCALE_SHIFT (default 0, clamped
 * to [0, 8]); makeWorkload shrinks every dimension by 2^shift.
 */
int envScaleShift();

} // namespace proact

#endif // PROACT_PROACT_CONFIG_HH
