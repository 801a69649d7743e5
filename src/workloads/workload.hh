/**
 * @file
 * Workload contract shared by every communication paradigm.
 *
 * A workload runs as a sequence of bulk-synchronous iterations. In
 * each iteration every GPU executes one producer kernel that writes
 * its partition of a shared, replicated data structure (the paper's
 * PROACT-enabled region); the next iteration may only start on a GPU
 * once every peer partition has arrived. Kernels perform the actual
 * computation on host-backed arrays — results are numerically
 * verifiable and identical under every paradigm — while the declared
 * footprints (bytes produced, per-CTA write ranges, effective inline
 * store granularity) drive the timing models.
 *
 * The paper requires applications to issue a deterministic number of
 * stores (Sec. III-B); correspondingly, footprints here are static
 * functions of the iteration structure, never of the evolving data.
 */

#ifndef PROACT_WORKLOADS_WORKLOAD_HH
#define PROACT_WORKLOADS_WORKLOAD_HH

#include "gpu/kernel.hh"
#include "sim/types.hh"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace proact {

/** Byte range [lo, hi) within a GPU's partition of the region. */
struct ByteRange
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    std::uint64_t size() const { return hi - lo; }
    bool empty() const { return hi <= lo; }
};

/**
 * Communication character of a workload, used by the inline-store
 * coalescing model and the UM driver.
 */
struct TrafficProfile
{
    /**
     * Effective per-write payload once the SM's write-coalescer has
     * done what it can: >=128 B for dense address-ordered producers
     * (Jacobi, X-ray CT), as low as 4-8 B for random update orders
     * (PageRank, SSSP, ALS). Drives paper Figs. 1(c)/2 behaviour.
     */
    std::uint32_t inlineStoreBytes = 256;

    /** Consumers touch remote data in address order (UM model). */
    bool sequentialAccess = true;
};

/**
 * One PROACT-enabled region a kernel produces (Listing 1's
 * u_proact_ds.region1, region2, ...).
 */
struct RegionOutput
{
    /** Bytes of this region the GPU produces this iteration. */
    std::uint64_t bytesProduced = 0;

    /**
     * Contiguous byte range of the GPU's partition written by each
     * CTA. Ranges of distinct CTAs may overlap chunk boundaries but
     * must tile [0, bytesProduced) exactly across all CTAs.
     */
    std::function<ByteRange(int cta)> ctaRange;
};

/** One GPU's work within one iteration. */
struct GpuPhaseWork
{
    /** Producer kernel (functional body + footprint reporting). */
    KernelDesc kernel;

    /** @{ @name Primary region (the common single-region case) */
    std::uint64_t bytesProduced = 0;
    std::function<ByteRange(int cta)> ctaRange;
    /** @} */

    /**
     * Additional PROACT-enabled regions the same kernel produces
     * (a kernel is "often both the producer of some data and a
     * consumer of other data", paper Sec. II-B). Each is tracked
     * with its own readiness counters and pushed independently.
     */
    std::vector<RegionOutput> extraOutputs;

    /** All region outputs, primary first (empty primaries skipped). */
    std::vector<RegionOutput>
    allOutputs() const
    {
        std::vector<RegionOutput> outputs;
        if (bytesProduced > 0)
            outputs.push_back(RegionOutput{bytesProduced, ctaRange});
        for (const auto &extra : extraOutputs) {
            if (extra.bytesProduced > 0)
                outputs.push_back(extra);
        }
        return outputs;
    }

    /** Bytes produced across every region. */
    std::uint64_t
    totalBytesProduced() const
    {
        std::uint64_t total = bytesProduced;
        for (const auto &extra : extraOutputs)
            total += extra.bytesProduced;
        return total;
    }
};

/** One bulk-synchronous iteration across the whole system. */
struct Phase
{
    std::vector<GpuPhaseWork> perGpu;
};

/**
 * Abstract multi-GPU workload.
 *
 * Lifecycle: setup(numGpus) once; then for iter in [0, numIterations)
 * the driver requests phase(iter) and executes it under some
 * paradigm; finally verify() checks numerical correctness.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Prepare a run on @p num_gpus GPUs. Everything the footprints
     * read is ready afterwards: the partition and whatever it was
     * balanced by (Pagerank's and SSSP's in-edge offsets, ALS's
     * ratings per user and per item). Every app builds the state
     * only the math reads (matrices, images, graphs, ratings,
     * iterates) on first functional use instead, so timing-only runs
     * never pay for it, and drops it here, so each set-up starts a
     * fresh run. A functional run after any number of timing-only
     * runs computes the same bits as one right after setup().
     */
    virtual void setup(int num_gpus) = 0;

    /** Bulk-synchronous iterations in one run. */
    virtual int numIterations() const = 0;

    /**
     * Iteration @p iter's kernels and footprints, with the footprint
     * scale applied (see setFootprintScale()).
     */
    Phase phase(int iter);

    /** Communication character (constant per workload). */
    virtual TrafficProfile traffic() const = 0;

    /**
     * Numerical correctness check after a functional run.
     * @return true when the computed solution matches the reference.
     */
    virtual bool verify() const = 0;

    /** Number of GPUs the workload was set up for. */
    int numGpus() const { return _numGpus; }

    /**
     * Simulate an instance @p factor times larger than the functional
     * one: every declared footprint (flops, local bytes, produced
     * bytes, CTA write ranges) is multiplied by the factor while the
     * verifiable math runs at the original size. All timing
     * quantities are linear in the instance size, so this is exactly
     * equivalent to simulating the larger problem with
     * proportionally coarser CTAs. Benchmarks use it to reach the
     * paper's multi-second application scales without multi-second
     * host compute.
     */
    void setFootprintScale(std::uint64_t factor);
    std::uint64_t footprintScale() const { return _footprintScale; }

  protected:
    /** Build iteration @p iter at the functional (unscaled) size. */
    virtual Phase buildPhase(int iter) = 0;

    int _numGpus = 0;

  private:
    std::uint64_t _footprintScale = 1;
};

/**
 * Abstract execution paradigm (cudaMemcpy, UM, PROACT variants,
 * infinite-BW limit): runs a workload on a system and reports the
 * simulated makespan.
 */
class Runtime
{
  public:
    virtual ~Runtime() = default;

    /** Execute every iteration; returns total simulated ticks. */
    virtual Tick run(Workload &workload) = 0;

    virtual std::string name() const = 0;
};

} // namespace proact

#endif // PROACT_WORKLOADS_WORKLOAD_HH
