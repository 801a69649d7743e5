/**
 * @file
 * Model-Based Iterative Reconstruction for X-ray CT
 * (paper Sec. IV-C).
 *
 * A simplified stand-in for the GE Veo-class MBIR system the paper
 * studies (see DESIGN.md): we reconstruct an image x from
 * measurements y = A x_true, where A is a shift-invariant banded
 * projection operator (normalized Gaussian footprint), by Landweber
 * iteration x <- x + alpha * A^T (y - A x). The image is partitioned
 * contiguously across GPUs; each iteration every GPU produces its
 * image slice — dense, address-ordered writes with excellent
 * coalescing, which is why the paper's profiler selects
 * PROACT-inline for X-ray CT on Pascal/Volta.
 */

#ifndef PROACT_WORKLOADS_MBIR_HH
#define PROACT_WORKLOADS_MBIR_HH

#include "workloads/workload.hh"

#include <cstdint>
#include <optional>
#include <vector>

namespace proact {

/** Banded-operator MBIR (Landweber) reconstruction. */
class MbirWorkload : public Workload
{
  public:
    struct Params
    {
        std::int64_t numPixels = 1 << 19;
        int halfBand = 32;      ///< Projection footprint per side.
        double stepSize = 0.5;  ///< Landweber alpha (A normalized).
        int iterations = 12;
        int pixelsPerCta = 256;
        std::uint64_t seed = 5150;
    };

    MbirWorkload() : MbirWorkload(Params{}) {}
    explicit MbirWorkload(Params params) : _params(params) {}

    std::string name() const override { return "X-ray CT"; }
    void setup(int num_gpus) override;
    int numIterations() const override { return _params.iterations; }
    Phase buildPhase(int iter) override;

    TrafficProfile
    traffic() const override
    {
        // Dense in increasing address order (paper Sec. V-B).
        return TrafficProfile{256, true};
    }

    bool verify() const override;

    /** ||A x - y|| relative to ||y|| for the current iterate. */
    double relativeResidual() const;

    /** Relative reconstruction error vs. the ground-truth image. */
    double reconstructionError() const;

    /**
     * Whether the projection kernel, image, sinogram and iterates
     * exist. setup() computes only the pixel partition the
     * footprints read; the numeric state is built from the seed on
     * first functional use (a functional CTA, relativeResidual(),
     * reconstructionError() or verify()), so timing-only runs never
     * allocate it.
     */
    bool numericStateBuilt() const { return _numeric.has_value(); }

  private:
    /** The reconstruction problem and its iterates. */
    struct Numeric
    {
        std::vector<double> weights; ///< Normalized projection kernel.
        std::vector<double> truth;
        std::vector<double> sino;    ///< Measurements y = A truth.
        std::vector<double> xOld;
        std::vector<double> xNew;
        double initialError = 0.0;
    };

    Params _params;

    /** Built by numeric(), which const accessors call too. */
    mutable std::optional<Numeric> _numeric;

    std::vector<std::int64_t> _bounds;

    int bandWidth() const { return 2 * _params.halfBand + 1; }

    /** The numeric state, built on the first call after setup(). */
    Numeric &numeric() const;
    double errorOf(const Numeric &num) const;
    double project(const std::vector<double> &weights,
                   const std::vector<double> &img,
                   std::int64_t j) const;
    void computeCta(int gpu, int cta);
    CtaWork ctaFootprint(int gpu, int cta) const;
};

} // namespace proact

#endif // PROACT_WORKLOADS_MBIR_HH
