/**
 * @file
 * Jacobi solver for banded linear systems (paper Sec. IV-C).
 *
 * Solves Ax = b for a diagonally dominant banded matrix by Jacobi
 * iteration: x_new[i] = (b[i] - sum_{j != i} A[i][j] x_old[j]) /
 * A[i][i]. Rows are partitioned contiguously across GPUs; each
 * iteration every GPU produces its slice of x_new (the shared
 * PROACT region) which all peers need next iteration. Writes are
 * dense in increasing address order, so the inline variant coalesces
 * perfectly (the paper picks "I" for Jacobi on Kepler/Pascal).
 */

#ifndef PROACT_WORKLOADS_JACOBI_HH
#define PROACT_WORKLOADS_JACOBI_HH

#include "workloads/workload.hh"

#include <cstdint>
#include <optional>
#include <vector>

namespace proact {

/** Banded-matrix Jacobi workload. */
class JacobiWorkload : public Workload
{
  public:
    struct Params
    {
        std::int64_t numUnknowns = 1 << 20;
        int halfBand = 24;      ///< Off-diagonals per side (FEM-like band).
        int iterations = 12;
        int rowsPerCta = 256;
        std::uint64_t seed = 11;
    };

    JacobiWorkload() : JacobiWorkload(Params{}) {}
    explicit JacobiWorkload(Params params) : _params(params) {}

    std::string name() const override { return "Jacobi"; }
    void setup(int num_gpus) override;
    int numIterations() const override { return _params.iterations; }
    Phase buildPhase(int iter) override;

    TrafficProfile
    traffic() const override
    {
        // Dense, address-ordered stores: excellent SM coalescing.
        return TrafficProfile{256, true};
    }

    bool verify() const override;

    /** Relative residual ||Ax - b|| / ||b|| of the current iterate. */
    double relativeResidual() const;

    /**
     * Whether the band, right-hand side and iterates exist. setup()
     * computes only the row partition the footprints read; the
     * numeric state is built from the seed on first functional use
     * (a functional CTA, relativeResidual() or verify()), so
     * timing-only runs never allocate the band.
     */
    bool numericStateBuilt() const { return _numeric.has_value(); }

  private:
    /** The system and its iterates. */
    struct Numeric
    {
        /** Band coefficients, row-major: row i at [i * bandWidth()]. */
        std::vector<double> band;
        std::vector<double> rhs;
        std::vector<double> xOld;
        std::vector<double> xNew;
        double initialResidual = 0.0;
    };

    Params _params;

    /** Built by numeric(), which const accessors call too. */
    mutable std::optional<Numeric> _numeric;

    std::vector<std::int64_t> _bounds; ///< Row partition boundaries.

    int bandWidth() const { return 2 * _params.halfBand + 1; }

    /** The numeric state, built on the first call after setup(). */
    Numeric &numeric() const;
    double residualOf(const Numeric &num) const;
    double rowUpdate(const Numeric &num, std::int64_t row) const;
    void computeCta(int gpu, int cta);
    CtaWork ctaFootprint(int gpu, int cta) const;
};

} // namespace proact

#endif // PROACT_WORKLOADS_JACOBI_HH
