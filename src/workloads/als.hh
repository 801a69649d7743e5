/**
 * @file
 * Alternating Least Squares via SGD (paper Sec. IV-C).
 *
 * Matrix factorization for recommenders: R ~= X Y^T with rank-k
 * factors. Following the paper, each iteration fixes one side and
 * updates the other by stochastic gradient descent over the known
 * ratings: even iterations update user factors (partitioned across
 * GPUs by user), odd iterations update item factors (partitioned by
 * item). The updated factor matrix is the PROACT region each
 * iteration. Factor rows are updated in rating order, so remote
 * stores coalesce poorly — this is the workload where the paper
 * measures 26x more inline store transactions than decoupled
 * transfers (Sec. V-B).
 */

#ifndef PROACT_WORKLOADS_ALS_HH
#define PROACT_WORKLOADS_ALS_HH

#include "workloads/workload.hh"

#include <cstdint>
#include <optional>
#include <vector>

namespace proact {

/** SGD-based alternating matrix factorization. */
class AlsWorkload : public Workload
{
  public:
    struct Params
    {
        std::int64_t numUsers = 1 << 16;
        std::int64_t numItems = 1 << 16;
        std::int64_t numRatings = 1 << 21;
        int rank = 8;
        double learningRate = 0.05;
        double regularization = 0.02;
        int iterations = 8;
        int rowsPerCta = 128;
        std::uint64_t seed = 1234;
    };

    AlsWorkload() : AlsWorkload(Params{}) {}
    explicit AlsWorkload(Params params) : _params(params) {}

    std::string name() const override { return "ALS"; }
    void setup(int num_gpus) override;
    int numIterations() const override { return _params.iterations; }
    Phase buildPhase(int iter) override;

    TrafficProfile
    traffic() const override
    {
        // Factor-row elements update in rating order: poor wire
        // coalescing (the paper's 26x store-transaction blowup).
        return TrafficProfile{8, false};
    }

    bool verify() const override;

    /**
     * Root-mean-square error over the known ratings; builds the
     * numeric state.
     */
    double rmse() const;

    /** Ratings per user as CSR row offsets, valid after setup(). */
    const std::vector<std::int64_t> &
    userOffsets() const
    {
        return _userOffsets;
    }

    /** Ratings per item as CSC column offsets, valid after setup(). */
    const std::vector<std::int64_t> &
    itemOffsets() const
    {
        return _itemOffsets;
    }

    /**
     * Whether the ratings, the factors and the initial RMSE exist.
     * setup() makes every input draw but keeps only the ratings per
     * user and per item the footprints read; the rest is drawn again
     * and built on first functional use (a functional CTA, rmse() or
     * verify()), so timing-only runs never allocate it.
     */
    bool numericStateBuilt() const { return _numeric.has_value(); }

  private:
    /** The ratings and the factors. */
    struct Numeric
    {
        /** Rating items and values per user, in CSR order. */
        std::vector<std::int32_t> userItems;
        std::vector<float> userRatings;
        /** Rating users and values per item, in CSC order. */
        std::vector<std::int32_t> itemUsers;
        std::vector<float> itemRatings;

        std::vector<float> userFactors; ///< numUsers x rank.
        std::vector<float> itemFactors; ///< numItems x rank.
        double initialRmse = 0.0;
    };

    Params _params;

    std::vector<std::int64_t> _userOffsets;
    std::vector<std::int64_t> _itemOffsets;

    /** Built by numeric(), which const accessors call too. */
    mutable std::optional<Numeric> _numeric;

    std::vector<std::int64_t> _userBounds;
    std::vector<std::int64_t> _itemBounds;

    /** Rating-balanced CTA boundaries per GPU, per side. */
    std::vector<std::vector<std::int64_t>> _userCtaBounds;
    std::vector<std::vector<std::int64_t>> _itemCtaBounds;

    /** The numeric state, built on the first call after setup(). */
    Numeric &numeric() const;
    double rmseOf(const Numeric &num) const;
    void updateUserCta(int gpu, int cta);
    void updateItemCta(int gpu, int cta);
    CtaWork ctaFootprint(bool user_side, int gpu, int cta) const;
    std::pair<std::int64_t, std::int64_t>
    ctaRows(bool user_side, int gpu, int cta) const;
    std::int64_t ratingsInRows(bool user_side, std::int64_t lo,
                               std::int64_t hi) const;
};

} // namespace proact

#endif // PROACT_WORKLOADS_ALS_HH
