#include "workloads/als.hh"

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/graph.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace proact {

namespace {

/**
 * Make the input draws of @p params in their fixed order: the
 * numUsers x rank, then numItems x rank ground-truth factors, then
 * per rating its user, its item and its noise. Stores the factors in
 * @p truth when given, users' rows first, and calls
 * @p rating(user, item, noise) for each rating in draw order.
 */
template <typename OnRating>
void
drawRatings(const AlsWorkload::Params &params, std::vector<float> *truth,
            OnRating &&rating)
{
    Rng rng(params.seed);
    const std::int64_t factors =
        (params.numUsers + params.numItems) * params.rank;
    if (truth != nullptr)
        truth->resize(factors);
    for (std::int64_t n = 0; n < factors; ++n) {
        const auto v = static_cast<float>(rng.uniform());
        if (truth != nullptr)
            (*truth)[n] = v;
    }

    for (std::int64_t r = 0; r < params.numRatings; ++r) {
        const auto u = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(params.numUsers)));
        const auto i = static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(params.numItems)));
        rating(u, i, rng.uniform());
    }
}

} // namespace

void
AlsWorkload::setup(int num_gpus)
{
    if (num_gpus < 1)
        fatalError("AlsWorkload: need at least one GPU");
    _numGpus = num_gpus;

    // Ratings per user and per item, one slot ahead so the prefix
    // sums turn the counts into offsets in place.
    _userOffsets.assign(_params.numUsers + 1, 0);
    _itemOffsets.assign(_params.numItems + 1, 0);
    drawRatings(_params, nullptr,
                [this](std::int64_t u, std::int64_t i, double) {
                    ++_userOffsets[u + 1];
                    ++_itemOffsets[i + 1];
                });
    std::partial_sum(_userOffsets.begin(), _userOffsets.end(),
                     _userOffsets.begin());
    std::partial_sum(_itemOffsets.begin(), _itemOffsets.end(),
                     _itemOffsets.begin());

    // Balance partitions and CTAs by rating counts per side.
    _userBounds = partitionByEdges(_userOffsets, num_gpus);
    _itemBounds = partitionByEdges(_itemOffsets, num_gpus);
    _userCtaBounds =
        balanceCtas(_userOffsets, _userBounds, _params.rowsPerCta);
    _itemCtaBounds =
        balanceCtas(_itemOffsets, _itemBounds, _params.rowsPerCta);

    // A fresh run starts from the seed's initial factors.
    _numeric.reset();
}

AlsWorkload::Numeric &
AlsWorkload::numeric() const
{
    if (_numeric)
        return *_numeric;

    const std::int64_t users = _params.numUsers;
    const std::int64_t items = _params.numItems;
    const std::int64_t nnz = _params.numRatings;
    const int k = _params.rank;

    // Synthetic low-rank ground truth + noise, scattered into the
    // user-major CSR and the item-major CSC in draw order.
    Numeric num;
    num.userItems.resize(nnz);
    num.userRatings.resize(nnz);
    num.itemUsers.resize(nnz);
    num.itemRatings.resize(nnz);
    std::vector<std::int64_t> user_slot(_userOffsets.begin(),
                                        _userOffsets.end() - 1);
    std::vector<std::int64_t> item_slot(_itemOffsets.begin(),
                                        _itemOffsets.end() - 1);
    std::vector<float> truth;
    drawRatings(_params, &truth,
                [&](std::int64_t u, std::int64_t i, double noise) {
                    const float *true_u = &truth[u * k];
                    const float *true_i = &truth[(users + i) * k];
                    double dot = 0.0;
                    for (int d = 0; d < k; ++d)
                        dot += true_u[d] * true_i[d];
                    const auto value = static_cast<float>(
                        dot / k + 0.05 * (noise - 0.5));

                    const std::int64_t by_user = user_slot[u]++;
                    num.userItems[by_user] = static_cast<std::int32_t>(i);
                    num.userRatings[by_user] = value;
                    const std::int64_t by_item = item_slot[i]++;
                    num.itemUsers[by_item] = static_cast<std::int32_t>(u);
                    num.itemRatings[by_item] = value;
                });

    // Small deterministic initial factors.
    num.userFactors.resize(users * k);
    num.itemFactors.resize(items * k);
    Rng init_rng(_params.seed + 1);
    for (auto &v : num.userFactors)
        v = static_cast<float>(0.1 * init_rng.uniform());
    for (auto &v : num.itemFactors)
        v = static_cast<float>(0.1 * init_rng.uniform());

    num.initialRmse = rmseOf(num);
    return _numeric.emplace(std::move(num));
}

std::pair<std::int64_t, std::int64_t>
AlsWorkload::ctaRows(bool user_side, int gpu, int cta) const
{
    const auto &bounds =
        user_side ? _userCtaBounds[gpu] : _itemCtaBounds[gpu];
    return {bounds[cta], bounds[cta + 1]};
}

std::int64_t
AlsWorkload::ratingsInRows(bool user_side, std::int64_t lo,
                           std::int64_t hi) const
{
    const auto &off = user_side ? _userOffsets : _itemOffsets;
    return off[hi] - off[lo];
}

void
AlsWorkload::updateUserCta(int gpu, int cta)
{
    Numeric &num = numeric();
    const auto [lo, hi] = ctaRows(true, gpu, cta);
    const int k = _params.rank;
    const auto lr = static_cast<float>(_params.learningRate);
    const auto reg = static_cast<float>(_params.regularization);

    for (std::int64_t u = lo; u < hi; ++u) {
        float *xu = &num.userFactors[u * k];
        for (std::int64_t r = _userOffsets[u]; r < _userOffsets[u + 1];
             ++r) {
            const float *yi = &num.itemFactors[num.userItems[r] * k];
            float err = num.userRatings[r];
            for (int d = 0; d < k; ++d)
                err -= xu[d] * yi[d];
            for (int d = 0; d < k; ++d)
                xu[d] += lr * (err * yi[d] - reg * xu[d]);
        }
    }
}

void
AlsWorkload::updateItemCta(int gpu, int cta)
{
    Numeric &num = numeric();
    const auto [lo, hi] = ctaRows(false, gpu, cta);
    const int k = _params.rank;
    const auto lr = static_cast<float>(_params.learningRate);
    const auto reg = static_cast<float>(_params.regularization);

    for (std::int64_t i = lo; i < hi; ++i) {
        float *yi = &num.itemFactors[i * k];
        for (std::int64_t r = _itemOffsets[i]; r < _itemOffsets[i + 1];
             ++r) {
            const float *xu = &num.userFactors[num.itemUsers[r] * k];
            float err = num.itemRatings[r];
            for (int d = 0; d < k; ++d)
                err -= xu[d] * yi[d];
            for (int d = 0; d < k; ++d)
                yi[d] += lr * (err * xu[d] - reg * yi[d]);
        }
    }
}

CtaWork
AlsWorkload::ctaFootprint(bool user_side, int gpu, int cta) const
{
    const auto [lo, hi] = ctaRows(user_side, gpu, cta);
    const auto ratings =
        static_cast<double>(ratingsInRows(user_side, lo, hi));
    const int k = _params.rank;

    CtaWork work;
    work.flops = ratings * 6.0 * k;
    // Both factor rows + rating + index per rating, row store once.
    work.localBytes = static_cast<std::uint64_t>(
        ratings * (8.0 * k + 8.0)
        + static_cast<double>(hi - lo) * 4.0 * k);
    return work;
}

Phase
AlsWorkload::buildPhase(int iter)
{
    const bool user_side = (iter % 2) == 0;
    const auto &bounds = user_side ? _userBounds : _itemBounds;
    const int k = _params.rank;

    Phase p;
    p.perGpu.resize(_numGpus);
    const auto &cta_bounds_all =
        user_side ? _userCtaBounds : _itemCtaBounds;

    for (int g = 0; g < _numGpus; ++g) {
        const std::int64_t rows = bounds[g + 1] - bounds[g];
        const int num_ctas = std::max(
            1, static_cast<int>(cta_bounds_all[g].size()) - 1);

        GpuPhaseWork &work = p.perGpu[g];
        work.kernel.name =
            user_side ? "als_update_users" : "als_update_items";
        work.kernel.numCtas = num_ctas;
        work.kernel.body = [this, g, user_side](
                               const CtaContext &ctx) {
            if (ctx.functional) {
                if (user_side)
                    updateUserCta(g, ctx.ctaId);
                else
                    updateItemCta(g, ctx.ctaId);
            }
            return ctaFootprint(user_side, g, ctx.ctaId);
        };
        work.bytesProduced =
            static_cast<std::uint64_t>(rows) * 4 * k;

        const std::vector<std::int64_t> *cta_bounds =
            &cta_bounds_all[g];
        const std::int64_t base = bounds[g];
        const std::uint64_t row_bytes = 4ULL * k;
        work.ctaRange = [cta_bounds, base, row_bytes](int cta) {
            const std::uint64_t lo =
                ((*cta_bounds)[cta] - base) * row_bytes;
            const std::uint64_t hi =
                ((*cta_bounds)[cta + 1] - base) * row_bytes;
            return ByteRange{lo, hi};
        };
    }
    return p;
}

double
AlsWorkload::rmse() const
{
    return rmseOf(numeric());
}

double
AlsWorkload::rmseOf(const Numeric &num) const
{
    const int k = _params.rank;
    double se = 0.0;
    const std::int64_t nnz = _params.numRatings;
    for (std::int64_t u = 0; u < _params.numUsers; ++u) {
        for (std::int64_t r = _userOffsets[u]; r < _userOffsets[u + 1];
             ++r) {
            const float *xu = &num.userFactors[u * k];
            const float *yi = &num.itemFactors[num.userItems[r] * k];
            double pred = 0.0;
            for (int d = 0; d < k; ++d)
                pred += xu[d] * yi[d];
            const double e = num.userRatings[r] - pred;
            se += e * e;
        }
    }
    return std::sqrt(se / static_cast<double>(nnz));
}

bool
AlsWorkload::verify() const
{
    const double final_rmse = rmse();
    return std::isfinite(final_rmse)
        && final_rmse < numeric().initialRmse;
}

} // namespace proact
