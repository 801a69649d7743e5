#include "workloads/mbir.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace proact {

void
MbirWorkload::setup(int num_gpus)
{
    if (num_gpus < 1)
        fatalError("MbirWorkload: need at least one GPU");
    _numGpus = num_gpus;

    const std::int64_t n = _params.numPixels;
    _bounds.resize(num_gpus + 1);
    for (int p = 0; p <= num_gpus; ++p)
        _bounds[p] = n * p / num_gpus;

    // A fresh run starts from the seed's image and a zero iterate.
    _numeric.reset();
}

MbirWorkload::Numeric &
MbirWorkload::numeric() const
{
    if (_numeric)
        return *_numeric;

    const std::int64_t n = _params.numPixels;
    const int hb = _params.halfBand;
    const int bw = bandWidth();

    // Normalized Gaussian projection footprint: row sums of A are 1,
    // so ||A||_2 <= 1 and Landweber converges for alpha in (0, 2).
    Numeric num;
    num.weights.resize(bw);
    double wsum = 0.0;
    for (int k = 0; k < bw; ++k) {
        const double d = k - hb;
        num.weights[k] = std::exp(-d * d / (2.0 * hb * hb / 4.0 + 1.0));
        wsum += num.weights[k];
    }
    for (auto &w : num.weights)
        w /= wsum;

    // Piecewise-smooth ground-truth image.
    Rng rng(_params.seed);
    num.truth.assign(n, 0.0);
    double level = rng.uniform();
    for (std::int64_t i = 0; i < n; ++i) {
        if (rng.below(4096) == 0)
            level = rng.uniform();
        num.truth[i] = level;
    }

    num.sino.resize(n);
    for (std::int64_t j = 0; j < n; ++j)
        num.sino[j] = project(num.weights, num.truth, j);

    num.xOld.assign(n, 0.0);
    num.xNew.assign(n, 0.0);
    num.initialError = errorOf(num);
    return _numeric.emplace(std::move(num));
}

double
MbirWorkload::project(const std::vector<double> &weights,
                      const std::vector<double> &img,
                      std::int64_t j) const
{
    const int hb = _params.halfBand;
    const std::int64_t n = _params.numPixels;
    double acc = 0.0;
    for (int k = 0; k < bandWidth(); ++k) {
        const std::int64_t i = j + k - hb;
        if (i < 0 || i >= n)
            continue;
        acc += weights[k] * img[i];
    }
    return acc;
}

void
MbirWorkload::computeCta(int gpu, int cta)
{
    Numeric &num = numeric();
    const std::int64_t lo = _bounds[gpu]
        + static_cast<std::int64_t>(cta) * _params.pixelsPerCta;
    const std::int64_t hi =
        std::min<std::int64_t>(lo + _params.pixelsPerCta,
                               _bounds[gpu + 1]);
    const int hb = _params.halfBand;
    const std::int64_t n = _params.numPixels;

    // Residuals needed by pixels [lo, hi): r_j for j in
    // [lo - hb, hi + hb).
    const std::int64_t rlo = std::max<std::int64_t>(0, lo - hb);
    const std::int64_t rhi = std::min<std::int64_t>(n, hi + hb);
    std::vector<double> residual(rhi - rlo);
    for (std::int64_t j = rlo; j < rhi; ++j) {
        residual[j - rlo] =
            num.sino[j] - project(num.weights, num.xOld, j);
    }

    // Back-project: x_new[i] = x[i] + alpha * sum_j a_ji r_j.
    for (std::int64_t i = lo; i < hi; ++i) {
        double acc = 0.0;
        for (int k = 0; k < bandWidth(); ++k) {
            const std::int64_t j = i + hb - k;
            if (j < rlo || j >= rhi)
                continue;
            acc += num.weights[k] * residual[j - rlo];
        }
        num.xNew[i] = num.xOld[i] + _params.stepSize * acc;
    }
}

CtaWork
MbirWorkload::ctaFootprint(int gpu, int cta) const
{
    const std::int64_t lo = _bounds[gpu]
        + static_cast<std::int64_t>(cta) * _params.pixelsPerCta;
    const std::int64_t hi =
        std::min<std::int64_t>(lo + _params.pixelsPerCta,
                               _bounds[gpu + 1]);
    const auto pixels = static_cast<double>(std::max<std::int64_t>(
        0, hi - lo));
    const double bw = bandWidth();

    CtaWork work;
    // Forward + back projection, ~2*bw MACs each per pixel.
    work.flops = pixels * 4.0 * bw;
    // x window + sinogram window reads + image store.
    work.localBytes =
        static_cast<std::uint64_t>(pixels * (2.0 * bw * 8.0 + 24.0));
    return work;
}

Phase
MbirWorkload::buildPhase(int iter)
{
    Phase p;
    p.perGpu.resize(_numGpus);

    // Both iterates are zero until a functional CTA writes one, so
    // skipping the swap while they do not exist yet changes nothing.
    if (iter > 0 && _numeric)
        std::swap(_numeric->xOld, _numeric->xNew);

    for (int g = 0; g < _numGpus; ++g) {
        const std::int64_t pixels = _bounds[g + 1] - _bounds[g];
        const int num_ctas = static_cast<int>(std::max<std::int64_t>(
            1, (pixels + _params.pixelsPerCta - 1)
                   / _params.pixelsPerCta));

        GpuPhaseWork &work = p.perGpu[g];
        work.kernel.name = "mbir_landweber";
        work.kernel.numCtas = num_ctas;
        work.kernel.body = [this, g](const CtaContext &ctx) {
            if (ctx.functional)
                computeCta(g, ctx.ctaId);
            return ctaFootprint(g, ctx.ctaId);
        };
        work.bytesProduced = static_cast<std::uint64_t>(pixels) * 8;

        const std::int64_t per_cta = _params.pixelsPerCta;
        work.ctaRange = [pixels, per_cta](int cta) {
            const std::uint64_t lo = static_cast<std::uint64_t>(cta)
                * per_cta * 8;
            const std::uint64_t hi = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(pixels) * 8,
                lo + per_cta * 8);
            return ByteRange{lo, std::max(lo, hi)};
        };
    }
    return p;
}

double
MbirWorkload::relativeResidual() const
{
    const Numeric &num = numeric();
    double res2 = 0.0, y2 = 0.0;
    for (std::int64_t j = 0; j < _params.numPixels; ++j) {
        const double r = num.sino[j] - project(num.weights, num.xNew, j);
        res2 += r * r;
        y2 += num.sino[j] * num.sino[j];
    }
    return y2 > 0.0 ? std::sqrt(res2 / y2) : 0.0;
}

double
MbirWorkload::reconstructionError() const
{
    return errorOf(numeric());
}

double
MbirWorkload::errorOf(const Numeric &num) const
{
    double e2 = 0.0, t2 = 0.0;
    for (std::int64_t i = 0; i < _params.numPixels; ++i) {
        const double e = num.xNew[i] - num.truth[i];
        e2 += e * e;
        t2 += num.truth[i] * num.truth[i];
    }
    return t2 > 0.0 ? std::sqrt(e2 / t2) : 0.0;
}

bool
MbirWorkload::verify() const
{
    const double err = reconstructionError();
    const double res = relativeResidual();
    return std::isfinite(err) && std::isfinite(res)
        && err < numeric().initialError && res < 0.5;
}

} // namespace proact
