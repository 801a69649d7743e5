/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generators (R-MAT graphs, SGD sampling) must be
 * reproducible across runs and platforms, so we use an explicit
 * SplitMix64/xoshiro256** stack instead of std::default_random_engine
 * (whose algorithm is implementation-defined).
 */

#ifndef PROACT_SIM_RANDOM_HH
#define PROACT_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace proact {

/**
 * xoshiro256** generator seeded via SplitMix64.
 *
 * Satisfies UniformRandomBitGenerator, so it also plugs into
 * <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 expansion of the seed into the xoshiro state.
        std::uint64_t x = seed;
        for (auto &s : _state) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            s = z ^ (z >> 31);
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;
        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded sampling.
        __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = (-bound) % bound;
            while (lo < threshold) {
                m = static_cast<__uint128_t>((*this)()) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t _state[4];
};

/**
 * Integer form of a Rng::uniform() comparison. uniform() returns
 * k * 2^-53 for the top 53 bits k of one draw, so for any @p p in
 * [0, 1] the test `uniform() < p` holds exactly when
 * `(rng() >> 11) < uniformThreshold(p)`: scaling by 2^53 is exact,
 * and an integer is below a real number iff it is below its ceiling.
 * Hot loops use it to compare integers while consuming the same
 * draws. @p p must be finite and in [0, 1].
 */
inline std::uint64_t
uniformThreshold(double p)
{
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/**
 * Derive an independent per-stream seed from a campaign seed and a
 * stable stream index (SplitMix64 finalizer over the mixed pair).
 *
 * Seeded campaigns should give every case/link/worker its own stream
 * via deriveSeed(campaign, index) instead of consuming draws from one
 * shared generator in iteration order: appending a new case then
 * leaves every existing stream — and its golden replay — untouched.
 */
constexpr std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z =
        seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace proact

#endif // PROACT_SIM_RANDOM_HH
