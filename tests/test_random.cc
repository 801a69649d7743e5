/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include "sim/random.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

using namespace proact;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean of 10k uniforms is within ~4 sigma of 0.5.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformThresholdMatchesUniformCompare)
{
    // uniform() is k * 2^-53 for k < 2^53. Around each threshold,
    // `k * 2^-53 < p` must agree with `k < uniformThreshold(p)`:
    // dyadic p (the threshold is exact), non-dyadic ones (it is a
    // ceiling), the R-MAT sums, values below 2^-53 and [0, 1]'s ends.
    const double probs[] = {0.0,
                            4.9e-324,
                            0x1.0p-60,
                            0x1.0p-53,
                            0.1,
                            0.125,
                            0.5,
                            0.57,
                            0.57 + 0.19,
                            0.57 + 0.19 + 0.19,
                            0.7 + 0.1 + 0.1,
                            std::nextafter(1.0, 0.0),
                            1.0};
    const std::uint64_t limit = std::uint64_t(1) << 53;
    for (const double p : probs) {
        const std::uint64_t t = uniformThreshold(p);
        ASSERT_LE(t, limit) << "p=" << p;
        for (const std::uint64_t k :
             {t - 2, t - 1, t, t + 1, t + 2, std::uint64_t(0),
              limit - 1}) {
            if (k >= limit)
                continue; // Wrapped below 0 or past the last draw.
            EXPECT_EQ(static_cast<double>(k) * 0x1.0p-53 < p, k < t)
                << "p=" << p << " k=" << k;
        }
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(99);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator)
{
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~std::uint64_t(0));
    Rng rng(1);
    (void)rng();
}
