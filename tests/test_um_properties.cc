/**
 * @file
 * Parameterized property tests for the Unified Memory subsystem:
 * page accounting must be exact for any page size, repeated accesses
 * must be idempotent, and fault-path costs must order sensibly.
 */

#include "memory/um_driver.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

using namespace proact;

class PageTableProperty
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PageTableProperty, MissingPlusResidentCoversRange)
{
    const std::uint32_t page = GetParam();
    const std::uint64_t region = 64ull * page + page / 2;
    PageTable pt(3, region, page);

    // Make a stripe resident on gpu 0.
    pt.writeRangeBy(0, 2 * page, 5 * page);
    const std::uint64_t total_pages = pt.numPages();
    const std::uint64_t missing0 = pt.missingPages(0, 0, region);
    const std::uint64_t missing1 = pt.missingPages(1, 0, region);
    EXPECT_EQ(missing0, total_pages - 5);
    EXPECT_EQ(missing1, total_pages);

    // Residency is per page, never fractional.
    std::uint64_t resident = 0;
    for (std::uint64_t p = 0; p < total_pages; ++p)
        resident += pt.isResident(0, p) ? 1 : 0;
    EXPECT_EQ(resident + missing0, total_pages);
}

TEST_P(PageTableProperty, WriteInvalidationIsExact)
{
    const std::uint32_t page = GetParam();
    PageTable pt(4, 64 * page, page);
    for (std::uint64_t p = 0; p < pt.numPages(); ++p) {
        for (int g = 0; g < 4; ++g)
            pt.replicate(g, p);
    }
    pt.writeRangeBy(2, 10 * page, 3 * page);
    for (std::uint64_t p = 0; p < pt.numPages(); ++p) {
        const bool written = p >= 10 && p < 13;
        EXPECT_EQ(pt.replicaCount(p), written ? 1 : 4) << p;
        if (written) {
            EXPECT_TRUE(pt.isResident(2, p));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageTableProperty,
                         ::testing::Values(4096u, 65536u,
                                           2u * 1024 * 1024),
                         [](const auto &info) {
                             return "page"
                                 + std::to_string(info.param);
                         });

TEST(UmProperties, AccessIsIdempotentPerProducerRound)
{
    MultiGpuSystem system(voltaPlatform());
    UmDriver driver(system, 8 << 20);
    driver.producerWrote(1, 0, 8 << 20);

    UmHints hints;
    hints.prefetch = true;
    const Tick t1 =
        driver.access(0, 1, 0, 8 << 20, true, hints, 0);
    const double migrated_once =
        driver.stats.get("prefetched_bytes");
    driver.access(0, 1, 0, 8 << 20, true, hints, t1);
    EXPECT_DOUBLE_EQ(driver.stats.get("prefetched_bytes"),
                     migrated_once);
}

TEST(UmProperties, FaultCostScalesWithMissingPages)
{
    auto access_time = [](std::uint64_t bytes) {
        MultiGpuSystem system(voltaPlatform());
        UmDriver driver(system, 32 << 20);
        driver.producerWrote(1, 0, 32 << 20);
        UmHints hints; // Fault path.
        return driver.access(0, 1, 0, bytes, false, hints, 0);
    };
    const Tick small = access_time(1 << 20);
    const Tick big = access_time(16 << 20);
    // Sporadic fault cost is roughly linear in pages (16x data ->
    // at least 8x time).
    EXPECT_GT(big, 8 * small);
}

TEST(UmProperties, PartialAccessMigratesOnlyTouchedPages)
{
    MultiGpuSystem system(voltaPlatform());
    UmDriver driver(system, 8 << 20);
    driver.producerWrote(1, 0, 8 << 20);

    UmHints hints;
    hints.prefetch = true;
    driver.access(0, 1, 0, 1 << 20, true, hints, 0);
    const auto page = system.platform().gpu.umPageBytes;
    EXPECT_DOUBLE_EQ(driver.stats.get("prefetched_bytes"),
                     static_cast<double>(1 << 20));
    EXPECT_EQ(driver.pageTable().missingPages(0, 0, 8 << 20),
              (7ull << 20) / page);
}
