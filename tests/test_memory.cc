/**
 * @file
 * Unit tests for the page table, UM driver, and DMA engine.
 */

#include "gpu/dma_engine.hh"
#include "memory/um_driver.hh"

#include "sim/logging.hh"

#include <gtest/gtest.h>

using namespace proact;

TEST(PageTable, GeometryAndBounds)
{
    PageTable pt(4, 1000000, 4096);
    EXPECT_EQ(pt.numPages(), (1000000 + 4095) / 4096);
    EXPECT_EQ(pt.pageOf(0), 0u);
    EXPECT_EQ(pt.pageOf(4096), 1u);
    EXPECT_THROW(pt.isResident(0, pt.numPages()), PanicError);
    EXPECT_THROW(pt.isResident(4, 0), PanicError);
    EXPECT_THROW(PageTable(0, 100, 4096), FatalError);
    EXPECT_THROW(PageTable(2, 100, 0), FatalError);
}

TEST(PageTable, ReplicateAndMigrate)
{
    PageTable pt(3, 64 * 1024, 4096);
    EXPECT_FALSE(pt.isResident(0, 5));
    pt.replicate(0, 5);
    pt.replicate(1, 5);
    EXPECT_EQ(pt.replicaCount(5), 2);
    pt.migrate(2, 5);
    EXPECT_EQ(pt.replicaCount(5), 1);
    EXPECT_TRUE(pt.isResident(2, 5));
    EXPECT_FALSE(pt.isResident(0, 5));
}

TEST(PageTable, WritesInvalidatePeers)
{
    PageTable pt(2, 64 * 1024, 4096);
    pt.replicate(0, 3);
    pt.replicate(1, 3);
    pt.writeBy(0, 3);
    EXPECT_TRUE(pt.isResident(0, 3));
    EXPECT_FALSE(pt.isResident(1, 3));
}

TEST(PageTable, RangeOperations)
{
    PageTable pt(2, 64 * 1024, 4096);
    pt.writeRangeBy(0, 0, 3 * 4096);
    EXPECT_EQ(pt.missingPages(1, 0, 3 * 4096), 3u);
    EXPECT_EQ(pt.missingPages(0, 0, 3 * 4096), 0u);
    EXPECT_EQ(pt.missingPages(0, 0, 0), 0u);
    // Partial page counts as one page.
    EXPECT_EQ(pt.missingPages(1, 3 * 4096, 1), 1u);
}

TEST(UmDriver, ResidentAccessIsFree)
{
    MultiGpuSystem system(voltaPlatform());
    UmDriver driver(system, 1 << 20);
    driver.producerWrote(1, 0, 1 << 20);

    UmHints hints;
    hints.prefetch = true;
    const Tick first =
        driver.access(0, 1, 0, 1 << 20, true, hints, 0);
    EXPECT_GT(first, 0u);
    // Second access: pages already resident.
    const Tick second =
        driver.access(0, 1, 0, 1 << 20, true, hints, first);
    EXPECT_EQ(second, std::max(system.now(), first));
}

TEST(UmDriver, ProducerWritesInvalidateConsumers)
{
    MultiGpuSystem system(voltaPlatform());
    UmDriver driver(system, 1 << 20);
    driver.producerWrote(1, 0, 1 << 20);

    UmHints hints;
    hints.prefetch = true;
    driver.access(0, 1, 0, 1 << 20, true, hints, 0);
    EXPECT_EQ(driver.pageTable().missingPages(0, 0, 1 << 20), 0u);

    driver.producerWrote(1, 0, 1 << 20);
    EXPECT_EQ(driver.pageTable().missingPages(0, 0, 1 << 20),
              driver.pageTable().numPages());
}

TEST(UmDriver, FaultPathSlowerThanPrefetch)
{
    auto access_time = [](bool prefetch, bool sequential) {
        MultiGpuSystem system(voltaPlatform());
        UmDriver driver(system, 4 << 20);
        driver.producerWrote(1, 0, 4 << 20);
        UmHints hints;
        hints.prefetch = prefetch;
        return driver.access(0, 1, 0, 4 << 20, sequential, hints, 0);
    };
    EXPECT_LT(access_time(true, true), access_time(false, true));
    // Sporadic faults serialize: far worse than sequential faults.
    EXPECT_LT(access_time(false, true), access_time(false, false));
}

TEST(UmDriver, LegacyModeUsedWithoutHardwareFaulting)
{
    MultiGpuSystem system(keplerPlatform());
    UmDriver driver(system, 1 << 20);
    EXPECT_FALSE(driver.hardwareFaulting());
    UmHints hints;
    const Tick t = driver.access(0, 1, 0, 1 << 20, true, hints, 0);
    EXPECT_GT(t, 0u);
    EXPECT_DOUBLE_EQ(driver.stats.get("legacy_migrations"), 1.0);
}

TEST(UmDriver, ReadDuplicationKeepsOwnerResident)
{
    MultiGpuSystem system(voltaPlatform());
    UmDriver driver(system, 1 << 20);
    driver.producerWrote(1, 0, 1 << 20);
    UmHints hints;
    hints.prefetch = true;
    hints.readDuplicate = true;
    driver.access(0, 1, 0, 1 << 20, true, hints, 0);
    // Both the consumer replica and the owner copy are valid.
    EXPECT_TRUE(driver.pageTable().isResident(0, 0));
    EXPECT_TRUE(driver.pageTable().isResident(1, 0));
}

TEST(DmaEngine, CopyPaysInitiationAndWireTime)
{
    MultiGpuSystem system(voltaPlatform());
    bool done = false;
    const Tick t = system.dma(0).copyToPeer(1, 1 << 20,
                                            [&] { done = true; });
    const GpuSpec &spec = system.platform().gpu;
    EXPECT_GT(t, spec.dmaInitLatency);
    system.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(system.dma(0).numCopies(), 1u);
    EXPECT_EQ(system.dma(0).bytesCopied(), 1u << 20);
    EXPECT_EQ(system.fabric().totalPayloadBytes(), 1u << 20);
}

TEST(DmaEngine, CopiesUseBestPacketGranularity)
{
    MultiGpuSystem system(voltaPlatform());
    system.dma(0).copyToPeer(1, 1 << 20);
    system.run();
    // Every write carries a full packet payload.
    const std::uint64_t max_payload =
        system.fabric().packetModel().maxPayloadBytes;
    EXPECT_EQ(system.fabric().storeTransactions(0),
              ((1u << 20) + max_payload - 1) / max_payload);
}

TEST(DmaEngine, NotBeforeIsRespected)
{
    MultiGpuSystem system(voltaPlatform());
    const Tick t =
        system.dma(0).copyToPeer(1, 4096, nullptr, 1000000);
    EXPECT_GE(t, 1000000 + system.platform().gpu.dmaInitLatency);
}
