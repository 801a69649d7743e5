/**
 * @file
 * Page residency tracking for the Unified Memory model.
 *
 * A PageTable covers one managed region and records, per page, which
 * GPUs hold a valid copy. Producer writes invalidate peer replicas;
 * consumer accesses replicate (read-duplication) or migrate pages.
 * The UM driver uses residency counts to decide how many pages an
 * access must fault in or prefetch.
 */

#ifndef PROACT_MEMORY_PAGE_TABLE_HH
#define PROACT_MEMORY_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

namespace proact {

/** Residency bitmap of one managed region across GPUs. */
class PageTable
{
  public:
    /**
     * @param num_gpus GPUs in the system.
     * @param region_bytes Size of the managed region.
     * @param page_bytes UM page granularity (e.g. 64 KiB).
     */
    PageTable(int num_gpus, std::uint64_t region_bytes,
              std::uint32_t page_bytes);

    std::uint64_t numPages() const { return _numPages; }
    std::uint32_t pageBytes() const { return _pageBytes; }
    int numGpus() const { return _numGpus; }

    /**
     * Extend the region to at least @p region_bytes; the new pages
     * are resident nowhere. Never shrinks.
     */
    void growTo(std::uint64_t region_bytes);

    /** Page index covering byte @p offset. */
    std::uint64_t pageOf(std::uint64_t offset) const;

    bool isResident(int gpu, std::uint64_t page) const;

    /** Give @p gpu a valid copy (read-duplication). */
    void replicate(int gpu, std::uint64_t page);

    /** Make @p gpu the sole owner (exclusive migration). */
    void migrate(int gpu, std::uint64_t page);

    /**
     * Record a write by @p gpu: invalidates every other replica and
     * makes the writer resident.
     */
    void writeBy(int gpu, std::uint64_t page);

    /** Apply writeBy() to all pages in [offset, offset+bytes). */
    void writeRangeBy(int gpu, std::uint64_t offset,
                      std::uint64_t bytes);

    /** Pages in [offset, offset+bytes) NOT resident on @p gpu. */
    std::uint64_t missingPages(int gpu, std::uint64_t offset,
                               std::uint64_t bytes) const;

    /** Total valid copies of @p page across all GPUs. */
    int replicaCount(std::uint64_t page) const;

  private:
    int _numGpus;
    std::uint32_t _pageBytes;
    std::uint64_t _numPages;

    /** _resident[gpu][page] */
    std::vector<std::vector<bool>> _resident;

    void checkPage(std::uint64_t page) const;
    void checkGpu(int gpu) const;
};

} // namespace proact

#endif // PROACT_MEMORY_PAGE_TABLE_HH
