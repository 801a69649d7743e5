#include "memory/page_table.hh"

#include "sim/logging.hh"

namespace proact {

PageTable::PageTable(int num_gpus, std::uint64_t region_bytes,
                     std::uint32_t page_bytes)
    : _numGpus(num_gpus), _pageBytes(page_bytes)
{
    if (num_gpus < 1)
        fatalError("PageTable: need at least one GPU");
    if (page_bytes == 0)
        fatalError("PageTable: zero page size");
    _numPages = (region_bytes + page_bytes - 1) / page_bytes;
    _resident.assign(num_gpus,
                     std::vector<bool>(_numPages, false));
}

void
PageTable::growTo(std::uint64_t region_bytes)
{
    const std::uint64_t pages =
        (region_bytes + _pageBytes - 1) / _pageBytes;
    if (pages <= _numPages)
        return;
    _numPages = pages;
    for (auto &row : _resident)
        row.resize(_numPages, false);
}

void
PageTable::checkPage(std::uint64_t page) const
{
    if (page >= _numPages)
        panicError("PageTable: page ", page, " out of ", _numPages);
}

void
PageTable::checkGpu(int gpu) const
{
    if (gpu < 0 || gpu >= _numGpus)
        panicError("PageTable: bad GPU id ", gpu);
}

std::uint64_t
PageTable::pageOf(std::uint64_t offset) const
{
    return offset / _pageBytes;
}

bool
PageTable::isResident(int gpu, std::uint64_t page) const
{
    checkGpu(gpu);
    checkPage(page);
    return _resident[gpu][page];
}

void
PageTable::replicate(int gpu, std::uint64_t page)
{
    checkGpu(gpu);
    checkPage(page);
    _resident[gpu][page] = true;
}

void
PageTable::migrate(int gpu, std::uint64_t page)
{
    checkGpu(gpu);
    checkPage(page);
    for (int g = 0; g < _numGpus; ++g)
        _resident[g][page] = (g == gpu);
}

void
PageTable::writeBy(int gpu, std::uint64_t page)
{
    // Writes invalidate all peer replicas (single-writer protocol).
    migrate(gpu, page);
}

void
PageTable::writeRangeBy(int gpu, std::uint64_t offset,
                        std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const std::uint64_t first = pageOf(offset);
    const std::uint64_t last = pageOf(offset + bytes - 1);
    for (std::uint64_t p = first; p <= last; ++p)
        writeBy(gpu, p);
}

std::uint64_t
PageTable::missingPages(int gpu, std::uint64_t offset,
                        std::uint64_t bytes) const
{
    checkGpu(gpu);
    if (bytes == 0)
        return 0;
    const std::uint64_t first = pageOf(offset);
    const std::uint64_t last = pageOf(offset + bytes - 1);
    std::uint64_t missing = 0;
    for (std::uint64_t p = first; p <= last; ++p) {
        checkPage(p);
        if (!_resident[gpu][p])
            ++missing;
    }
    return missing;
}

int
PageTable::replicaCount(std::uint64_t page) const
{
    checkPage(page);
    int count = 0;
    for (int g = 0; g < _numGpus; ++g)
        count += _resident[g][page] ? 1 : 0;
    return count;
}

} // namespace proact
