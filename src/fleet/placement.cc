#include "fleet/placement.hh"

#include "sim/logging.hh"

#include <algorithm>
#include <utility>

namespace proact::fleet {

PlacementAllocator::PlacementAllocator(const PlatformSpec &platform,
                                       PlacementMode mode,
                                       int max_tenants_per_plane)
    : _mode(mode),
      _maxTenantsPerPlane(mode == PlacementMode::Disjoint
                              ? 1
                              : max_tenants_per_plane)
{
    if (platform.numGpus < 1)
        fatalError("PlacementAllocator: platform has no GPUs");
    if (_maxTenantsPerPlane < 1)
        fatalError("PlacementAllocator: tenant cap must be positive");

    // Baseboard-sized planes on chassis-scale machines; smaller
    // platforms are a single plane (their fabric has no disjoint
    // port groups to carve). Multi-node platforms keep every plane
    // inside one node — a plane spanning the network tier would hand
    // a single tenant's all-to-all traffic to the much slower
    // inter-node links — so the plane size is the baseboard when it
    // tiles the node exactly and the whole node otherwise, keeping
    // the uniform gpu / _gpusPerPlane arithmetic intact.
    if (platform.fabric.multiNode()) {
        const int per_node = platform.fabric.gpusPerNode;
        _gpusPerPlane = per_node % dgx2GpusPerBaseboard == 0
            ? dgx2GpusPerBaseboard
            : per_node;
    } else {
        _gpusPerPlane = platform.numGpus > dgx2GpusPerBaseboard
            ? dgx2GpusPerBaseboard
            : platform.numGpus;
    }
    for (int first = 0; first < platform.numGpus;
         first += _gpusPerPlane) {
        Plane plane;
        plane.firstGpu = first;
        plane.busy.assign(
            static_cast<std::size_t>(
                std::min(_gpusPerPlane, platform.numGpus - first)),
            false);
        plane.quarantined.assign(plane.busy.size(), false);
        _planes.push_back(std::move(plane));
    }
}

std::optional<Placement>
PlacementAllocator::tryAllocate(int gpus)
{
    if (gpus < 1 || gpus > _gpusPerPlane)
        return std::nullopt;

    // Least-loaded plane first so tenants spread before they share;
    // plane id breaks ties so the scan order is deterministic.
    std::vector<int> order(_planes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
        return _planes[static_cast<std::size_t>(a)].tenants
            < _planes[static_cast<std::size_t>(b)].tenants;
    });

    for (const int p : order) {
        Plane &plane = _planes[static_cast<std::size_t>(p)];
        if (plane.tenants >= _maxTenantsPerPlane)
            continue;
        if (freeGpusOnPlane(p) < gpus)
            continue;

        Placement placement;
        for (std::size_t g = 0;
             g < plane.busy.size()
             && placement.gpus.size() < static_cast<std::size_t>(gpus);
             ++g) {
            if (plane.busy[g] || plane.quarantined[g])
                continue;
            plane.busy[g] = true;
            placement.gpus.push_back(plane.firstGpu
                                     + static_cast<int>(g));
        }
        ++plane.tenants;
        placement.planes = {p};
        placement.shareCount = plane.tenants;
        return placement;
    }
    return std::nullopt;
}

void
PlacementAllocator::release(const Placement &placement)
{
    for (const int gpu : placement.gpus) {
        const int p = gpu / _gpusPerPlane;
        Plane &plane = _planes.at(static_cast<std::size_t>(p));
        const auto slot =
            static_cast<std::size_t>(gpu - plane.firstGpu);
        if (!plane.busy.at(slot))
            fatalError("PlacementAllocator: double release of gpu",
                       gpu);
        plane.busy[slot] = false;
    }
    for (const int p : placement.planes) {
        Plane &plane = _planes.at(static_cast<std::size_t>(p));
        if (plane.tenants < 1)
            fatalError("PlacementAllocator: tenant underflow on "
                       "plane ", p);
        --plane.tenants;
    }
}

int
PlacementAllocator::tenantsOnPlane(int plane) const
{
    return _planes.at(static_cast<std::size_t>(plane)).tenants;
}

int
PlacementAllocator::freeGpusOnPlane(int plane) const
{
    const Plane &p = _planes.at(static_cast<std::size_t>(plane));
    int free = 0;
    for (std::size_t g = 0; g < p.busy.size(); ++g)
        free += (p.busy[g] || p.quarantined[g]) ? 0 : 1;
    return free;
}

void
PlacementAllocator::quarantine(int gpu)
{
    const int p = gpu / _gpusPerPlane;
    if (p < 0 || p >= numPlanes())
        fatalError("PlacementAllocator: quarantine of unknown gpu",
                   gpu);
    Plane &plane = _planes[static_cast<std::size_t>(p)];
    plane.quarantined.at(
        static_cast<std::size_t>(gpu - plane.firstGpu)) = true;
}

bool
PlacementAllocator::isQuarantined(int gpu) const
{
    const int p = gpu / _gpusPerPlane;
    if (p < 0 || p >= numPlanes())
        return false;
    const Plane &plane = _planes[static_cast<std::size_t>(p)];
    return plane.quarantined.at(
        static_cast<std::size_t>(gpu - plane.firstGpu));
}

int
PlacementAllocator::maxAllocatableGpus() const
{
    int best = 0;
    for (const Plane &plane : _planes) {
        int capacity = 0;
        for (const bool q : plane.quarantined)
            capacity += q ? 0 : 1;
        best = std::max(best, capacity);
    }
    return best;
}

int
PlacementAllocator::quarantinedGpus() const
{
    int total = 0;
    for (const Plane &plane : _planes) {
        for (const bool q : plane.quarantined)
            total += q ? 1 : 0;
    }
    return total;
}

} // namespace proact::fleet
