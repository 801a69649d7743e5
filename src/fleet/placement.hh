/**
 * @file
 * GPU subset allocation for co-resident tenants on one fabric.
 *
 * The allocator carves the platform into placement planes — on a
 * DGX-2, the two 8-GPU baseboards whose traffic rides disjoint
 * NVSwitch port groups; on the 4-GPU platforms, the whole machine is
 * one plane; on multi-node platforms a plane never spans a node
 * boundary, so no tenant's intra-job traffic is forced across the
 * slower network tier. Disjoint mode gives every plane to at most one tenant
 * (full fabric isolation: a tenant's faults and congestion cannot
 * touch a neighbour). PlaneSharing packs up to maxTenantsPerPlane
 * tenants per plane; sharing tenants split the plane's per-GPU
 * bandwidth, which the fleet layer models by scaling each tenant's
 * fabric spec by its placement's shareCount.
 */

#ifndef PROACT_FLEET_PLACEMENT_HH
#define PROACT_FLEET_PLACEMENT_HH

#include "system/platform.hh"

#include <optional>
#include <vector>

namespace proact::fleet {

/** How tenants may overlap on a placement plane. */
enum class PlacementMode
{
    Disjoint,     ///< One tenant per plane; full isolation.
    PlaneSharing, ///< Up to maxTenantsPerPlane tenants per plane.
};

/** GPUs granted to one admitted tenant. */
struct Placement
{
    /** Physical GPU ids, ascending. */
    std::vector<int> gpus;

    /** Planes the GPUs live on, ascending, deduplicated. */
    std::vector<int> planes;

    /**
     * Tenants (including this one) on the most crowded plane used,
     * fixed at admission: the divisor applied to the tenant's
     * per-GPU fabric bandwidth for its whole run.
     */
    int shareCount = 1;

    bool valid() const { return !gpus.empty(); }
};

/** First-fit, least-loaded-plane GPU allocator. */
class PlacementAllocator
{
  public:
    PlacementAllocator(const PlatformSpec &platform, PlacementMode mode,
                       int max_tenants_per_plane = 2);

    /**
     * Try to grant @p gpus GPUs inside a single plane, preferring the
     * least-loaded (fewest tenants, then lowest id) plane with room;
     * lowest-id free GPUs win. Deterministic for a given allocator
     * state.
     *
     * @return The placement, or nullopt when no plane has capacity.
     */
    std::optional<Placement> tryAllocate(int gpus);

    /** Return a placement's GPUs and tenant slots to the pool. */
    void release(const Placement &placement);

    /**
     * Permanently remove @p gpu from the pool: a LOST device must
     * never be granted again (releasing a placement that contains it
     * is fine — the slot stays unallocatable). Idempotent.
     */
    void quarantine(int gpu);

    /** Whether @p gpu is quarantined. */
    bool isQuarantined(int gpu) const;

    /** GPUs quarantined so far across every plane. */
    int quarantinedGpus() const;

    /**
     * Largest request any plane could ever satisfy once current
     * tenants drain (plane size minus its quarantined GPUs) — the
     * shrink target for a resumed job whose original GPU count no
     * longer fits anywhere.
     */
    int maxAllocatableGpus() const;

    int numPlanes() const
    {
        return static_cast<int>(_planes.size());
    }

    int gpusPerPlane() const { return _gpusPerPlane; }

    /** Tenants currently holding GPUs on @p plane. */
    int tenantsOnPlane(int plane) const;

    /** Free GPUs remaining on @p plane. */
    int freeGpusOnPlane(int plane) const;

    PlacementMode mode() const { return _mode; }

  private:
    struct Plane
    {
        int firstGpu = 0;
        int tenants = 0;
        std::vector<bool> busy;        ///< Per-GPU occupancy.
        std::vector<bool> quarantined; ///< Permanently withdrawn.
    };

    PlacementMode _mode;
    int _maxTenantsPerPlane;
    int _gpusPerPlane;
    std::vector<Plane> _planes;
};

} // namespace proact::fleet

#endif // PROACT_FLEET_PLACEMENT_HH
