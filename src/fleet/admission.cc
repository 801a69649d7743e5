#include "fleet/admission.hh"

#include <algorithm>

namespace proact::fleet {

void
AdmissionController::sortQueue(std::vector<const JobSpec *> &queue)
{
    std::stable_sort(
        queue.begin(), queue.end(),
        [](const JobSpec *a, const JobSpec *b) {
            if (a->priority != b->priority)
                return a->priority > b->priority;
            if (a->arrival != b->arrival)
                return a->arrival < b->arrival;
            return a->id < b->id;
        });
}

std::optional<Placement>
AdmissionController::tryAdmit(const JobSpec &job,
                              PlacementAllocator &allocator,
                              const CongestionQuery &congested,
                              bool fabric_idle)
{
    std::optional<Placement> placement =
        allocator.tryAllocate(job.gpus);
    if (!placement) {
        _stats.inc("admission.deferred_capacity");
        return std::nullopt;
    }

    // Sharing seats on a plane whose port group is still backed up
    // buys queueing, not progress: undo the allocation and wait for
    // the plane to clear. shareCount > 1 is the sharing signal — a
    // plane all to ourselves is fine even while it reads congested.
    if (placement->shareCount > 1 && congested) {
        bool blocked = false;
        for (const int plane : placement->planes)
            blocked = blocked || congested(plane);
        if (blocked && !fabric_idle) {
            allocator.release(*placement);
            _stats.inc("admission.deferred_congestion");
            return std::nullopt;
        }
        if (blocked)
            _stats.inc("admission.forced");
    }

    _stats.inc("admission.admitted");
    return placement;
}

} // namespace proact::fleet
