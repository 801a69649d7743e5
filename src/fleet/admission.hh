/**
 * @file
 * Contention-aware admission control for the fleet layer.
 *
 * Pending jobs queue in a strict priority order (priority desc,
 * arrival asc, id asc). A job is admitted when the placement
 * allocator can seat it AND the seats are acceptable: co-locating
 * onto a plane the caller reports as contended is deferred until
 * the plane clears — unless the fabric is otherwise idle, in which
 * case waiting would serve nobody and the job is force-admitted.
 */

#ifndef PROACT_FLEET_ADMISSION_HH
#define PROACT_FLEET_ADMISSION_HH

#include "fleet/job.hh"
#include "fleet/placement.hh"
#include "sim/stats.hh"

#include <functional>
#include <optional>
#include <vector>

namespace proact::fleet {

/** Orders the queue and decides who may start now. */
class AdmissionController
{
  public:
    /** Tells whether a plane's port group is currently congested. */
    using CongestionQuery = std::function<bool(int plane)>;

    /**
     * Admission order: priority desc, then arrival asc, then id asc.
     * Stable and total, so a fixed job stream admits identically on
     * every run.
     */
    static void sortQueue(std::vector<const JobSpec *> &queue);

    /**
     * Try to seat @p job. On success the allocation in @p allocator
     * is committed and returned; on capacity shortage or congestion
     * deferral the allocator is left untouched and nullopt returns.
     *
     * @param fabric_idle No tenant is running anywhere: deferral
     *        would deadlock, so congestion is overridden (counted in
     *        admission.forced).
     */
    std::optional<Placement> tryAdmit(
        const JobSpec &job, PlacementAllocator &allocator,
        const CongestionQuery &congested, bool fabric_idle);

    /**
     * Stats: admission.admitted, admission.deferred_capacity,
     * admission.deferred_congestion, admission.forced.
     */
    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

  private:
    StatSet _stats;
};

} // namespace proact::fleet

#endif // PROACT_FLEET_ADMISSION_HH
