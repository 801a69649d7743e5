/**
 * @file
 * Workload registry: the paper's five applications at standard sizes.
 *
 * Benchmark harnesses create workloads by name; a scale shift lets
 * quick runs shrink every dimension by powers of two (set
 * PROACT_SCALE_SHIFT=1,2,... in the environment; envScaleShift in
 * proact/config.hh reads it) without changing any
 * compute/communication *ratio* qualitatively.
 */

#ifndef PROACT_WORKLOADS_REGISTRY_HH
#define PROACT_WORKLOADS_REGISTRY_HH

#include "workloads/graph.hh"
#include "workloads/workload.hh"

#include <memory>
#include <string>
#include <vector>

namespace proact {

/** The paper's application set in Fig. 7 order. */
std::vector<std::string> standardWorkloadNames();

/**
 * Create a workload by name ("X-ray CT", "Jacobi", "Pagerank",
 * "SSSP", "ALS") at standard size scaled down by 2^scale_shift.
 * Pagerank and SSSP take their R-MAT inputs from @p graphs when
 * given (it must outlive the workload).
 * @throws FatalError for unknown names.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       int scale_shift = 0,
                                       GraphCache *graphs = nullptr);

} // namespace proact

#endif // PROACT_WORKLOADS_REGISTRY_HH
