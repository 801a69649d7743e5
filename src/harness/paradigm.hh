/**
 * @file
 * Uniform handle on the paper's communication paradigms
 * (Sec. IV-B): construct any of them behind the common Runtime
 * interface so harnesses, examples and tests can sweep paradigms
 * without duplicating wiring.
 */

#ifndef PROACT_HARNESS_PARADIGM_HH
#define PROACT_HARNESS_PARADIGM_HH

#include "proact/config.hh"
#include "system/multi_gpu_system.hh"
#include "workloads/workload.hh"

#include <memory>
#include <string>
#include <vector>

namespace proact {

/** The evaluated design alternatives (paper Sec. IV-B). */
enum class Paradigm
{
    CudaMemcpy,      ///< Bulk-synchronous DMA duplication.
    UnifiedMemory,   ///< UM with best-effort hints.
    ProactInline,    ///< P2P stores injected into the kernel.
    ProactDecoupled, ///< Full PROACT with a decoupled agent.
    InfiniteBw,      ///< Limit study: free data movement.
};

std::string paradigmName(Paradigm paradigm);

/** All paradigms in the paper's Figure 7 presentation order. */
std::vector<Paradigm> allParadigms();

/**
 * Build a runtime executing @p paradigm on @p system.
 *
 * @param config Transfer configuration for ProactDecoupled (ignored
 *        by the other paradigms; a non-decoupled mechanism falls
 *        back to polling).
 * @param checkpoint Iteration-boundary checkpoints for the PROACT
 *        runtimes (the baselines have no consistent boundary to
 *        checkpoint at and ignore it).
 * @param first_iteration Resume point for a recovery restart (PROACT
 *        runtimes only; 0 = run from the start).
 */
std::unique_ptr<Runtime>
makeRuntime(Paradigm paradigm, MultiGpuSystem &system,
            const TransferConfig &config = {},
            bool checkpoint = false,
            int first_iteration = 0);

} // namespace proact

#endif // PROACT_HARNESS_PARADIGM_HH
