/**
 * @file
 * The four test platforms of the paper's Table I.
 *
 * Each platform pairs a GPU model with its fabric and a default GPU
 * count; strong-scaling studies (Fig. 10) instantiate the same
 * platform at smaller GPU counts.
 */

#ifndef PROACT_SYSTEM_PLATFORM_HH
#define PROACT_SYSTEM_PLATFORM_HH

#include "faults/fault_plan.hh"
#include "gpu/gpu_spec.hh"
#include "interconnect/fabric.hh"

#include <string>
#include <vector>

namespace proact {

/** One row of Table I. */
struct PlatformSpec
{
    std::string name; ///< e.g. "4x Volta".
    GpuSpec gpu;
    FabricSpec fabric;
    int numGpus;

    /** Copy of this platform with a different GPU count. */
    PlatformSpec
    withGpuCount(int n) const
    {
        PlatformSpec p = *this;
        p.numGpus = n;
        p.name = std::to_string(n) + "x " + archName(gpu.arch);
        return p;
    }
};

/** 4x Tesla K40m over PCIe3 (Table I column 1). */
PlatformSpec keplerPlatform();

/** 4x Tesla P100 over NVLink (Table I column 2). */
PlatformSpec pascalPlatform();

/** 4x Tesla V100 over NVLink2 (Table I column 3). */
PlatformSpec voltaPlatform();

/** 16x Tesla V100-32GB over NVSwitch, i.e. DGX-2 (Table I column 4). */
PlatformSpec dgx2Platform();

/**
 * Hierarchical multi-node platform: @p nodes DGX-2-style chassis of
 * @p gpus_per_node V100s each. Pairs inside a node ride the chassis
 * NVSwitch tier; pairs crossing a node boundary ride an HDR-IB-class
 * network tier (ibFabric) with its own bandwidth, latency and
 * packetization curve. Built on PairwiseLinks so every directed pair
 * owns a channel at its tier's rate and latency. The fabric's base
 * latency stays the intra-node (minimum) hop delay; the inter-node
 * latency is strictly larger.
 *
 * @p nodes must be >= 2 and @p gpus_per_node >= 2.
 */
PlatformSpec multiNodePlatform(int nodes, int gpus_per_node = 16);

/** The three 4-GPU platforms used in Figs. 6-9. */
std::vector<PlatformSpec> quadPlatforms();

/** All four Table I platforms. */
std::vector<PlatformSpec> allPlatforms();

/** @{ @name DGX-2 fault topology
 *
 * The DGX-2 chassis is two baseboards of 8 GPUs; each GPU's six
 * NVLink ports ride six parallel NVSwitch planes, each plane carrying
 * 1/6 of every pair's bandwidth. Physical failures are therefore
 * correlated: a plane dying shaves 1/6 off all 240 directed pairs at
 * once, and a baseboard's switch complex dying severs every
 * intra-board pair on that side while cross-board trunks (served by
 * the surviving board) live on. These helpers express those grouped
 * events as FaultPlan plane episodes so benchmarks and tests model
 * chassis-level faults instead of hand-picking links.
 */

/** Parallel NVSwitch planes per DGX-2 chassis. */
constexpr int dgx2NumSwitchPlanes = 6;

/** GPUs per DGX-2 baseboard. */
constexpr int dgx2GpusPerBaseboard = 8;

/**
 * GPU ids of baseboard @p board (0 => {0..7}, 1 => {8..15}), shifted
 * by @p first_gpu so the same chassis builder addresses node k of a
 * multi-node platform (first_gpu = k * gpusPerNode).
 */
std::vector<int> dgx2Baseboard(int board, int first_gpu = 0);

/**
 * @p planes of the six NVSwitch planes die for [start, end):
 * every directed pair among the chassis' 16 GPUs (ids first_gpu ..
 * first_gpu+15) loses planes/6 of its bandwidth at once. @p planes
 * in [1, 5] — all six dying is a chassis loss no reroute can
 * survive.
 */
FaultPlan &dgx2DownSwitchPlanes(FaultPlan &plan, Tick start, Tick end,
                                int planes = 1, int first_gpu = 0);

/**
 * Baseboard @p board's switch complex dies for [start, end): all
 * intra-board directed pairs go DOWN at once.
 * Cross-board pairs survive on the other board's switches, so
 * multi-relay routes through the healthy board remain plannable.
 * @p first_gpu addresses the chassis of one node (see dgx2Baseboard).
 */
FaultPlan &dgx2DownBaseboard(FaultPlan &plan, Tick start, Tick end,
                             int board, int first_gpu = 0);
/** @} */

} // namespace proact

#endif // PROACT_SYSTEM_PLATFORM_HH
