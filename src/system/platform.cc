#include "system/platform.hh"

#include "sim/logging.hh"

namespace proact {

PlatformSpec
keplerPlatform()
{
    return PlatformSpec{"4x Kepler", keplerSpec(), pcie3Fabric(), 4};
}

PlatformSpec
pascalPlatform()
{
    return PlatformSpec{"4x Pascal", pascalSpec(), nvlink1Fabric(), 4};
}

PlatformSpec
voltaPlatform()
{
    return PlatformSpec{"4x Volta", voltaSpec(), nvlink2Fabric(), 4};
}

PlatformSpec
dgx2Platform()
{
    return PlatformSpec{"16x Volta", volta32Spec(), nvswitchFabric(),
                        16};
}

PlatformSpec
multiNodePlatform(int nodes, int gpus_per_node)
{
    if (nodes < 2)
        fatalError("multiNodePlatform: need >= 2 nodes, got ", nodes);
    if (gpus_per_node < 2) {
        fatalError("multiNodePlatform: need >= 2 GPUs per node, got ",
                   gpus_per_node);
    }

    FabricSpec fabric = nvswitchFabric();
    // Per-pair channels are what lets node tiers carry distinct
    // rate/latency/packet curves.
    fabric.topology = FabricTopology::PairwiseLinks;
    fabric.gpusPerNode = gpus_per_node;

    const FabricSpec inter = ibFabric();
    fabric.interProtocol = inter.protocol;
    fabric.interPerGpuBidirBandwidth = inter.perGpuBidirBandwidth;
    fabric.interLatency = inter.latency;
    fabric.name = fabric.name + "+" + inter.name;
    fabric.validate(nodes * gpus_per_node);

    PlatformSpec p{std::to_string(nodes) + "x" +
                       std::to_string(gpus_per_node) + " Volta",
                   volta32Spec(), fabric, nodes * gpus_per_node};
    return p;
}

std::vector<PlatformSpec>
quadPlatforms()
{
    return {keplerPlatform(), pascalPlatform(), voltaPlatform()};
}

std::vector<PlatformSpec>
allPlatforms()
{
    return {keplerPlatform(), pascalPlatform(), voltaPlatform(),
            dgx2Platform()};
}

std::vector<int>
dgx2Baseboard(int board, int first_gpu)
{
    if (board < 0 || board > 1)
        fatalError("dgx2Baseboard: board must be 0 or 1, got ", board);
    if (first_gpu < 0) {
        fatalError("dgx2Baseboard: node offset must be >= 0, got ",
                   first_gpu);
    }
    std::vector<int> gpus;
    for (int g = 0; g < dgx2GpusPerBaseboard; ++g)
        gpus.push_back(first_gpu + board * dgx2GpusPerBaseboard + g);
    return gpus;
}

FaultPlan &
dgx2DownSwitchPlanes(FaultPlan &plan, Tick start, Tick end, int planes,
                     int first_gpu)
{
    if (planes < 1 || planes >= dgx2NumSwitchPlanes) {
        fatalError("dgx2DownSwitchPlanes: planes must be in [1, ",
                   dgx2NumSwitchPlanes - 1, "], got ", planes);
    }
    if (first_gpu < 0) {
        fatalError("dgx2DownSwitchPlanes: node offset must be >= 0, "
                   "got ", first_gpu);
    }
    std::vector<int> all;
    for (int g = 0; g < dgx2Platform().numGpus; ++g)
        all.push_back(first_gpu + g);
    const double fraction =
        static_cast<double>(planes) / dgx2NumSwitchPlanes;
    return plan.degradePlane(start, end, fraction, all);
}

FaultPlan &
dgx2DownBaseboard(FaultPlan &plan, Tick start, Tick end, int board,
                  int first_gpu)
{
    return plan.downPlane(start, end,
                          dgx2Baseboard(board, first_gpu));
}

} // namespace proact
