#include "interconnect/fabric.hh"

#include "sim/logging.hh"

namespace proact {

void
FabricSpec::validate(int num_gpus) const
{
    if (num_gpus < 1)
        fatalError("FabricSpec: need at least one GPU, got ", num_gpus);
    if (!multiNode())
        return;
    if (topology != FabricTopology::PairwiseLinks) {
        fatalError("FabricSpec: multi-node fabrics need PairwiseLinks "
                   "(per-pair tier parameters)");
    }
    if (interLatency < latency) {
        fatalError("FabricSpec: inter-node latency (", interLatency,
                   ") below the intra-node latency (", latency,
                   "): the network tier cannot be faster than the "
                   "chassis tier");
    }
    if (interEgressRate() <= 0.0 && num_gpus > gpusPerNode)
        fatalError("FabricSpec: multi-node fabric with zero inter-node "
                   "bandwidth");
}

FabricSpec
pcie3Fabric()
{
    return FabricSpec{
        Protocol::PCIe3,
        "PCIe3.0",
        16.0e9,                    // Table I: 16 GB/s bidirectional.
        32.0e9,                    // Dual-root-port tree core.
        1200 * ticksPerNanosecond, // P2P store latency over PCIe.
        192,                       // Fig. 4: ~128-256 threads saturate.
    };
}

FabricSpec
nvlink1Fabric()
{
    return FabricSpec{
        Protocol::NVLink1,
        "NVLink",
        150.0e9,                  // Table I: 150 GB/s bidirectional.
        0.0,                      // Direct P2P links.
        700 * ticksPerNanosecond,
        3000,                     // Table II best configs use 4096.
    };
}

FabricSpec
nvlink2Fabric()
{
    return FabricSpec{
        Protocol::NVLink2,
        "NVLink2",
        300.0e9,                  // Table I: 300 GB/s bidirectional.
        0.0,
        600 * ticksPerNanosecond,
        1800,                     // Table II best configs use 2048.
    };
}

FabricSpec
nvswitchFabric()
{
    return FabricSpec{
        Protocol::NVSwitch,
        "NVSwitch",
        300.0e9,                  // Table I: 300 GB/s bidirectional.
        0.0,                      // Full-bisection switch.
        800 * ticksPerNanosecond, // Extra switch hop.
        1800,
    };
}

FabricSpec
ibFabric()
{
    return FabricSpec{
        Protocol::IB,
        "IB-HDR",
        12.5e9,                    // 100 GB/s chassis NIC aggregate / 8.
        0.0,                       // Fat-tree core not modeled.
        2500 * ticksPerNanosecond, // RDMA one-sided write latency.
        1800,
    };
}

FabricSpec
fabricFor(Protocol protocol)
{
    switch (protocol) {
      case Protocol::PCIe3:
        return pcie3Fabric();
      case Protocol::NVLink1:
        return nvlink1Fabric();
      case Protocol::NVLink2:
        return nvlink2Fabric();
      case Protocol::NVSwitch:
        return nvswitchFabric();
      case Protocol::IB:
        return ibFabric();
    }
    panicError("fabricFor: unknown protocol");
}

} // namespace proact
