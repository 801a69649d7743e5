/**
 * @file
 * Fabric-level parameters for the four evaluated interconnects.
 *
 * Bandwidths come from the paper's Table I ("bidirectional BW per GPU
 * aggregate"). Latencies and thread-saturation points are not given in
 * the paper; they are set to public-literature magnitudes and are the
 * knobs that position (not reshape) the reproduced curves.
 */

#ifndef PROACT_INTERCONNECT_FABRIC_HH
#define PROACT_INTERCONNECT_FABRIC_HH

#include "interconnect/packet_model.hh"
#include "sim/types.hh"

#include <cstdint>
#include <string>

namespace proact {

/**
 * How the per-GPU bandwidth is organized.
 *
 * SharedPorts models a switch-attached GPU (NVSwitch, PCIe): the
 * full egress rate can target any single peer. PairwiseLinks models
 * direct-attached NVLink topologies where a GPU's links are
 * statically partitioned across peers, so any single pair only gets
 * egressRate/(N-1) even when the other links idle.
 */
enum class FabricTopology
{
    SharedPorts,
    PairwiseLinks,
};

/**
 * Static description of one multi-GPU fabric.
 *
 * Each GPU owns an egress and an ingress channel of
 * perGpuBidirBandwidth/2 each; an optional shared core channel models
 * tree fabrics (the PCIe root complex) that cannot carry full
 * all-to-all traffic.
 */
struct FabricSpec
{
    Protocol protocol;
    std::string name;

    /** Table I bidirectional aggregate per GPU (bytes/s). */
    double perGpuBidirBandwidth;

    /** Shared-core capacity for tree fabrics; 0 = full crossbar. */
    double coreBandwidth;

    /** End-to-end delivery latency per transfer. */
    Tick latency;

    /**
     * GPU transfer threads needed to saturate one egress direction
     * with P2P stores (the knee in the paper's Figure 4). Per-thread
     * sustainable store bandwidth is egress rate / this.
     */
    std::uint32_t saturationThreads;

    /** Port organization (see FabricTopology). */
    FabricTopology topology = FabricTopology::SharedPorts;

    // -----------------------------------------------------------------
    // Hierarchical (multi-node) tier. gpusPerNode == 0 means a single
    // chassis and every inter* field is ignored. When > 0, GPUs
    // [k*gpusPerNode, (k+1)*gpusPerNode) form node k: pairs inside a
    // node ride this spec's intra-node parameters; pairs crossing a
    // node boundary ride the inter-node protocol/bandwidth/latency
    // below, with their own packetization curve (packetModelFor).
    // `latency` stays the intra-node (minimum) hop delay:
    // interLatency must be >= latency.
    // -----------------------------------------------------------------

    /** GPUs per node; 0 = single-node fabric (the default). */
    int gpusPerNode = 0;

    /** Inter-node link protocol (packetization tier). */
    Protocol interProtocol = Protocol::IB;

    /** Table-I-style bidirectional inter-node aggregate per GPU. */
    double interPerGpuBidirBandwidth = 0.0;

    /** End-to-end delivery latency of one cross-node transfer. */
    Tick interLatency = 0;

    double egressRate() const { return perGpuBidirBandwidth / 2.0; }
    double ingressRate() const { return perGpuBidirBandwidth / 2.0; }

    /** Whether this fabric spans more than one node. */
    bool multiNode() const { return gpusPerNode > 0; }

    /** Node index of GPU @p gpu (0 on single-node fabrics). */
    int
    nodeOf(int gpu) const
    {
        return multiNode() ? gpu / gpusPerNode : 0;
    }

    /** Whether @p a and @p b sit in the same node. */
    bool sameNode(int a, int b) const { return nodeOf(a) == nodeOf(b); }

    /** Egress half of the inter-node bidirectional aggregate. */
    double
    interEgressRate() const
    {
        return interPerGpuBidirBandwidth / 2.0;
    }

    double
    perThreadStoreBandwidth() const
    {
        return egressRate() / static_cast<double>(saturationThreads);
    }

    /**
     * Reject (FatalError) a fabric that cannot connect @p num_gpus
     * GPUs: no GPUs at all, or a multi-node tier that is not
     * PairwiseLinks, is faster than the chassis tier, or has no
     * bandwidth while the GPUs span more than one node.
     */
    void validate(int num_gpus) const;
};

/** PCIe 3.0 fabric of the 4x Kepler system (16 GB/s per GPU). */
FabricSpec pcie3Fabric();

/** NVLink fabric of the 4x Pascal system (150 GB/s per GPU). */
FabricSpec nvlink1Fabric();

/** NVLink2 fabric of the 4x Volta system (300 GB/s per GPU). */
FabricSpec nvlink2Fabric();

/** NVSwitch fabric of the 16x Volta DGX-2 (300 GB/s per GPU). */
FabricSpec nvswitchFabric();

/**
 * HDR InfiniBand-class inter-node network tier (the DGX-2's 8x
 * HDR100 NICs: 100 GB/s bidirectional aggregate per chassis, spread
 * evenly across its GPUs by ibFabricFor). Used standalone only in
 * unit tests; multi-node platforms embed it as the inter* tier of an
 * NVSwitch fabric.
 */
FabricSpec ibFabric();

/** Fabric spec by protocol enum. */
FabricSpec fabricFor(Protocol protocol);

} // namespace proact

#endif // PROACT_INTERCONNECT_FABRIC_HH
