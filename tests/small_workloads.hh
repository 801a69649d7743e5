/**
 * @file
 * Small-instance factories for the five applications, sized so
 * functional runs finish in milliseconds (tests exercise behaviour,
 * not scale), plus a one-line digest of a paradigm run.
 */

#ifndef PROACT_TESTS_SMALL_WORKLOADS_HH
#define PROACT_TESTS_SMALL_WORKLOADS_HH

#include "harness/session.hh"
#include "workloads/als.hh"
#include "workloads/jacobi.hh"
#include "workloads/mbir.hh"
#include "workloads/pagerank.hh"
#include "workloads/sssp.hh"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace proact::test {

inline std::vector<std::string>
smallWorkloadNames()
{
    return {"X-ray CT", "Jacobi", "Pagerank", "SSSP", "ALS"};
}

inline std::unique_ptr<Workload>
makeSmallWorkload(const std::string &name)
{
    if (name == "Jacobi") {
        JacobiWorkload::Params p;
        p.numUnknowns = 1 << 14;
        p.halfBand = 4;
        p.iterations = 4;
        return std::make_unique<JacobiWorkload>(p);
    }
    if (name == "Pagerank") {
        PagerankWorkload::Params p;
        p.graph.numVertices = 1 << 12;
        p.graph.numEdges = 1 << 15;
        p.iterations = 4;
        return std::make_unique<PagerankWorkload>(p);
    }
    if (name == "SSSP") {
        SsspWorkload::Params p;
        p.graph.numVertices = 1 << 12;
        p.graph.numEdges = 1 << 15;
        p.iterations = 4;
        return std::make_unique<SsspWorkload>(p);
    }
    if (name == "ALS") {
        AlsWorkload::Params p;
        p.numUsers = 1 << 10;
        p.numItems = 1 << 10;
        p.numRatings = 1 << 13;
        p.iterations = 4;
        return std::make_unique<AlsWorkload>(p);
    }
    if (name == "X-ray CT") {
        MbirWorkload::Params p;
        p.numPixels = 1 << 13;
        p.halfBand = 8;
        p.iterations = 4;
        return std::make_unique<MbirWorkload>(p);
    }
    return nullptr;
}

/** Every ParadigmRun field (and the summary line) in one string. */
inline std::string
runDigest(const ParadigmRun &r)
{
    std::ostringstream os;
    os << "ticks=" << r.ticks << " wire=" << r.wireBytes
       << " payload=" << r.payloadBytes
       << " stores=" << r.storeTransactions
       << " dropped=" << r.faultsDropped << " retries=" << r.retries
       << " fallbacks=" << r.fallbacks
       << " transitions=" << r.linkTransitions << "/"
       << r.wireTransitions << " congested=" << r.congestionEvents
       << " reroutes=" << r.reroutes << " aborted=" << r.aborted
       << " lost=" << r.lostGpu
       << " iters=" << r.completedIterations
       << " ckpt=" << r.checkpointIteration << "/" << r.checkpoints
       << "/" << r.checkpointTicks
       << " refused=" << r.refusedDeliveries
       << " quiesced=" << r.quiescedFlights
       << " orphaned=" << r.orphanedTransfers << " ["
       << r.faultSummary() << "]";
    return os.str();
}

} // namespace proact::test

#endif // PROACT_TESTS_SMALL_WORKLOADS_HH
