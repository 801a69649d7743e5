#include "workloads/registry.hh"

#include "sim/logging.hh"
#include "workloads/als.hh"
#include "workloads/jacobi.hh"
#include "workloads/mbir.hh"
#include "workloads/pagerank.hh"
#include "workloads/sssp.hh"

#include <algorithm>

namespace proact {

std::vector<std::string>
standardWorkloadNames()
{
    return {"X-ray CT", "Jacobi", "Pagerank", "SSSP", "ALS"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, int scale_shift,
             GraphCache *graphs)
{
    const int s = std::clamp(scale_shift, 0, 8);

    if (name == "X-ray CT") {
        MbirWorkload::Params p;
        p.numPixels >>= s;
        return std::make_unique<MbirWorkload>(p);
    }
    if (name == "Jacobi") {
        JacobiWorkload::Params p;
        p.numUnknowns >>= s;
        return std::make_unique<JacobiWorkload>(p);
    }
    if (name == "Pagerank") {
        PagerankWorkload::Params p;
        p.graph.numVertices >>= s;
        p.graph.numEdges >>= s;
        return std::make_unique<PagerankWorkload>(p, graphs);
    }
    if (name == "SSSP") {
        SsspWorkload::Params p;
        p.graph.numVertices >>= s;
        p.graph.numEdges >>= s;
        return std::make_unique<SsspWorkload>(p, graphs);
    }
    if (name == "ALS") {
        AlsWorkload::Params p;
        p.numUsers >>= s;
        p.numItems >>= s;
        p.numRatings >>= s;
        return std::make_unique<AlsWorkload>(p);
    }
    fatalError("makeWorkload: unknown workload '", name, "'");
}

} // namespace proact
