#include "workloads/registry.hh"

#include "sim/logging.hh"
#include "workloads/als.hh"
#include "workloads/jacobi.hh"
#include "workloads/mbir.hh"
#include "workloads/pagerank.hh"
#include "workloads/sssp.hh"

#include <algorithm>
#include <cstdlib>

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

int
envScaleShift()
{
    const char *env = std::getenv("PROACT_SCALE_SHIFT");
    if (env == nullptr)
        return 0;
    char *end = nullptr;
    // strtoll saturates on overflow, so a huge value clamps to 8.
    const long long v = std::strtoll(env, &end, 10);
    if (end == env)
        return 0;
    return static_cast<int>(std::clamp(v, 0LL, 8LL));
}

} // namespace proact
