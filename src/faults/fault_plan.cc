#include "faults/fault_plan.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace proact {

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LinkDegrade:
        return "degrade";
      case FaultKind::LinkDown:
        return "down";
      case FaultKind::DeliveryDrop:
        return "drop";
      case FaultKind::GpuDown:
        return "gpu-down";
    }
    return "unknown";
}

namespace {

std::string
endpoint(int id)
{
    return id < 0 ? "*" : std::to_string(id);
}

} // namespace

std::string
FaultEpisode::describe() const
{
    std::ostringstream oss;
    oss << faultKindName(kind);
    if (kind == FaultKind::LinkDegrade || kind == FaultKind::DeliveryDrop)
        oss << " p=" << severity;
    if (kind == FaultKind::GpuDown)
        oss << " gpu" << endpoint(gpu);
    else
        oss << " gpu" << endpoint(src) << "->gpu" << endpoint(dst);
    return oss.str();
}

void
FaultPlan::validate(int num_gpus) const
{
    for (const FaultEpisode &ep : episodes) {
        const std::string what = ep.describe();
        if (ep.start >= ep.end)
            fatalError("FaultPlan: empty window for episode ", what);
        // -1 is the one wildcard; anything below it is a typo that
        // would silently widen to every GPU.
        if (ep.src < -1 || ep.dst < -1 || ep.gpu < -1 ||
            ep.src >= num_gpus || ep.dst >= num_gpus ||
            ep.gpu >= num_gpus) {
            fatalError("FaultPlan: target out of range for episode ",
                       what, " (", num_gpus, " GPUs)");
        }
        if (ep.src >= 0 && ep.src == ep.dst)
            fatalError("FaultPlan: src == dst for episode ", what);
        switch (ep.kind) {
          // Written as "not inside" so NaN, which fails every
          // comparison, is rejected too.
          case FaultKind::LinkDegrade:
            if (!(ep.severity > 0.0 && ep.severity < 1.0))
                fatalError("FaultPlan: degrade fraction must be in "
                           "(0, 1), got ", ep.severity);
            break;
          case FaultKind::DeliveryDrop:
            if (!(ep.severity > 0.0 && ep.severity <= 1.0))
                fatalError("FaultPlan: drop probability must be in "
                           "(0, 1], got ", ep.severity);
            break;
          case FaultKind::LinkDown:
            break;
          case FaultKind::GpuDown:
            // A whole-device loss needs a concrete victim; a wildcard
            // would kill every GPU and leave nothing to recover onto.
            if (ep.gpu < 0)
                fatalError("FaultPlan: GpuDown requires a concrete "
                           "gpu target, got wildcard");
            break;
        }
    }
}

FaultPlan &
FaultPlan::degradeLink(Tick start, Tick end, double fraction, int src,
                       int dst)
{
    FaultEpisode ep;
    ep.kind = FaultKind::LinkDegrade;
    ep.start = start;
    ep.end = end;
    ep.severity = fraction;
    ep.src = src;
    ep.dst = dst;
    episodes.push_back(ep);
    return *this;
}

FaultPlan &
FaultPlan::downLink(Tick start, Tick end, int src, int dst)
{
    FaultEpisode ep;
    ep.kind = FaultKind::LinkDown;
    ep.start = start;
    ep.end = end;
    ep.src = src;
    ep.dst = dst;
    episodes.push_back(ep);
    return *this;
}

FaultPlan &
FaultPlan::dropDeliveries(Tick start, Tick end, double probability,
                          int src, int dst)
{
    FaultEpisode ep;
    ep.kind = FaultKind::DeliveryDrop;
    ep.start = start;
    ep.end = end;
    ep.severity = probability;
    ep.src = src;
    ep.dst = dst;
    episodes.push_back(ep);
    return *this;
}

FaultPlan &
FaultPlan::downGpu(Tick start, Tick end, int gpu)
{
    FaultEpisode ep;
    ep.kind = FaultKind::GpuDown;
    ep.start = start;
    ep.end = end;
    ep.gpu = gpu;
    episodes.push_back(ep);
    return *this;
}

namespace {

/** Expand one plane event to an episode per directed pair. */
FaultPlan &
addPlane(FaultPlan &plan, FaultEpisode proto,
         const std::vector<int> &gpus)
{
    if (gpus.size() < 2)
        fatalError("FaultPlan: a plane needs at least 2 GPUs, got ",
                   gpus.size());
    for (int s : gpus) {
        for (int d : gpus) {
            if (s == d)
                continue;
            proto.src = s;
            proto.dst = d;
            plan.episodes.push_back(proto);
        }
    }
    return plan;
}

} // namespace

FaultPlan &
FaultPlan::downPlane(Tick start, Tick end, const std::vector<int> &gpus)
{
    FaultEpisode proto;
    proto.kind = FaultKind::LinkDown;
    proto.start = start;
    proto.end = end;
    return addPlane(*this, proto, gpus);
}

FaultPlan &
FaultPlan::degradePlane(Tick start, Tick end, double fraction,
                        const std::vector<int> &gpus)
{
    FaultEpisode proto;
    proto.kind = FaultKind::LinkDegrade;
    proto.start = start;
    proto.end = end;
    proto.severity = fraction;
    return addPlane(*this, proto, gpus);
}

FaultPlan &
FaultPlan::flapLink(std::uint64_t seed, int src, int dst,
                    const LinkLifecycleOptions &options)
{
    if (options.mtbf == 0 || options.mttr == 0 ||
        options.horizon == 0) {
        fatalError("FaultPlan: flapLink needs non-zero mtbf, mttr "
                   "and horizon");
    }

    Rng rng(seed);
    // Inverse-CDF exponential draw with mean @p mean, floored at one
    // tick so windows are never empty. 1 - uniform() keeps the
    // argument of log strictly positive.
    const auto exponential = [&rng](Tick mean) -> Tick {
        const double draw = -static_cast<double>(mean)
            * std::log(1.0 - rng.uniform());
        return std::max<Tick>(1, static_cast<Tick>(draw));
    };

    Tick t = 0;
    for (int i = 0; i < options.maxEpisodes; ++i) {
        t += exponential(options.mtbf); // Up time before the outage.
        if (t >= options.horizon)
            break;
        Tick repair = exponential(options.mttr);
        repair = std::min(repair, options.horizon - t);
        const Tick end = t + repair;
        if (rng.uniform() < options.downProbability) {
            downLink(t, end, src, dst);
        } else {
            const double f = options.minSeverity
                + rng.uniform()
                    * (options.maxSeverity - options.minSeverity);
            degradeLink(t, end, std::clamp(f, 0.01, 0.99), src, dst);
        }
        t = end;
    }
    return *this;
}

FaultPlan
mtbfFaultPlan(std::uint64_t seed, int num_gpus, int num_links,
              const LinkLifecycleOptions &options)
{
    if (num_gpus < 2)
        fatalError("mtbfFaultPlan: needs at least 2 GPUs, got ",
                   num_gpus);
    const int max_links = num_gpus * (num_gpus - 1);
    if (num_links < 1 || num_links > max_links) {
        fatalError("mtbfFaultPlan: num_links must be in [1, ",
                   max_links, "], got ", num_links);
    }

    FaultPlan plan;
    plan.seed = seed;

    // Pick the flapping links by a seeded partial shuffle of all
    // directed pairs, on a stream of its own so the per-link episode
    // streams below stay independent of the choice order.
    std::vector<std::pair<int, int>> links;
    for (int s = 0; s < num_gpus; ++s) {
        for (int d = 0; d < num_gpus; ++d) {
            if (s != d)
                links.emplace_back(s, d);
        }
    }
    Rng picker(deriveSeed(seed, 0));
    for (int k = 0; k < num_links; ++k) {
        const int j = k + static_cast<int>(
            picker.below(links.size() - static_cast<std::size_t>(k)));
        std::swap(links[static_cast<std::size_t>(k)],
                  links[static_cast<std::size_t>(j)]);
    }

    for (int k = 0; k < num_links; ++k) {
        const auto [src, dst] = links[static_cast<std::size_t>(k)];
        plan.flapLink(deriveSeed(seed, static_cast<std::uint64_t>(k)
                                           + 1),
                      src, dst, options);
    }
    plan.validate(num_gpus);
    return plan;
}

FaultPlan
deviceMtbfFaultPlan(std::uint64_t seed, int num_gpus,
                    const DeviceLifecycleOptions &options)
{
    if (num_gpus < 2)
        fatalError("deviceMtbfFaultPlan: needs at least 2 GPUs, got ",
                   num_gpus);
    if (options.mtbf == 0 || options.horizon <= options.earliest)
        fatalError("deviceMtbfFaultPlan: needs non-zero mtbf and a "
                   "non-empty [earliest, horizon) window");
    if (options.maxLosses < 0 || options.maxLosses >= num_gpus) {
        fatalError("deviceMtbfFaultPlan: maxLosses must leave at "
                   "least one survivor, got ", options.maxLosses,
                   " of ", num_gpus);
    }

    FaultPlan plan;
    plan.seed = seed;

    // Per-device exponential up-time draws on independent streams:
    // device g's fate depends only on (seed, g), never on num_gpus.
    std::vector<std::pair<Tick, int>> deaths;
    for (int g = 0; g < num_gpus; ++g) {
        Rng rng(deriveSeed(seed, static_cast<std::uint64_t>(g)));
        const double draw = -static_cast<double>(options.mtbf)
            * std::log(1.0 - rng.uniform());
        const Tick t = options.earliest
            + std::max<Tick>(1, static_cast<Tick>(draw));
        if (t < options.horizon)
            deaths.emplace_back(t, g);
    }

    // Earliest deaths win the maxLosses budget; ties break by GPU id
    // so the campaign is total-ordered and replayable.
    std::sort(deaths.begin(), deaths.end());
    if (static_cast<int>(deaths.size()) > options.maxLosses)
        deaths.resize(static_cast<std::size_t>(options.maxLosses));
    for (const auto &[t, g] : deaths)
        plan.downGpu(t, maxTick, g);

    plan.validate(num_gpus);
    return plan;
}

FaultPlan
randomFaultPlan(std::uint64_t seed, int num_gpus,
                const RandomFaultOptions &options)
{
    if (num_gpus < 2)
        fatalError("randomFaultPlan: needs at least 2 GPUs, got ",
                   num_gpus);
    if (options.latestStart < options.earliestStart ||
        options.maxDuration < options.minDuration ||
        options.minDuration == 0) {
        fatalError("randomFaultPlan: inverted or empty ranges");
    }

    FaultPlan plan;
    plan.seed = seed;
    Rng rng(seed);

    auto draw_window = [&](Tick &start, Tick &end) {
        start = options.earliestStart +
            rng.below(options.latestStart - options.earliestStart + 1);
        end = start + options.minDuration +
            rng.below(options.maxDuration - options.minDuration + 1);
    };
    auto draw_severity = [&] {
        const double f = options.minSeverity +
            rng.uniform() * (options.maxSeverity - options.minSeverity);
        return std::clamp(f, 0.01, 0.99);
    };

    for (int i = 0; i < options.numEvents; ++i) {
        Tick start, end;
        draw_window(start, end);

        if (rng.uniform() < options.planeProbability && num_gpus > 2) {
            // Plane: a distinct random subset of GPUs.
            const int size = std::clamp(options.planeSize, 2, num_gpus);
            std::vector<int> gpus(num_gpus);
            for (int g = 0; g < num_gpus; ++g)
                gpus[g] = g;
            for (int k = 0; k < size; ++k) {
                const int j = k + static_cast<int>(
                    rng.below(gpus.size() - k));
                std::swap(gpus[k], gpus[j]);
            }
            gpus.resize(size);
            std::sort(gpus.begin(), gpus.end());
            if (rng.uniform() < options.downProbability)
                plan.downPlane(start, end, gpus);
            else
                plan.degradePlane(start, end, draw_severity(), gpus);
            continue;
        }

        // Single directed link.
        const int src = static_cast<int>(rng.below(num_gpus));
        int dst = static_cast<int>(rng.below(num_gpus - 1));
        if (dst >= src)
            ++dst;
        if (rng.uniform() < options.downProbability)
            plan.downLink(start, end, src, dst);
        else
            plan.degradeLink(start, end, draw_severity(), src, dst);
    }

    plan.validate(num_gpus);
    return plan;
}

} // namespace proact
