#include "harness/paradigm.hh"

#include "baselines/runner.hh"
#include "proact/runtime.hh"
#include "sim/logging.hh"

namespace proact {

std::string
paradigmName(Paradigm paradigm)
{
    switch (paradigm) {
      case Paradigm::CudaMemcpy:
        return "cudaMemcpy";
      case Paradigm::UnifiedMemory:
        return "UM";
      case Paradigm::ProactInline:
        return "PROACT-inline";
      case Paradigm::ProactDecoupled:
        return "PROACT-decoupled";
      case Paradigm::InfiniteBw:
        return "Infinite-BW";
    }
    return "unknown";
}

std::vector<Paradigm>
allParadigms()
{
    return {Paradigm::UnifiedMemory, Paradigm::CudaMemcpy,
            Paradigm::ProactInline, Paradigm::ProactDecoupled,
            Paradigm::InfiniteBw};
}

std::unique_ptr<Runtime>
makeRuntime(Paradigm paradigm, MultiGpuSystem &system,
            const TransferConfig &config,
            bool checkpoint, int first_iteration)
{
    switch (paradigm) {
      case Paradigm::CudaMemcpy:
        return std::make_unique<BulkMemcpyRuntime>(system);
      case Paradigm::UnifiedMemory:
        return std::make_unique<UnifiedMemoryRuntime>(system);
      case Paradigm::ProactInline: {
        ProactRuntime::Options options;
        // Inline ignores chunk/thread knobs but keeps the retry
        // policy so fault-tolerant sweeps cover it too.
        options.config = config;
        options.config.mechanism = TransferMechanism::Inline;
        options.checkpoint = checkpoint;
        options.firstIteration = first_iteration;
        return std::make_unique<ProactRuntime>(system, options);
      }
      case Paradigm::ProactDecoupled: {
        ProactRuntime::Options options;
        options.config = config;
        if (!options.config.decoupled())
            options.config.mechanism = TransferMechanism::Polling;
        options.checkpoint = checkpoint;
        options.firstIteration = first_iteration;
        return std::make_unique<ProactRuntime>(system, options);
      }
      case Paradigm::InfiniteBw:
        return std::make_unique<IdealRuntime>(system);
    }
    panicError("makeRuntime: unknown paradigm");
}

} // namespace proact
