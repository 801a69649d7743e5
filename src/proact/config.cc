#include "proact/config.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace proact {

std::string
mechanismName(TransferMechanism mechanism)
{
    switch (mechanism) {
      case TransferMechanism::Inline:
        return "inline";
      case TransferMechanism::Polling:
        return "polling";
      case TransferMechanism::Cdp:
        return "cdp";
      case TransferMechanism::Hardware:
        return "hardware";
    }
    return "unknown";
}

std::string
mechanismCode(TransferMechanism mechanism)
{
    switch (mechanism) {
      case TransferMechanism::Inline:
        return "I";
      case TransferMechanism::Polling:
        return "Poll";
      case TransferMechanism::Cdp:
        return "CDP";
      case TransferMechanism::Hardware:
        return "HW";
    }
    return "?";
}

std::string
formatBytes(std::uint64_t bytes)
{
    std::ostringstream oss;
    if (bytes >= GiB && bytes % GiB == 0)
        oss << bytes / GiB << "GB";
    else if (bytes >= MiB && bytes % MiB == 0)
        oss << bytes / MiB << "MB";
    else if (bytes >= KiB && bytes % KiB == 0)
        oss << bytes / KiB << "kB";
    else
        oss << bytes << "B";
    return oss.str();
}

std::string
TransferConfig::toString() const
{
    if (mechanism == TransferMechanism::Inline)
        return "I";
    std::ostringstream oss;
    oss << "D " << formatBytes(chunkBytes) << " " << transferThreads
        << " " << mechanismCode(mechanism);
    return oss.str();
}

std::vector<std::uint64_t>
chunkSizeSweep()
{
    return {4 * KiB,   16 * KiB,  64 * KiB, 128 * KiB,
            256 * KiB, 1 * MiB,   4 * MiB,  16 * MiB};
}

std::vector<std::uint32_t>
threadCountSweep()
{
    return {32, 128, 256, 512, 1024, 2048, 4096, 8192};
}

std::int64_t
envInt(const char *name, std::int64_t fallback, std::int64_t lo,
       std::int64_t hi)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    // strtoll saturates on overflow, so a huge value clamps to hi.
    const long long v = std::strtoll(env, &end, 10);
    if (end == env)
        return fallback;
    return std::clamp<std::int64_t>(v, lo, hi);
}

int
envNodes()
{
    return static_cast<int>(envInt("PROACT_NODES", 1, 1, 64));
}

PlatformSpec
envMultiNodePlatform(int gpus_per_node)
{
    const int nodes = envNodes();
    return nodes <= 1 ? dgx2Platform()
                      : multiNodePlatform(nodes, gpus_per_node);
}

int
envScaleShift()
{
    return static_cast<int>(envInt("PROACT_SCALE_SHIFT", 0, 0, 8));
}

} // namespace proact
