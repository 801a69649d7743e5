#include "sim/stats.hh"

namespace proact {

void
StatSet::dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[k, v] : _values)
        os << prefix << k << " = " << v << "\n";
}

} // namespace proact
