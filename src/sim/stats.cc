#include "sim/stats.hh"

#include <bit>
#include <iomanip>

namespace proact {

void
StatSet::dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[k, v] : _values)
        os << prefix << k << " = " << v << "\n";
}

void
Histogram::record(std::uint64_t value, std::uint64_t weight)
{
    const std::size_t bucket =
        value == 0 ? 0 : std::bit_width(value) - 1;
    if (bucket >= _buckets.size())
        _buckets.resize(bucket + 1, 0);
    _buckets[bucket] += weight;
    _samples += weight;
    _total += value * weight;
    if (value < _min)
        _min = value;
    if (value > _max)
        _max = value;
}

double
Histogram::mean() const
{
    if (_samples == 0)
        return 0.0;
    return static_cast<double>(_total) / static_cast<double>(_samples);
}

std::uint64_t
Histogram::bucket(std::size_t i) const
{
    return i < _buckets.size() ? _buckets[i] : 0;
}

void
Histogram::clear()
{
    _buckets.clear();
    _samples = 0;
    _total = 0;
    _min = ~std::uint64_t(0);
    _max = 0;
}

void
Histogram::dump(std::ostream &os, const std::string &label) const
{
    os << label << " (" << _samples << " samples, mean "
       << std::fixed << std::setprecision(1) << mean() << ")\n";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        os << "  [" << (std::uint64_t(1) << i) << ", "
           << (std::uint64_t(1) << (i + 1)) << "): "
           << _buckets[i] << "\n";
    }
    os.unsetf(std::ios::fixed);
}

} // namespace proact
