/**
 * @file
 * Lightweight named-statistics containers.
 *
 * Components accumulate counters and distributions into a StatSet;
 * benchmark harnesses read them back by name to print the paper's
 * tables. A Histogram records value distributions (e.g. remote-store
 * granularities) with power-of-two bucketing.
 */

#ifndef PROACT_SIM_STATS_HH
#define PROACT_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace proact {

/**
 * Ordered map of named double-valued statistics.
 *
 * Reads of absent names return 0 so callers need not pre-register.
 */
class StatSet
{
  public:
    /** Add @p delta (default 1) to the named statistic. */
    void
    inc(const std::string &name, double delta = 1.0)
    {
        _values[name] += delta;
    }

    /** Overwrite the named statistic. */
    void set(const std::string &name, double value)
    {
        _values[name] = value;
    }

    /** Track the maximum seen so far. */
    void
    max(const std::string &name, double value)
    {
        auto it = _values.find(name);
        if (it == _values.end() || value > it->second)
            _values[name] = value;
    }

    /** Value of the named statistic, 0 when never touched. */
    double
    get(const std::string &name) const
    {
        auto it = _values.find(name);
        return it == _values.end() ? 0.0 : it->second;
    }

    bool
    has(const std::string &name) const
    {
        return _values.count(name) != 0;
    }

    const std::map<std::string, double> &all() const { return _values; }

    void clear() { _values.clear(); }

    /** Merge another set by summation (for aggregating per-GPU sets). */
    void
    merge(const StatSet &other)
    {
        for (const auto &[k, v] : other._values)
            _values[k] += v;
    }

    /** Pretty-print as "name = value" lines with optional prefix. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::map<std::string, double> _values;
};

/**
 * Power-of-two bucketed histogram for byte-granularity distributions.
 *
 * Bucket i holds samples in [2^i, 2^(i+1)); bucket 0 also holds 0.
 */
class Histogram
{
  public:
    void record(std::uint64_t value, std::uint64_t weight = 1);

    std::uint64_t samples() const { return _samples; }
    std::uint64_t total() const { return _total; }
    double mean() const;
    std::uint64_t minValue() const { return _min; }
    std::uint64_t maxValue() const { return _max; }

    /** Count in the bucket covering [2^i, 2^(i+1)). */
    std::uint64_t bucket(std::size_t i) const;
    std::size_t numBuckets() const { return _buckets.size(); }

    void clear();

    void dump(std::ostream &os, const std::string &label = "") const;

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _samples = 0;
    std::uint64_t _total = 0;
    std::uint64_t _min = ~std::uint64_t(0);
    std::uint64_t _max = 0;
};

} // namespace proact

#endif // PROACT_SIM_STATS_HH
