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
#include <utility>
#include <vector>

namespace proact {

/**
 * Ordered map of named double-valued statistics.
 *
 * Reads of absent names return 0 so callers need not pre-register.
 * Entries are never erased, so a pointer to one stays valid for the
 * set's lifetime; Counter relies on that.
 */
class StatSet
{
  public:
    /**
     * Handle to one named statistic, for paths that bump it once per
     * simulated event. The first inc() creates the entry, exactly as
     * StatSet::inc(name) would; later ones add through a pointer to
     * the map node, with no key lookup. A counter on a null set does
     * nothing, so an optional sink needs no check at each call. The
     * set must outlive the counter, and must not be assigned to or
     * moved from while the counter is in use.
     */
    class Counter
    {
      public:
        Counter(StatSet *set, std::string name)
            : _set(set), _name(std::move(name))
        {
        }

        /** Add @p delta (default 1) to the statistic. */
        void
        inc(double delta = 1.0)
        {
            if (_value == nullptr) {
                if (_set == nullptr)
                    return;
                _value = &_set->_values[_name];
            }
            *_value += delta;
        }

        /** Current value, 0 while the entry does not exist; reading
         * never creates it. */
        double
        value() const
        {
            if (_value == nullptr) {
                if (_set == nullptr)
                    return 0.0;
                auto it = _set->_values.find(_name);
                if (it == _set->_values.end())
                    return 0.0;
                _value = &it->second;
            }
            return *_value;
        }

      private:
        StatSet *_set;
        std::string _name;
        mutable double *_value = nullptr;
    };

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
