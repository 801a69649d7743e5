/**
 * @file
 * Lightweight named-statistics container.
 *
 * Components accumulate counters into a StatSet; benchmark harnesses
 * read them back by name to print the paper's tables.
 */

#ifndef PROACT_SIM_STATS_HH
#define PROACT_SIM_STATS_HH

#include <map>
#include <ostream>
#include <string>
#include <utility>

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

} // namespace proact

#endif // PROACT_SIM_STATS_HH
