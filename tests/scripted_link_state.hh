/**
 * @file
 * Fixed-state LinkStateProvider for routing unit tests: every link
 * HEALTHY except an explicit list, so a Rerouter can be driven
 * through exact topologies without a fabric observing deliveries.
 */

#ifndef PROACT_TESTS_SCRIPTED_LINK_STATE_HH
#define PROACT_TESTS_SCRIPTED_LINK_STATE_HH

#include "interconnect/link_state.hh"

#include <map>

namespace proact::test {

class ScriptedLinkState : public LinkStateProvider
{
  public:
    void set(int src, int dst, LinkState state)
    {
        _states[key(src, dst)] = state;
    }

    LinkState linkState(int src, int dst) const override
    {
        const auto it = _states.find(key(src, dst));
        return it == _states.end() ? LinkState::Healthy : it->second;
    }

    double residualFraction(int src, int dst) const override
    {
        return linkState(src, dst) == LinkState::Down ? 0.0 : 1.0;
    }

  private:
    static long key(int src, int dst) { return 1000L * src + dst; }
    std::map<long, LinkState> _states;
};

} // namespace proact::test

#endif // PROACT_TESTS_SCRIPTED_LINK_STATE_HH
