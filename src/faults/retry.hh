/**
 * @file
 * Acknowledged delivery with timeout, bounded exponential backoff and
 * a reliable-path fallback.
 *
 * PROACT's fine-grained push traffic has no hardware delivery
 * guarantee, so on a faulty fabric a chunk can simply vanish. The
 * RetryingSender wraps Interconnect::transfer() with per-transfer
 * acknowledgement bookkeeping: every submission schedules an ack
 * timeout; if the ack never arrives the transfer is re-pushed after a
 * backoff that doubles per attempt, and once the retry budget is
 * exhausted the sender degrades gracefully — the payload is re-sent
 * over the hardware-reliable bulk path (the same path DMA and UM
 * migrations use) instead of hanging the simulation.
 *
 * The sender is omniscient about the fault-free delivery tick (the
 * fabric returns it at submission), so the ack timeout is modeled as
 * max(predicted delivery + 1, submission + ackTimeout): a timeout
 * only ever fires for a genuinely lost delivery, which keeps retries
 * duplicate-free and runs deterministic.
 *
 * With a Rerouter attached (setRerouter) the sender is additionally
 * reroute-aware: after rerouteAfterAttempts lost attempts on the
 * original path it consults the rerouter once, and when the current
 * health picture offers a better route (a relay fan-out or a
 * multi-relay chain) the remaining attempts ride that route instead
 * of burning the rest of the budget on a link the monitor has since
 * declared DOWN. Only when the re-planned route also keeps losing
 * does the reliable fallback activate.
 */

#ifndef PROACT_FAULTS_RETRY_HH
#define PROACT_FAULTS_RETRY_HH

#include "interconnect/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

#include <cstdint>
#include <memory>

namespace proact {

class Rerouter;

/** Knobs of the retry state machine. */
struct RetryPolicy
{
    /** Off by default: a perfect fabric needs no acknowledgements. */
    bool enabled = false;

    /** Total send attempts (including the first) before fallback. */
    int maxAttempts = 5;

    /**
     * Lost attempts on the original path before the sender consults
     * the rerouter (when one is attached via setRerouter) for an
     * alternate route. 0 disables reroute-aware retry; the attempt
     * budget and the reliable fallback are unaffected either way.
     */
    int rerouteAfterAttempts = 0;
};

/**
 * Retrying wrapper around one fabric.
 *
 * Stats recorded into the shared StatSet (when present):
 *  - transfers.retried:    re-pushes after a lost delivery
 *  - transfers.replanned:  retries moved to a rerouter-planned route
 *  - transfers.abandoned:  (transfer, attempt-budget) exhaustions
 *  - transfers.orphaned:   transfers given up because an endpoint
 *                          device is down (no retry, no fallback —
 *                          a dead GPU can neither send nor receive)
 *  - fallback.activations: reliable-path re-sends after abandonment
 *
 * Trace spans (when a Trace is attached): category "retry" from the
 * lost attempt's submission to its timeout, and a "fallback" span
 * covering the reliable re-send.
 */
class RetryingSender
{
  public:
    /** Minimum wait for an ack before declaring a delivery lost. */
    static constexpr Tick ackTimeout = 5 * ticksPerMicrosecond;

    /** Backoff before attempt k+1 is base << (k-1), capped below. */
    static constexpr Tick backoffBase = 2 * ticksPerMicrosecond;
    static constexpr Tick backoffMax = 64 * ticksPerMicrosecond;

    /** Backoff after failed attempt @p attempt (1-based), capped. */
    static constexpr Tick
    backoff(int attempt)
    {
        Tick b = backoffBase;
        for (int i = 1; i < attempt && b < backoffMax; ++i)
            b *= 2;
        return b < backoffMax ? b : backoffMax;
    }

    RetryingSender(EventQueue &eq, Interconnect &fabric,
                   RetryPolicy policy, StatSet *stats = nullptr,
                   Trace *trace = nullptr)
        : _eq(eq), _fabric(fabric), _policy(policy), _trace(trace),
          _retried(stats, "transfers.retried"),
          _replanned(stats, "transfers.replanned"),
          _abandoned(stats, "transfers.abandoned"),
          _orphaned(stats, "transfers.orphaned"),
          _fallbacks(stats, "fallback.activations")
    {
    }

    RetryingSender(const RetryingSender &) = delete;
    RetryingSender &operator=(const RetryingSender &) = delete;

    /**
     * Submit @p req with retry-on-loss semantics. The request's
     * onComplete fires exactly once, at whichever attempt (or the
     * fallback) finally lands.
     *
     * @return Predicted delivery tick of the first attempt. Retries
     *         extend beyond it; eventual delivery is guaranteed.
     */
    Tick send(Interconnect::Request req);

    /**
     * Attach the route planner consulted after
     * rerouteAfterAttempts lost attempts (nullptr detaches; retries
     * then stay on the original path as before).
     */
    void setRerouter(Rerouter *rerouter) { _rerouter = rerouter; }

    /** Transfers currently awaiting an acknowledgement. */
    std::uint64_t inFlight() const { return _inFlight; }

  private:
    EventQueue &_eq;
    Interconnect &_fabric;
    RetryPolicy _policy;
    Trace *_trace;
    Rerouter *_rerouter = nullptr;

    /** @{ The stats listed in the class comment. */
    StatSet::Counter _retried;
    StatSet::Counter _replanned;
    StatSet::Counter _abandoned;
    StatSet::Counter _orphaned;
    StatSet::Counter _fallbacks;
    /** @} */

    /** Outstanding-attempt count. */
    std::uint64_t _inFlight = 0;

    /**
     * One submitted attempt, shared by its ack, rebook and timeout
     * callbacks (each captures only the sender and this record).
     */
    struct Attempt
    {
        Interconnect::Request req; ///< As the caller handed it in.
        int number = 1;            ///< 1-based attempt count.
        bool replanned = false;    ///< Rides a rerouter-planned route.
        bool acked = false;
        Tick submit = 0;           ///< Tick the attempt was submitted.
        EventId timeout = 0;       ///< Pending ack-timeout event.
        Tick when = 0;             ///< Tick that timeout fires at.
        Tick floor = 0;            ///< Entry tick + ackTimeout.
    };
    using AttemptPtr = std::shared_ptr<Attempt>;

    /**
     * Submit attempt @p attempt_no of @p req. @p replanned marks
     * legs already moved to a rerouter-planned route: they never
     * re-plan again, bounding the recursion.
     */
    Tick attempt(const Interconnect::Request &req, int attempt_no,
                 bool replanned = false);

    /**
     * No ack by the horizon: orphan, retry, re-plan or fall back.
     * Only for an unacked attempt; the timeout closure checks.
     */
    void onTimeout(const AttemptPtr &a);

    /**
     * Re-plan @p req through the rerouter after @p attempt_no lost
     * attempts. @return false when the rerouter has nothing better
     * than the direct path (the caller then retries as usual).
     */
    bool replan(const Interconnect::Request &req, int attempt_no);

    void fallback(const Interconnect::Request &req, Tick first_submit);
    std::string label(const Interconnect::Request &req) const;
};

} // namespace proact

#endif // PROACT_FAULTS_RETRY_HH
