#include "faults/retry.hh"

#include "interconnect/rerouter.hh"

#include <algorithm>
#include <memory>
#include <utility>

namespace proact {

std::string
RetryingSender::label(const Interconnect::Request &req) const
{
    return "gpu" + std::to_string(req.src) + "->gpu"
        + std::to_string(req.dst);
}

Tick
RetryingSender::send(Interconnect::Request req)
{
    if (!_policy.enabled)
        return _fabric.transfer(req);
    return attempt(req, 1);
}

bool
RetryingSender::replan(const Interconnect::Request &req,
                       int attempt_no)
{
    const auto &legs = _rerouter->plan(req.src, req.dst);
    if (legs.size() == 1 && legs[0].direct())
        return false; // Nothing better than the path we are on.

    _replanned.inc();
    if (_trace) {
        _trace->record(_eq.curTick(), _eq.curTick(), "replan",
                       label(req) + " rerouted after attempt"
                           + std::to_string(attempt_no));
    }

    // The rerouter decomposes the payload into legs; every leg (and
    // relay hop) re-enters the retry machinery with the attempt
    // counter carried over, so the total budget still bounds the
    // chain, and replanned legs never re-plan again.
    Interconnect::Request again = req;
    again.notBefore = _eq.curTick() + backoff(attempt_no);
    _rerouter->send(
        [this, attempt_no](const Interconnect::Request &leg) {
            return attempt(leg, attempt_no + 1, true);
        },
        std::move(again));
    return true;
}

Tick
RetryingSender::attempt(const Interconnect::Request &req,
                        int attempt_no, bool replanned)
{
    // A dead endpoint is not a lossy link: no number of retries (or
    // the reliable fallback) can land a byte on it, so the transfer
    // is orphaned outright. This is what lets the event queue drain
    // after a device loss instead of grinding through the backoff
    // ladder toward a fallback that would also be refused.
    if (_fabric.deviceDown(req.src) || _fabric.deviceDown(req.dst)) {
        _orphaned.inc();
        return _eq.curTick();
    }

    const auto a = std::make_shared<Attempt>();
    a->req = req;
    a->number = attempt_no;
    a->replanned = replanned;
    a->submit = _eq.curTick();

    // The fabric holds the wire callbacks and the queue holds the
    // timeout; none of them is stored in the record, so the record
    // dies with the last of them and never keeps itself alive.
    Interconnect::Request wire = req;
    wire.onComplete = [this, a] {
        a->acked = true;
        --_inFlight;
        if (a->req.onComplete)
            a->req.onComplete();
    };
    // Boundary-aware fabrics can move a live delivery when a fault
    // window re-books wire time mid-flight; follow it with the ack
    // horizon so a slowed (not lost) delivery never looks like a
    // loss. The horizon only ever moves out: a delivery that speeds
    // up simply acks before the (now pessimistic) timeout fires.
    wire.onRebook = [this, a](Tick new_delivered) {
        if (a->acked || a->timeout == 0)
            return;
        const Tick want = std::max(new_delivered + 1, a->floor);
        if (want <= a->when)
            return;
        _eq.deschedule(a->timeout);
        a->when = want;
        a->timeout = _eq.schedule(want, [this, a] {
            if (!a->acked)
                onTimeout(a);
        });
    };

    const Tick predicted = _fabric.transfer(wire);
    ++_inFlight;

    // The ack horizon: a surviving delivery always lands at the
    // predicted tick (delay faults are folded into it), so a timeout
    // one tick past it can only mean loss. The ackTimeout floor
    // models the real cost of discovering the loss, counted from the
    // moment the transfer enters the fabric (after any backoff hold).
    const Tick entered = std::max(a->submit, req.notBefore);
    a->floor = entered + ackTimeout;
    a->when = std::max(predicted + 1, a->floor);
    // An acked attempt's timeout stays queued until it fires, and may
    // fire after the sender is gone: ProactRuntime::runPhase destroys
    // its per-phase senders once every delivery has landed, and a
    // later drain still runs their timeouts. The closure reads the
    // shared record first, so an acked timeout never touches the
    // sender.
    a->timeout = _eq.schedule(a->when, [this, a] {
        if (!a->acked)
            onTimeout(a);
    });

    return predicted;
}

void
RetryingSender::onTimeout(const AttemptPtr &a)
{
    --_inFlight;
    const Interconnect::Request &req = a->req;
    if (_trace) {
        _trace->record(a->submit, _eq.curTick(), "retry",
                       label(req) + " attempt"
                           + std::to_string(a->number) + " lost");
    }
    // The endpoint may have died while this attempt was on the
    // wire; orphan instead of escalating (see attempt()).
    if (_fabric.deviceDown(req.src) || _fabric.deviceDown(req.dst)) {
        _orphaned.inc();
        return;
    }
    if (a->number >= _policy.maxAttempts) {
        fallback(req, a->submit);
        return;
    }
    // Reroute-aware retry: once the loss streak has given the
    // health monitor a chance to reclassify the link, ask the
    // rerouter for a better route before burning more attempts on
    // the original path.
    if (!a->replanned && _rerouter && _policy.rerouteAfterAttempts > 0
        && a->number >= _policy.rerouteAfterAttempts
        && replan(req, a->number)) {
        return;
    }
    _retried.inc();
    Interconnect::Request again = req;
    again.notBefore = _eq.curTick() + backoff(a->number);
    attempt(again, a->number + 1, a->replanned);
}

void
RetryingSender::fallback(const Interconnect::Request &req,
                         Tick first_submit)
{
    _abandoned.inc();
    _fallbacks.inc();

    // Degraded mode: hand the payload to the hardware-reliable bulk
    // path (engine granularity, no thread cap) — the same guarantee
    // DMA and UM migrations enjoy. Delivery may be slow under link
    // degradation but can no longer be lost.
    Interconnect::Request bulk = req;
    bulk.reliable = true;
    bulk.writeGranularity = _fabric.packetModel().maxPayloadBytes;
    bulk.threads = 0;
    bulk.notBefore = _eq.curTick();
    const Tick done = _fabric.transfer(bulk);

    if (_trace) {
        _trace->record(first_submit, done, "fallback",
                       label(req) + " reliable re-send");
    }
}

} // namespace proact
