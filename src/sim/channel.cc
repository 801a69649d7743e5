#include "sim/channel.hh"

#include <algorithm>
#include <stdexcept>

namespace proact {

Channel::Channel(EventQueue &eq, std::string name, double bytes_per_sec,
                 Tick latency)
    : _eq(eq), _name(std::move(name)), _nominalRate(bytes_per_sec),
      _latency(latency)
{
    if (bytes_per_sec <= 0.0)
        throw std::invalid_argument("Channel rate must be positive: "
                                    + _name);
}

void
Channel::setRate(double bytes_per_sec)
{
    if (bytes_per_sec <= 0.0)
        throw std::invalid_argument("Channel rate must be positive: "
                                    + _name);
    _nominalRate = bytes_per_sec;
}

void
Channel::setRateScale(double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw std::invalid_argument("Channel rate scale must be in "
                                    "(0, 1]: " + _name);
    if (scale == _rateScale)
        return;
    const double old_rate = rate();
    _rateScale = scale;
    if (_rebookListener)
        retimeBookings(old_rate, rate());
}

void
Channel::setRebookListener(RebookListener listener)
{
    _rebookListener = std::move(listener);
    if (!_rebookListener)
        _bookings.clear();
}

void
Channel::pruneBookings()
{
    const Tick now = _eq.curTick();
    while (!_bookings.empty() &&
           _bookings.front().serviceEnd <= now) {
        _bookings.pop_front();
    }
}

void
Channel::retimeBookings(double old_rate, double new_rate)
{
    pruneBookings();
    if (_bookings.empty())
        return;

    const Tick now = _eq.curTick();
    const auto retime = [old_rate, new_rate](Tick ticks) -> Tick {
        if (ticks == 0)
            return 0;
        const auto scaled = static_cast<Tick>(
            static_cast<double>(ticks) * old_rate / new_rate + 0.5);
        return scaled == 0 ? 1 : scaled;
    };

    Tick prev_end = 0;
    for (Booking &b : _bookings) {
        Tick new_start, new_end;
        if (b.start <= now) {
            // In service: the work already done stays done; only the
            // remainder is re-timed at the new rate.
            new_start = b.start;
            new_end = now + retime(b.serviceEnd - now);
        } else {
            // Queued: full service re-timed, start chained behind the
            // re-timed predecessor (but never before its own gate).
            new_start = std::max({b.notBefore, prev_end, now});
            new_end = new_start + retime(b.serviceEnd - b.start);
        }

        const auto old_dur =
            static_cast<std::int64_t>(b.serviceEnd - b.start);
        const auto new_dur =
            static_cast<std::int64_t>(new_end - new_start);
        _busyTicks = static_cast<Tick>(
            static_cast<std::int64_t>(_busyTicks) + new_dur - old_dur);

        b.start = new_start;
        b.serviceEnd = new_end;
        prev_end = new_end;
        _rebookListener(b.tag, new_end);
    }
    _busyUntil = prev_end;
}

Tick
Channel::submit(std::uint64_t wire_bytes, std::uint64_t payload_bytes,
                EventQueue::Callback on_delivered)
{
    if (on_delivered && _rebookListener)
        throw std::logic_error("Channel: delivery callback on a "
                               "rebookable channel: " + _name);
    const Tick delivered =
        submitTimed(_eq.curTick(), wire_bytes, payload_bytes).delivered;
    if (on_delivered)
        _eq.schedule(delivered, std::move(on_delivered));
    return delivered;
}

Tick
Channel::nextStart(Tick not_before) const
{
    return std::max({_eq.curTick(), _busyUntil, not_before});
}

Channel::Timing
Channel::submitTimed(Tick not_before, std::uint64_t wire_bytes,
                     std::uint64_t payload_bytes, BookingTag tag)
{
    const Tick enqueued = std::max(_eq.curTick(), not_before);
    const Tick start = nextStart(not_before);
    const Tick service = transferTicks(wire_bytes, rate());
    const Tick service_end = start + service;
    const Tick delivered = service_end + _latency;
    const Timing timing{enqueued, start, service_end, delivered};

    _busyUntil = service_end;
    _busyTicks += service;
    _wireBytes += wire_bytes;
    _payloadBytes += payload_bytes;
    ++_numTransfers;

    if (_rebookListener) {
        pruneBookings();
        _bookings.push_back({tag, not_before, start, service_end});
    }
    return timing;
}

double
Channel::utilization(Tick horizon) const
{
    if (horizon == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(_busyTicks)
                             / static_cast<double>(horizon));
}

double
Channel::goodput() const
{
    if (_wireBytes == 0)
        return 1.0;
    return static_cast<double>(_payloadBytes)
        / static_cast<double>(_wireBytes);
}

void
Channel::resetStats()
{
    _numTransfers = 0;
    _wireBytes = 0;
    _payloadBytes = 0;
    _busyTicks = 0;
}

} // namespace proact
