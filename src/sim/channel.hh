/**
 * @file
 * Serializing bandwidth resource.
 *
 * A Channel models any component that moves bytes at a finite rate and
 * services requests in FIFO order: one direction of an inter-GPU link,
 * a DMA engine, a GPU's HBM interface, or the L2 atomic unit (where
 * "bytes" become atomic operations). A request occupies the channel
 * for payload/rate and is delivered an additional fixed latency later;
 * latency is pipelined (it delays delivery but does not add occupancy).
 */

#ifndef PROACT_SIM_CHANNEL_HH
#define PROACT_SIM_CHANNEL_HH

#include "sim/event_queue.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

#include <cstdint>
#include <deque>
#include <string>

namespace proact {

/**
 * FIFO rate-limited resource with pipelined delivery latency.
 *
 * Occupancy accounting ("busy ticks") lets callers compute utilization,
 * and separate wire/payload byte counters let the interconnect report
 * goodput (useful payload over total wire traffic).
 */
class Channel
{
  public:
    /**
     * Caller-chosen value stored with a booking and handed back to
     * the rebook listener (the fabric passes its flight tag).
     */
    using BookingTag = std::uint64_t;

    /**
     * Notified after a booking's service end moved (rebooking), with
     * the booking's submission tag and the new service end.
     * Small-buffer storage, same as event callbacks: rebooking sits
     * on the delivery hot path and must not allocate per booking.
     */
    using RebookListener = SmallFn<void(BookingTag, Tick)>;

    /**
     * Per-submission timing breakdown. The gap between @c enqueued and
     * @c start is time the request spent queued behind other flows at
     * this resource; @c serviceEnd - @c start is the wire service time
     * at the channel's effective (possibly fault-scaled) rate. The
     * health layer uses the two to attribute slow deliveries to
     * congestion vs. genuine link degradation.
     */
    struct Timing
    {
        Tick enqueued;   ///< max(now, not_before): earliest legal start.
        Tick start;      ///< Actual service start (dequeue).
        Tick serviceEnd; ///< Service end (excl. delivery latency).
        Tick delivered;  ///< serviceEnd + latency.

        /** Ticks spent waiting behind other flows in the FIFO. */
        Tick queueDelay() const { return start - enqueued; }
        /** Ticks of wire occupancy for this request. */
        Tick serviceTicks() const { return serviceEnd - start; }
    };

    /**
     * @param eq Event queue driving the simulation.
     * @param name Diagnostic name (appears in stats dumps).
     * @param bytes_per_sec Service rate.
     * @param latency Pipelined delivery latency added after service.
     */
    Channel(EventQueue &eq, std::string name, double bytes_per_sec,
            Tick latency = 0);

    /**
     * Enqueue a transfer at the current tick.
     *
     * The transfer begins at max(now, busyUntil()), occupies the
     * channel for wire_bytes/rate, and @p on_delivered (if any) fires
     * at occupancy end plus the channel latency.
     *
     * @param wire_bytes Bytes of channel occupancy (protocol bytes).
     * @param payload_bytes Useful bytes carried (for goodput stats).
     * @param on_delivered Optional completion callback.
     * @return Absolute tick of delivery.
     * @throws std::logic_error for a callback on a rebookable channel:
     *         a re-time moves bookings, not callbacks.
     */
    Tick submit(std::uint64_t wire_bytes, std::uint64_t payload_bytes,
                EventQueue::Callback on_delivered = nullptr);

    /**
     * Enqueue a transfer that may not begin before @p not_before and
     * return its timing breakdown. This is the fabric's entry point:
     * it books multi-hop paths (egress -> core -> ingress)
     * synchronously, each hop gated on the previous one, and needs
     * the queueing/service split to build a DeliverySample. While
     * rebookable, the booking keeps @p tag for the rebook listener.
     */
    Timing submitTimed(Tick not_before, std::uint64_t wire_bytes,
                       std::uint64_t payload_bytes, BookingTag tag = 0);

    /** First tick at which a new request could begin service. */
    Tick busyUntil() const { return _busyUntil; }

    /** Start tick a submitTimed(@p not_before, ...) would get now. */
    Tick nextStart(Tick not_before) const;

    /** Whether a request submitted now would queue behind others. */
    bool busy() const { return _busyUntil > _eq.curTick(); }

    const std::string &name() const { return _name; }

    /** Effective service rate (nominal rate x fault scale). */
    double rate() const { return _nominalRate * _rateScale; }

    /** Change the nominal rate; affects only future submissions. */
    void setRate(double bytes_per_sec);

    /**
     * Scale the effective rate without forgetting the nominal one
     * (fault injection: a degraded link runs at scale x nominal until
     * the episode ends and the scale returns to 1.0). Affects only
     * future submissions.
     */
    void setRateScale(double scale);

    double rateScale() const { return _rateScale; }

    /**
     * Make the channel rebookable: while @p listener is installed the
     * channel tracks live bookings, so a rate-scale change mid-flight
     * re-times the remaining service of already-submitted transfers
     * (and shifts queued ones) and reports each new service end to
     * @p listener. nullptr restores the submission-rate model, which
     * keeps no bookings.
     */
    void setRebookListener(RebookListener listener);

    /** Fixed post-service delivery latency. */
    Tick latency() const { return _latency; }

    /** @{ @name Accumulated statistics */
    std::uint64_t numTransfers() const { return _numTransfers; }
    std::uint64_t wireBytes() const { return _wireBytes; }
    std::uint64_t payloadBytes() const { return _payloadBytes; }
    Tick busyTicks() const { return _busyTicks; }
    /** @} */

    /** Fraction of [0, horizon] the channel spent servicing. */
    double utilization(Tick horizon) const;

    /** Payload/wire byte ratio so far (1.0 when idle). */
    double goodput() const;

    /** Zero all statistics (rate/latency unchanged). */
    void resetStats();

  private:
    /** One live submission, remembered only while rebookable. */
    struct Booking
    {
        BookingTag tag;    ///< Handed back to the rebook listener.
        Tick notBefore;    ///< Earliest permissible service start.
        Tick start;        ///< Current service start.
        Tick serviceEnd;   ///< Current service end (excl. latency).
    };

    EventQueue &_eq;
    std::string _name;
    double _nominalRate;
    double _rateScale = 1.0;
    Tick _latency;

    Tick _busyUntil = 0;
    std::uint64_t _numTransfers = 0;
    std::uint64_t _wireBytes = 0;
    std::uint64_t _payloadBytes = 0;
    Tick _busyTicks = 0;

    std::deque<Booking> _bookings; ///< FIFO by service start.
    RebookListener _rebookListener;

    /** Drop bookings whose service already finished. */
    void pruneBookings();

    /** Re-time live bookings after the rate moved old -> new. */
    void retimeBookings(double old_rate, double new_rate);
};

} // namespace proact

#endif // PROACT_SIM_CHANNEL_HH
