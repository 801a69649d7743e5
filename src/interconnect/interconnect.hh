/**
 * @file
 * Inter-GPU fabric with packetization, per-GPU ports and an optional
 * shared core.
 *
 * Every remote byte in the simulator — P2P stores (inline or agent
 * issued), DMA copies, UM page migrations — passes through
 * Interconnect::transfer(), which charges protocol wire overhead for
 * the request's write granularity, applies the transfer-thread
 * saturation model, and books the egress -> (core) -> ingress path on
 * the fabric's FIFO channels.
 */

#ifndef PROACT_INTERCONNECT_INTERCONNECT_HH
#define PROACT_INTERCONNECT_INTERCONNECT_HH

#include "interconnect/fabric.hh"
#include "interconnect/packet_model.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/small_fn.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

namespace proact {

/**
 * The multi-GPU interconnect.
 *
 * Per-GPU egress and ingress channels each carry half the Table I
 * bidirectional aggregate. Transfers are booked cut-through: each hop
 * starts no earlier than the previous hop's completion, so the exact
 * delivery tick is known at submission time.
 */
class Interconnect
{
  public:
    /**
     * Told a tracked transfer's new delivery tick (rebooking).
     * Small-buffer storage like event callbacks: every acknowledged
     * attempt carries one.
     */
    using RebookCallback = SmallFn<void(Tick)>;

    /** One transfer submission. */
    struct Request
    {
        int src;                   ///< Source GPU id.
        int dst;                   ///< Destination GPU id.
        std::uint64_t bytes;       ///< Useful payload bytes.

        /**
         * Per-write payload granularity on the wire, i.e. how well the
         * traffic coalesced before hitting the fabric. DMA engines and
         * decoupled agents use the protocol max; sparse inline stores
         * can be as small as 4 bytes.
         */
        std::uint32_t writeGranularity;

        /**
         * GPU threads issuing the stores; caps achieved bandwidth at
         * threads x per-thread store bandwidth. 0 means engine-driven
         * (DMA/UM) with no thread cap.
         */
        std::uint32_t threads = 0;

        /** Invoked at the delivery tick (optional). */
        EventQueue::Callback onComplete = nullptr;

        /**
         * Earliest tick the transfer may enter the fabric (0 = now).
         * Lets initiation latencies (DMA setup, CDP launch) be booked
         * synchronously together with the wire time.
         */
        Tick notBefore = 0;

        /**
         * Hardware-reliable path (DMA engines, UM page migration,
         * the retry layer's fallback): exempt from delivery drop and
         * delay faults. Degraded link rates still apply — reliability
         * buys guaranteed delivery, not nominal bandwidth.
         */
        bool reliable = false;

        /**
         * Invoked with the updated delivery tick whenever rebooking
         * (see setRebooking) moves this transfer's completion after a
         * mid-flight rate change. Lets the retry layer push its ack
         * horizon out instead of declaring a slowed delivery lost.
         */
        RebookCallback onRebook = nullptr;
    };

    /** What fault injection decided about one delivery. */
    struct FaultVerdict
    {
        bool drop = false;    ///< Delivery is lost (callback never fires).
        Tick extraDelay = 0;  ///< Added to the delivery tick.
    };

    /**
     * Hook consulted once per non-reliable transfer at submission,
     * with the fault-free delivery tick. Installed by the
     * FaultInjector (src/faults); nullptr means a perfect fabric.
     */
    using FaultFilter =
        std::function<FaultVerdict(const Request &, Tick delivered)>;

    /**
     * Timing breakdown of one delivery, split into two attributable
     * components. @c queueDelay is time the request spent waiting
     * behind *other* flows at shared ports (egress/core/ingress FIFO
     * backlogs); @c serviceTime is what the delivery would have taken
     * on an otherwise-idle fabric at the links' current (possibly
     * fault-scaled) rates, plus any fault-injected delay spike. The
     * two always satisfy enqueued + queueDelay + serviceTime ==
     * delivered. The health layer classifies CONGESTED from the first
     * component and DEGRADED/DOWN from the second only.
     */
    struct DeliverySample
    {
        Tick enqueued = 0;     ///< When the request entered the fabric.
        Tick start = 0;        ///< First hop's service-start tick.
        Tick delivered = 0;    ///< Final (fault-delayed) delivery tick.
        Tick queueDelay = 0;   ///< Waiting behind other flows.
        Tick serviceTime = 0;  ///< Idle-fabric wire time + fault delay.
        std::uint64_t wireBytes = 0; ///< Protocol bytes on the wire.
        bool dropped = false;  ///< Fault filter dropped the delivery.
    };

    /**
     * Observer of every submission's outcome, called once per
     * transfer at submission time with the full timing breakdown,
     * including whether the fault filter dropped the delivery. The
     * LinkHealthMonitor feeds from one; the DeviceHealthMonitor
     * attaches its own alongside it (addDeliveryObserver).
     */
    using DeliveryObserver = std::function<void(
        const Request &, const DeliverySample &)>;

    /** Token identifying one registered delivery observer. */
    using ObserverHandle = std::uint64_t;

    /** @throws FatalError when FabricSpec::validate rejects @p spec. */
    Interconnect(EventQueue &eq, const FabricSpec &spec, int num_gpus);

    /**
     * Submit a transfer; returns the absolute delivery tick.
     *
     * @throws FatalError on invalid endpoints or zero granularity.
     */
    Tick transfer(const Request &req);

    int numGpus() const { return _numGpus; }
    const FabricSpec &spec() const { return _spec; }
    const PacketModel &packetModel() const { return _packet; }

    /**
     * @{ @name Hierarchical tiers
     *
     * On a multi-node fabric (FabricSpec::multiNode) directed pairs
     * crossing a node boundary ride the inter-node tier: their own
     * nominal rate (the inter-node egress split across remote peers),
     * their own delivery latency (>= the intra-node latency), and
     * their own packetization curve. Single-node fabrics answer with
     * the base tier for every pair, so callers need no special-casing.
     */

    /** Whether the directed pair crosses a node boundary. */
    bool
    interNodePair(int src, int dst) const
    {
        return _spec.multiNode() && !_spec.sameNode(src, dst);
    }

    /** Nominal fault-free rate of one directed pair's link. */
    double nominalPairRate(int src, int dst) const;

    /** Delivery latency of one directed pair's tier. */
    Tick
    pairLatency(int src, int dst) const
    {
        return interNodePair(src, dst) ? _spec.interLatency
                                       : _spec.latency;
    }

    /** Packetization model of one directed pair's tier. */
    const PacketModel &
    pairPacketModel(int src, int dst) const
    {
        return interNodePair(src, dst) ? _interPacket : _packet;
    }
    /** @} */

    /**
     * Egress bandwidth achievable by @p threads transfer threads
     * (before packetization losses); 0 threads = full rate.
     */
    double effectiveEgressRate(std::uint32_t threads) const;

    Channel &egress(int gpu) { return *_egress.at(gpu); }
    Channel &ingress(int gpu) { return *_ingress.at(gpu); }
    bool hasCore() const { return _core != nullptr; }
    Channel &core() { return *_core; }

    /** Whether the fabric uses statically partitioned pair links. */
    bool
    pairwise() const
    {
        return _spec.topology == FabricTopology::PairwiseLinks;
    }

    /** Directed pair link (PairwiseLinks topologies only). */
    Channel &pairLink(int src, int dst);

    /** Total wire-level write transactions issued by @p src. */
    std::uint64_t storeTransactions(int src) const;
    /** Total wire-level write transactions across the fabric. */
    std::uint64_t totalStoreTransactions() const;

    /** Total payload bytes delivered across the fabric. */
    std::uint64_t totalPayloadBytes() const;
    /** Total wire bytes consumed across the fabric. */
    std::uint64_t totalWireBytes() const;

    void resetStats();

    /** Attach a span tracer (nullptr disables tracing). */
    void setTrace(Trace *trace) { _trace = trace; }

    /** Install the fault filter (nullptr restores the perfect fabric). */
    void setFaultFilter(FaultFilter filter)
    {
        _faultFilter = std::move(filter);
    }

    /** Deliveries the fault filter dropped so far. */
    std::uint64_t droppedDeliveries() const { return _droppedDeliveries; }

    /**
     * Register a delivery observer alongside any already installed.
     * Observers fire in registration order, once per submission.
     *
     * @return Handle for removeDeliveryObserver. @p observer must be
     *         non-null.
     */
    ObserverHandle addDeliveryObserver(DeliveryObserver observer);

    /** Deregister a previously added observer (idempotent). */
    void removeDeliveryObserver(ObserverHandle handle);

    /** Registered observers (all slots). */
    std::size_t numDeliveryObservers() const
    {
        return _observers.size();
    }

    /**
     * Boundary-aware in-flight transfers: when on, a mid-flight
     * rate-scale change (fault window boundary) re-books the remaining
     * wire time of already-submitted transfers at the new rate, moving
     * their completion callbacks accordingly, instead of honoring the
     * submission-tick rate to the end. Off by default — the cheaper
     * submission-rate model is exact whenever fault windows don't cut
     * through live transfers. Once on it stays on: setRebooking(false)
     * is a no-op on a fabric that never rebooked.
     *
     * @throws FatalError for setRebooking(false) while rebooking.
     */
    void setRebooking(bool on);

    bool rebooking() const { return _rebooking; }

    /** Completions moved by mid-flight rebooking so far. */
    std::uint64_t rebookedDeliveries() const
    {
        return _rebookedDeliveries;
    }

    /**
     * @{ @name Device loss
     *
     * A down device refuses every new transfer touching it — reliable
     * traffic included, since hardware reliability protects the wire,
     * not a dead endpoint. Refused submissions occupy no wire,
     * schedule no completion, and are reported to observers as
     * dropped zero-wire samples so the health layer sees the losses.
     * Transfers already in flight are untouched until quiesceDevice()
     * aborts them.
     */
    void setDeviceDown(int gpu, bool down);

    bool deviceDown(int gpu) const;

    /**
     * Abort every tracked in-flight transfer (rebooking mode) whose
     * source or destination is @p gpu: completion events are
     * descheduled and the flights forgotten, so their callbacks never
     * fire. The wire occupancy already booked stays — the bytes were
     * committed to the fabric before the device died.
     *
     * @return Number of flights aborted.
     */
    std::size_t quiesceDevice(int gpu);

    /** Submissions refused because an endpoint device was down. */
    std::uint64_t refusedDeliveries() const { return _refusedDeliveries; }

    /** Flights aborted by quiesceDevice because a device died under
     * them (rebooking mode). */
    std::uint64_t quiescedFlights() const { return _quiescedFlights; }

    /** Live in-flight transfers tracked for rebooking. */
    std::size_t numTrackedFlights() const { return _liveFlights; }
    /** @} */

  private:
    EventQueue &_eq;
    FabricSpec _spec;
    PacketModel _packet;
    /** Inter-node tier packetization (multi-node fabrics only). */
    PacketModel _interPacket;
    int _numGpus;

    /** GPUs of @p gpu's node present on this fabric instance. */
    int nodeSpan(int gpu) const;

    std::vector<std::unique_ptr<Channel>> _egress;
    std::vector<std::unique_ptr<Channel>> _ingress;
    std::unique_ptr<Channel> _core;

    /** Directed pair links, indexed src * numGpus + dst. */
    std::vector<std::unique_ptr<Channel>> _pairs;

    std::vector<std::uint64_t> _storeTransactions;
    Trace *_trace = nullptr;
    FaultFilter _faultFilter;

    /** Registered delivery observers, fired in registration order. */
    struct ObserverSlot
    {
        ObserverHandle handle;
        DeliveryObserver observer;
    };
    std::vector<ObserverSlot> _observers;
    ObserverHandle _nextObserverHandle = 1;

    /** Guard so observer removal mid-dispatch stays index-safe. */
    bool _dispatchingObservers = false;

    std::uint64_t _droppedDeliveries = 0;

    /**
     * One channel hop of a tracked in-flight transfer. A transfer
     * books each channel at most once, so the channel names the hop.
     */
    struct Hop
    {
        Channel *channel;
        Tick latencyAdd;   ///< Post-service latency this hop adds.
        Tick serviceEnd;   ///< Current service end on the channel.
    };

    /** A transfer's hops, stored inline: egress, core, ingress. */
    struct Hops
    {
        std::array<Hop, 3> hop{};
        std::size_t size = 0;

        void push(const Hop &h) { hop[size++] = h; }
        Hop *begin() { return hop.data(); }
        Hop *end() { return hop.data() + size; }
    };

    static constexpr std::uint32_t NoSlot = ~std::uint32_t(0);

    /**
     * One slot of the flight table: a live transfer whose completion
     * may move under rebooking, or a free slot on the freelist.
     */
    struct Flight
    {
        int src = -1;                   ///< Endpoints, for quiesce.
        int dst = -1;
        Hops hops;
        Tick extraDelay = 0;            ///< Fault-injected delay.
        Tick delivered = 0;             ///< Current delivery tick.
        EventId event = 0;              ///< Completion event (0=none).
        EventQueue::Callback onComplete;
        RebookCallback onRebook;
        /** Bumped when the slot is freed, so old tags miss. Never 0. */
        std::uint32_t generation = 1;
        std::uint32_t nextFree = NoSlot; ///< Freelist link when free.
        bool live = false;              ///< Holds a tracked flight.
    };

    bool _rebooking = false;
    std::uint64_t _rebookedDeliveries = 0;
    std::uint64_t _refusedDeliveries = 0;
    std::uint64_t _quiescedFlights = 0;

    /** Per-GPU down flags (see setDeviceDown). */
    std::vector<char> _deadDevice;

    /**
     * Flight table. While rebooking is on, every submission takes a
     * slot before it books a channel and tags its bookings with
     * generation << 32 | slot. Only a tracked flight fills its slot;
     * a dropped or untracked transfer frees it at once, and a
     * completed or quiesced one frees it then. Freeing bumps the
     * generation, so a rebooked tag that finds its slot free or
     * reused belongs to a transfer that is no longer tracked. A deque
     * grows without moving the slots (or doubling its footprint).
     */
    std::deque<Flight> _flights;
    std::uint32_t _freeFlight = NoSlot;
    std::size_t _liveFlights = 0;

    /** Take a free slot; returns its tag. */
    std::uint64_t acquireFlight();

    /** Return @p slot to the freelist, dropping its callbacks. */
    void releaseFlight(std::uint32_t slot);

    /** The live flight @p tag names, or nullptr. */
    Flight *findFlight(std::uint64_t tag);

    void validate(const Request &req) const;

    /** Fire every registered observer for one submission. */
    void notifyObservers(const Request &req,
                         const DeliverySample &sample);

    /** Apply @p f to every channel of the fabric. */
    void forEachChannel(const std::function<void(Channel &)> &f);

    /** Channel rebook listener: move flight @p tag's delivery. */
    void onHopRebooked(Channel *channel, std::uint64_t tag,
                       Tick new_service_end);

    /** Fire and free a tracked flight's completion. */
    void completeFlight(std::uint64_t tag);

    /**
     * Consult the fault filter, schedule the completion callback
     * (unless the delivery was dropped), notify the delivery
     * observer, and trace the span. @p sample carries the pre-fault
     * timing split; fault delay spikes are charged to its service
     * component (they are a wire symptom, not queueing). Under
     * rebooking @p hops carries the channel bookings, tagged @p tag,
     * so the completion can later move; the slot @p tag names is
     * filled or freed here.
     * @return The (possibly delayed) delivery tick.
     */
    Tick finishDelivery(const Request &req, DeliverySample sample,
                        const Hops &hops, std::uint64_t tag);
};

} // namespace proact

#endif // PROACT_INTERCONNECT_INTERCONNECT_HH
