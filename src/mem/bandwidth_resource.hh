/**
 * @file
 * Pipelined bandwidth server.
 *
 * Every throughput-limited component in the modeled SoC (DRAM channel,
 * bus, crossbar ports, scratchpad ports, DMA channels) is represented by
 * a BandwidthResource: a FIFO-arbitrated pipe with a fixed access
 * latency and a byte rate. A transfer that crosses several resources
 * starts when the last of them becomes free and completes after the sum
 * of fixed latencies plus bytes divided by the bottleneck bandwidth;
 * each resource stays busy for bytes divided by its *own* bandwidth,
 * which is what creates queueing for later requesters.
 *
 * This transaction-level model captures contention, occupancy, and
 * traffic volume — the quantities RELIEF's evaluation depends on —
 * without per-beat events.
 *
 * Claims are FIFO (each starts at or after the previous one's end), so
 * a resource's reservations are sorted and disjoint. One reservation
 * tail per resource serves both busy-time statistics and the pressure
 * ledger: reservations that end at or before a claim's request time
 * can no longer delay anyone, so they fold into a running busy sum and
 * the tail holds only those still outstanding.
 */

#ifndef RELIEF_MEM_BANDWIDTH_RESOURCE_HH
#define RELIEF_MEM_BANDWIDTH_RESOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ticks.hh"
#include "stats/stats.hh"

namespace relief
{

class PressureLedger;
struct RequestorTag;

/** One granted reservation [start, end) of a resource. */
struct Reservation
{
    Tick start = 0;
    Tick end = 0;
    std::int32_t key = 0; ///< Pressure-ledger key it is charged to.
};

/**
 * A resource's reservations still outstanding at its retire watermark,
 * oldest first, plus the busy time of those already retired. Stored as
 * a vector with a head index; retired entries are reclaimed before the
 * vector would otherwise grow.
 */
class ReservationTail
{
  public:
    ReservationTail();

    /**
     * Declare that no later reservation is requested before @p now (a
     * non-decreasing watermark; smaller values are ignored) and retire
     * every reservation ending at or before it.
     */
    void retire(Tick now);

    /** Append [start, end), which starts at or after the last end. With
     *  @p coalesce, a reservation starting exactly where the last one
     *  ends extends it instead of adding an entry. */
    void push(Tick start, Tick end, std::int32_t key, bool coalesce);

    /** Time covered by reservations, clipped to [0, upTo). Exact for
     *  @p upTo at or after the watermark and for 0; panics below it. */
    Tick busy(Tick upTo) const;

    Tick watermark() const { return watermark_; }
    /** Outstanding reservations. */
    std::size_t size() const { return entries_.size() - head_; }
    const Reservation *begin() const { return entries_.data() + head_; }
    const Reservation *end() const
    {
        return entries_.data() + entries_.size();
    }

  private:
    std::vector<Reservation> entries_;
    std::size_t head_ = 0;
    Tick watermark_ = 0;
    Tick retiredBusy_ = 0;
};

class BandwidthResource
{
  public:
    /**
     * @param name         Debug name, e.g. "dram.channel0".
     * @param gbPerSec     Sustainable byte rate (1 GB/s == 1 B/ns).
     * @param fixedLatency Per-transfer pipe latency in ticks.
     */
    BandwidthResource(std::string name, double gbPerSec, Tick fixedLatency);

    const std::string &name() const { return name_; }
    double bandwidth() const { return gbPerSec_; }
    Tick fixedLatency() const { return fixedLatency_; }

    /** Earliest tick at which a new transfer could begin here. */
    Tick nextFree() const { return nextFree_; }

    /** Time this resource is held by a transfer of @p bytes. */
    Tick holdTime(std::uint64_t bytes) const;

    /**
     * Reserve the resource for @p bytes, starting no earlier than
     * @p earliest. Advances nextFree and records the busy interval.
     * @return the tick at which the reservation begins.
     */
    Tick claim(Tick earliest, std::uint64_t bytes);

    /**
     * Tagged claim: same reservation mechanics, but the queueing
     * delay is measured against @p request_time (when the transfer
     * asked for the pipe, which reserveTransfer may have pushed past
     * via other resources in the chain) and the attached pressure
     * ledger attributes it to @p tag. The untagged claim() overload
     * is claim(earliest, bytes, earliest, untagged).
     */
    Tick claim(Tick earliest, std::uint64_t bytes, Tick request_time,
               const RequestorTag &tag);

    /** Total bytes that have crossed this resource. */
    std::uint64_t totalBytes() const { return totalBytes_.value(); }

    /** Number of reservations made. */
    std::uint64_t numTransfers() const { return numTransfers_.value(); }

    /**
     * Aggregate queueing delay suffered here: for each claim, how far
     * the pipe's existing backlog pushed it past its request time.
     * The pressure ledger's per-key waitSuffered sums to exactly this.
     */
    Tick waitTime() const { return waitTicks_; }

    /** Hook this resource into @p ledger as resource @p resource_id,
     *  before its first claim. */
    void attachLedger(PressureLedger *ledger, int resource_id);

    PressureLedger *ledger() const { return ledger_; }
    int ledgerId() const { return ledgerId_; }

    /** Time covered by at least one reservation, clipped to [0, upTo);
     *  panics for a non-zero @p upTo below the retire watermark. */
    Tick busyTime(Tick upTo = maxTick) const { return tail_.busy(upTo); }

    /** Reservations still outstanding at the last claim's request time
     *  (retired on every claim, so the tail stays bounded). */
    const ReservationTail &reservations() const { return tail_; }

    /** Fraction of [0, upTo) covered by reservations. */
    double occupancy(Tick upTo) const;

  private:
    std::string name_;
    double gbPerSec_;
    Tick fixedLatency_;
    Tick nextFree_ = 0;
    Counter totalBytes_;
    Counter numTransfers_;
    Tick waitTicks_ = 0;
    ReservationTail tail_;
    PressureLedger *ledger_ = nullptr;
    int ledgerId_ = -1;
};

/**
 * Timing of a transfer across a chain of resources.
 */
struct TransferTiming
{
    Tick start; ///< When the transfer begins moving.
    Tick end;   ///< When the last byte lands at the destination.
};

/**
 * Reserve every resource in @p path for a @p bytes transfer requested at
 * @p now, and return the resulting timing. The transfer starts when all
 * resources are free; it completes after the sum of their fixed
 * latencies plus bytes over the bottleneck bandwidth.
 */
TransferTiming reserveTransfer(const std::vector<BandwidthResource *> &path,
                               Tick now, std::uint64_t bytes);

/**
 * Tagged variant: identical timing, but each resource in the chain
 * measures the claim's queueing delay against @p now and attributes it
 * to @p tag through its attached pressure ledger.
 */
TransferTiming reserveTransfer(const std::vector<BandwidthResource *> &path,
                               Tick now, std::uint64_t bytes,
                               const RequestorTag &tag);

} // namespace relief

#endif // RELIEF_MEM_BANDWIDTH_RESOURCE_HH
