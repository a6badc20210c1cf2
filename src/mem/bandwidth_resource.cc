#include "mem/bandwidth_resource.hh"

#include "sim/hostprof.hh"

#include <algorithm>
#include <utility>

#include "mem/pressure_ledger.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

/// Reservations a tail keeps room for before its first regrowth;
/// enough for every tier-1 mix, so the hot path never reallocates.
constexpr std::size_t tailInitialCapacity = 64;

} // namespace

ReservationTail::ReservationTail() { entries_.reserve(tailInitialCapacity); }

void
ReservationTail::retire(Tick now)
{
    watermark_ = std::max(watermark_, now);
    while (head_ < entries_.size() && entries_[head_].end <= watermark_) {
        retiredBusy_ += entries_[head_].end - entries_[head_].start;
        ++head_;
    }
    if (head_ == entries_.size()) {
        entries_.clear();
        head_ = 0;
    }
}

void
ReservationTail::push(Tick start, Tick end, std::int32_t key,
                      bool coalesce)
{
    if (coalesce && size() > 0 && entries_.back().end == start) {
        entries_.back().end = end;
        return;
    }
    if (entries_.size() == entries_.capacity() && 2 * head_ >= size()) {
        // Reclaim retired entries instead of growing: at least as many
        // are retired as outstanding, so the move is amortized.
        entries_.erase(entries_.begin(),
                       entries_.begin() + std::ptrdiff_t(head_));
        head_ = 0;
    }
    entries_.push_back({start, end, key});
}

Tick
ReservationTail::busy(Tick upTo) const
{
    // [0, 0) is empty whatever the watermark: stats read before a run
    // ends ask for it.
    if (upTo == 0)
        return 0;
    RELIEF_ASSERT(upTo >= watermark_, "busy time queried up to ", upTo,
                  ", below the retire watermark ", watermark_);
    // Retired reservations end at or before the watermark, so they lie
    // inside [0, upTo); outstanding ones are disjoint and sorted.
    Tick total = retiredBusy_;
    for (const Reservation &r : *this) {
        if (r.start >= upTo)
            break;
        total += std::min(r.end, upTo) - r.start;
    }
    return total;
}

BandwidthResource::BandwidthResource(std::string name, double gbPerSec,
                                     Tick fixedLatency)
    : name_(std::move(name)), gbPerSec_(gbPerSec),
      fixedLatency_(fixedLatency)
{
    RELIEF_ASSERT(gbPerSec > 0.0, "resource ", name_,
                  " needs positive bandwidth");
}

void
BandwidthResource::attachLedger(PressureLedger *ledger, int resource_id)
{
    // The ledger charges waits to per-reservation keys, which a tail
    // coalesced before it attached would have lost.
    RELIEF_ASSERT(numTransfers() == 0, "pressure ledger attached to ",
                  name_, " after its first claim");
    ledger_ = ledger;
    ledgerId_ = resource_id;
}

Tick
BandwidthResource::holdTime(std::uint64_t bytes) const
{
    return fixedLatency_ + transferTime(bytes, gbPerSec_);
}

Tick
BandwidthResource::claim(Tick earliest, std::uint64_t bytes)
{
    return claim(earliest, bytes, earliest, RequestorTag{});
}

Tick
BandwidthResource::claim(Tick earliest, std::uint64_t bytes,
                         Tick request_time, const RequestorTag &tag)
{
    // Queueing delay at *this* resource: how far its existing backlog
    // alone pushes the claim past its request time. A chain's common
    // start (earliest) can be later still — that wait belongs to the
    // other resources in the path and is accounted there.
    Tick pending = nextFree_ > request_time ? nextFree_ - request_time : 0;
    waitTicks_ += pending;

    Tick start = std::max(earliest, nextFree_);
    Tick hold = holdTime(bytes);
    Tick end = start + hold;
    nextFree_ = end;
    // No later claim on this pipe is requested before this one, so a
    // reservation ending by then can delay nobody: retire it.
    tail_.retire(std::min(earliest, request_time));
    totalBytes_.add(bytes);
    numTransfers_.add(1);
    // The ledger walks the tail ahead of this claim and names its key;
    // without one, only busy time is kept and back-to-back
    // reservations coalesce.
    std::int32_t key = 0;
    if (ledger_) {
        key = ledger_->record(ledgerId_, tag, request_time, pending, hold,
                              bytes);
    }
    tail_.push(start, end, key, !ledger_);
    return start;
}

double
BandwidthResource::occupancy(Tick upTo) const
{
    if (upTo == 0)
        return 0.0;
    return double(busyTime(upTo)) / double(upTo);
}

TransferTiming
reserveTransfer(const std::vector<BandwidthResource *> &path, Tick now,
                std::uint64_t bytes)
{
    return reserveTransfer(path, now, bytes, RequestorTag{});
}

TransferTiming
reserveTransfer(const std::vector<BandwidthResource *> &path, Tick now,
                std::uint64_t bytes, const RequestorTag &tag)
{
    RELIEF_ASSERT(!path.empty(), "transfer over an empty resource path");
    // Attribute reservation work (occupancy walk, claims, the ledger
    // behind them) to the memory system rather than the DMA event
    // driving it; free when host profiling is off.
    HostProfScope prof(HostCat::Mem);

    Tick start = now;
    Tick latencySum = 0;
    double minBw = path.front()->bandwidth();
    for (const auto *res : path) {
        start = std::max(start, res->nextFree());
        latencySum += res->fixedLatency();
        minBw = std::min(minBw, res->bandwidth());
    }
    // Claim each resource from the common start so FIFO order is
    // preserved across the chain; each measures its own queueing
    // contribution against the request time.
    for (auto *res : path)
        res->claim(start, bytes, now, tag);

    TransferTiming timing;
    timing.start = start;
    timing.end = start + latencySum + transferTime(bytes, minBw);
    return timing;
}

} // namespace relief
