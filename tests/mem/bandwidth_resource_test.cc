/** @file Unit tests for the pipelined bandwidth-server model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "mem/pressure_ledger.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

TEST(BandwidthResourceTest, HoldTimeIsLatencyPlusBytesOverBandwidth)
{
    BandwidthResource res("r", 1.0, fromNs(10.0)); // 1 B/ns
    EXPECT_EQ(res.holdTime(100), fromNs(110.0));
}

TEST(BandwidthResourceTest, BackToBackClaimsQueueFifo)
{
    BandwidthResource res("r", 1.0, 0);
    Tick s1 = res.claim(0, 100);
    Tick s2 = res.claim(0, 50);
    EXPECT_EQ(s1, 0u);
    EXPECT_EQ(s2, fromNs(100.0)); // waits for the first transfer
    EXPECT_EQ(res.nextFree(), fromNs(150.0));
}

TEST(BandwidthResourceTest, IdleGapsAreRespected)
{
    BandwidthResource res("r", 1.0, 0);
    res.claim(0, 100);
    Tick s = res.claim(fromNs(500.0), 100);
    EXPECT_EQ(s, fromNs(500.0));
}

TEST(BandwidthResourceTest, TracksBytesAndTransfers)
{
    BandwidthResource res("r", 2.0, 0);
    res.claim(0, 100);
    res.claim(0, 200);
    EXPECT_EQ(res.totalBytes(), 300u);
    EXPECT_EQ(res.numTransfers(), 2u);
}

TEST(BandwidthResourceTest, OccupancyCountsBusyFraction)
{
    BandwidthResource res("r", 1.0, 0); // 1 B/ns
    res.claim(0, 100); // busy [0, 100ns)
    EXPECT_DOUBLE_EQ(res.occupancy(fromNs(200.0)), 0.5);
    EXPECT_DOUBLE_EQ(res.occupancy(fromNs(100.0)), 1.0);
}

TEST(BandwidthResourceTest, ZeroBandwidthIsRejected)
{
    EXPECT_THROW(BandwidthResource("bad", 0.0, 0), PanicError);
}

TEST(ReserveTransferTest, BottleneckSetsDuration)
{
    BandwidthResource fast("fast", 10.0, 0);
    BandwidthResource slow("slow", 1.0, 0);
    auto timing = reserveTransfer({&fast, &slow}, 0, 100);
    EXPECT_EQ(timing.start, 0u);
    EXPECT_EQ(timing.end, fromNs(100.0)); // limited by 1 GB/s
}

TEST(ReserveTransferTest, LatenciesAccumulate)
{
    BandwidthResource a("a", 1.0, fromNs(10.0));
    BandwidthResource b("b", 1.0, fromNs(30.0));
    auto timing = reserveTransfer({&a, &b}, 0, 100);
    EXPECT_EQ(timing.end, fromNs(140.0));
}

TEST(ReserveTransferTest, StartWaitsForBusiestResource)
{
    BandwidthResource a("a", 1.0, 0);
    BandwidthResource b("b", 1.0, 0);
    a.claim(0, 500); // a busy until 500 ns
    auto timing = reserveTransfer({&a, &b}, 0, 100);
    EXPECT_EQ(timing.start, fromNs(500.0));
    EXPECT_EQ(timing.end, fromNs(600.0));
}

TEST(ReserveTransferTest, EachResourceChargedItsOwnRate)
{
    BandwidthResource fast("fast", 10.0, 0);
    BandwidthResource slow("slow", 1.0, 0);
    reserveTransfer({&fast, &slow}, 0, 100);
    // The fast resource frees up earlier than the slow one.
    EXPECT_EQ(fast.nextFree(), fromNs(10.0));
    EXPECT_EQ(slow.nextFree(), fromNs(100.0));
}

TEST(ReserveTransferTest, EmptyPathPanics)
{
    EXPECT_THROW(reserveTransfer({}, 0, 10), PanicError);
}

TEST(BandwidthResourceTest, BusyTrackerStaysBoundedOverManyClaims)
{
    // A long run's claims: requests at random gaps, sometimes bunched
    // into a backlog, sometimes leaving the pipe idle. Claims on one
    // pipe never overlap, so the busy time is the plain sum of holds.
    BandwidthResource res("r", 2.0, fromNs(20.0));
    std::mt19937_64 rng(11);
    Tick request = 0;
    Tick held = 0;
    std::size_t peak_intervals = 0;
    for (int i = 0; i < 120000; ++i) {
        request += Tick(rng() % 600) * 1000;
        std::uint64_t bytes = 64 + rng() % 1024;
        res.claim(request, bytes);
        held += res.holdTime(bytes);
        peak_intervals =
            std::max(peak_intervals, res.reservations().size());
    }
    EXPECT_LT(peak_intervals, 130u);
    EXPECT_EQ(res.busyTime(), held);
    EXPECT_EQ(res.reservations().watermark(), request);
    EXPECT_EQ(res.numTransfers(), 120000u);
}

/** Covered time of [start, end) intervals clipped to [0, upTo), by
 *  marking every tick. */
Tick
bruteForceUnion(const std::vector<std::pair<Tick, Tick>> &intervals,
                Tick upTo)
{
    std::vector<bool> busy(std::size_t(upTo), false);
    for (auto [start, end] : intervals) {
        for (Tick t = start; t < std::min(end, upTo); ++t)
            busy[std::size_t(t)] = true;
    }
    return Tick(std::count(busy.begin(), busy.end(), true));
}

/** Bursts of backlogged claims separated by idle gaps; after every
 *  claim, busyTime is probed at points inside and past the
 *  reservations still outstanding. */
void
checkBusyTimeAgainstBruteForce(BandwidthResource &res)
{
    std::mt19937_64 rng(5);
    std::vector<std::pair<Tick, Tick>> held;
    Tick request = 0;
    for (int i = 0; i < 400; ++i) {
        request += rng() % 4 == 0 ? Tick(rng() % 40) : 0;
        std::uint64_t bytes = rng() % 12;
        Tick start = res.claim(request, bytes);
        held.emplace_back(start, start + res.holdTime(bytes));
        ASSERT_EQ(res.reservations().watermark(), request);
        Tick horizon = res.nextFree() + 5;
        for (int probe = 0; probe < 4; ++probe) {
            Tick upTo = request + Tick(rng() % (horizon - request + 1));
            ASSERT_EQ(res.busyTime(upTo), bruteForceUnion(held, upTo))
                << "claim " << i << ", upTo " << upTo;
        }
    }
    EXPECT_GT(res.reservations().size(), 0u);
    EXPECT_EQ(res.busyTime(0), 0u);
    EXPECT_THROW(res.busyTime(request - 1), PanicError);
}

TEST(BandwidthResourceTest, BusyTimeInsideTheOpenTailMatchesBruteForce)
{
    // Without a ledger, back-to-back reservations coalesce.
    BandwidthResource res("r", 1000.0, 3); // 1 B/tick
    checkBusyTimeAgainstBruteForce(res);
}

TEST(BandwidthResourceTest, LedgerTailBusyTimeMatchesBruteForce)
{
    // With a ledger, every reservation keeps its own tail entry.
    PressureLedger ledger;
    BandwidthResource res("r", 1000.0, 3);
    ledger.addResource(res);
    ledger.seal();
    checkBusyTimeAgainstBruteForce(res);
}

TEST(BandwidthResourceTest, LedgerAttachesOnlyBeforeTheFirstClaim)
{
    PressureLedger ledger;
    BandwidthResource res("r", 1.0, 0);
    res.claim(0, 10);
    EXPECT_THROW(ledger.addResource(res), PanicError);
}

} // namespace
} // namespace relief
