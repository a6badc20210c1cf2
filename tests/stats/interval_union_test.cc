/** @file Unit tests for busy-interval union accounting. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "stats/interval_union.hh"

namespace relief
{
namespace
{

TEST(IntervalUnionTest, EmptyCoversNothing)
{
    IntervalUnion u;
    EXPECT_EQ(u.covered(), 0u);
    EXPECT_EQ(u.rawSum(), 0u);
}

TEST(IntervalUnionTest, DisjointIntervalsSum)
{
    IntervalUnion u;
    u.add(0, 10);
    u.add(20, 30);
    EXPECT_EQ(u.covered(), 20u);
    EXPECT_EQ(u.rawSum(), 20u);
}

TEST(IntervalUnionTest, OverlapCountedOnce)
{
    IntervalUnion u;
    u.add(0, 10);
    u.add(5, 15);
    EXPECT_EQ(u.covered(), 15u);
    EXPECT_EQ(u.rawSum(), 20u);
}

TEST(IntervalUnionTest, TouchingIntervalsMerge)
{
    IntervalUnion u;
    u.add(0, 10);
    u.add(10, 20);
    EXPECT_EQ(u.covered(), 20u);
}

TEST(IntervalUnionTest, OutOfOrderInsertion)
{
    IntervalUnion u;
    u.add(50, 60);
    u.add(0, 10);
    u.add(5, 55);
    EXPECT_EQ(u.covered(), 60u);
}

TEST(IntervalUnionTest, NestedIntervals)
{
    IntervalUnion u;
    u.add(0, 100);
    u.add(10, 20);
    u.add(30, 40);
    EXPECT_EQ(u.covered(), 100u);
}

TEST(IntervalUnionTest, EmptyIntervalIgnored)
{
    IntervalUnion u;
    u.add(10, 10);
    u.add(20, 15);
    EXPECT_EQ(u.covered(), 0u);
    EXPECT_EQ(u.numIntervals(), 0u);
}

TEST(IntervalUnionTest, ClipsToUpTo)
{
    IntervalUnion u;
    u.add(0, 10);
    u.add(20, 40);
    EXPECT_EQ(u.covered(30), 20u);
    EXPECT_EQ(u.covered(5), 5u);
    EXPECT_EQ(u.covered(0), 0u);
}

TEST(IntervalUnionTest, QueryThenAddThenQuery)
{
    IntervalUnion u;
    u.add(0, 10);
    EXPECT_EQ(u.covered(), 10u);
    u.add(5, 20); // insertion after a query must still work
    EXPECT_EQ(u.covered(), 20u);
}

/**
 * Reference union: the covered length of [0, upTo) computed from every
 * interval ever added, by testing each elementary segment between
 * consecutive endpoints for coverage.
 */
Tick
bruteForceCovered(const std::vector<std::pair<Tick, Tick>> &all, Tick upTo)
{
    std::set<Tick> points{0, upTo};
    for (const auto &[s, e] : all) {
        points.insert(std::min(s, upTo));
        points.insert(std::min(e, upTo));
    }
    Tick total = 0;
    for (auto it = points.begin(); std::next(it) != points.end(); ++it) {
        Tick lo = *it, hi = *std::next(it);
        for (const auto &[s, e] : all) {
            if (s <= lo && hi <= e) {
                total += hi - lo;
                break;
            }
        }
    }
    return total;
}

TEST(IntervalUnionTest, RetireMatchesBruteForceWithOutOfOrderStarts)
{
    // Crossbar-like stream: every transfer starts at or after the
    // current tick but behind a random per-port backlog, so starts
    // arrive out of order and intervals overlap.
    std::mt19937_64 rng(7);
    IntervalUnion u;
    std::vector<std::pair<Tick, Tick>> all;
    Tick now = 0;
    for (int i = 0; i < 1500; ++i) {
        now += rng() % 40;
        u.retire(now);
        Tick start = now + rng() % 300;
        Tick end = start + 1 + rng() % 120;
        u.add(start, end);
        all.emplace_back(start, end);
        if (i % 97 == 0) {
            for (Tick upTo : {now, now + 50, now + 500}) {
                ASSERT_EQ(u.covered(upTo), bruteForceCovered(all, upTo))
                    << "after " << i << " adds, upTo " << upTo;
            }
        }
    }
    EXPECT_EQ(u.watermark(), now);
    EXPECT_EQ(u.covered(), bruteForceCovered(all, maxTick));
    // Only intervals still open at the watermark stay stored.
    EXPECT_LT(u.numIntervals(), 200u);
}

TEST(IntervalUnionTest, RetireFoldsOnlyWhatEndedBeforeTheWatermark)
{
    IntervalUnion u;
    for (Tick t = 0; t < 1000; t += 10)
        u.add(t, t + 5); // 100 disjoint intervals, 500 covered
    u.add(1000, 2000);   // still open at the watermark below
    u.retire(1000);
    EXPECT_EQ(u.numIntervals(), 1u);
    EXPECT_EQ(u.covered(1000), 500u);
    EXPECT_EQ(u.covered(1500), 1000u);
    EXPECT_EQ(u.covered(), 1500u);
    EXPECT_EQ(u.rawSum(), 1500u);
}

TEST(IntervalUnionTest, WatermarkNeverMovesBackwards)
{
    IntervalUnion u;
    u.retire(100);
    u.retire(50);
    EXPECT_EQ(u.watermark(), 100u);
    u.add(100, 110); // starting exactly at the watermark is fine
    EXPECT_EQ(u.covered(100), 0u);
    EXPECT_EQ(u.covered(), 10u);
}

TEST(IntervalUnionTest, AddBelowWatermarkPanics)
{
    IntervalUnion u;
    u.add(0, 10);
    u.retire(20);
    EXPECT_THROW(u.add(15, 30), PanicError);
    u.add(15, 15); // empty intervals are ignored, as before
    EXPECT_EQ(u.covered(), 10u);
}

TEST(IntervalUnionTest, CoveredBelowWatermarkPanics)
{
    IntervalUnion u;
    u.add(0, 10);
    u.retire(20);
    EXPECT_THROW(u.covered(19), PanicError);
    EXPECT_EQ(u.covered(20), 10u);
    // The empty window [0, 0) is exact at any watermark.
    EXPECT_EQ(u.covered(0), 0u);
}

} // namespace
} // namespace relief
