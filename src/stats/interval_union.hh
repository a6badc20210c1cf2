/**
 * @file
 * Union of time intervals, used for occupancy statistics ("fraction of
 * time at least one transaction was in flight"). Intervals may be added
 * out of order and may overlap; the covered time is computed by a merge
 * at query time.
 *
 * Long runs bound the tracker's memory with retire(now): the caller
 * promises that no later interval starts before @p now, which lets
 * every interval ending at or before the watermark fold into a running
 * sum. covered() stays exact for any upTo at or after the watermark,
 * and for upTo == 0.
 */

#ifndef RELIEF_STATS_INTERVAL_UNION_HH
#define RELIEF_STATS_INTERVAL_UNION_HH

#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace relief
{

class IntervalUnion
{
  public:
    /** Record the half-open busy interval [start, end). Panics when a
     *  non-empty interval starts before the retire watermark. */
    void add(Tick start, Tick end);

    /** Total time covered by the union of all intervals, clipped to
     *  [0, upTo). Panics when @p upTo is non-zero and below the retire
     *  watermark. */
    Tick covered(Tick upTo = maxTick) const;

    /**
     * Declare that no later add() starts before @p now (a non-decreasing
     * watermark; smaller values are ignored). Intervals that end at or
     * before the watermark are folded into a running sum, amortized
     * over adds, so the stored interval count stays bounded by the
     * intervals still open at the watermark.
     */
    void retire(Tick now);

    /** Sum of raw interval lengths (counts overlap multiple times). */
    Tick rawSum() const { return rawSum_; }

    /** Intervals currently stored (not yet folded by retire()). */
    std::size_t numIntervals() const { return intervals_.size(); }

    /** Current retire watermark (0 until retire() is called). */
    Tick watermark() const { return watermark_; }

  private:
    /** Minimum stored-interval count before retire() compacts. */
    static constexpr std::size_t minCompact = 64;

    /** Sort and merge the stored intervals; fold those ending at or
     *  before the watermark into retiredSum_. */
    void compact();

    mutable std::vector<std::pair<Tick, Tick>> intervals_;
    mutable bool sorted_ = true;
    Tick rawSum_ = 0;
    Tick watermark_ = 0;
    Tick retiredSum_ = 0;
    std::size_t compactAt_ = minCompact;
};

} // namespace relief

#endif // RELIEF_STATS_INTERVAL_UNION_HH
