#include "stats/interval_union.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace relief
{

void
IntervalUnion::add(Tick start, Tick end)
{
    if (end <= start)
        return;
    RELIEF_ASSERT(start >= watermark_, "interval [", start, ", ", end,
                  ") starts before the retire watermark ", watermark_);
    if (!intervals_.empty() && start < intervals_.back().first)
        sorted_ = false;
    intervals_.emplace_back(start, end);
    rawSum_ += end - start;
}

Tick
IntervalUnion::covered(Tick upTo) const
{
    // [0, 0) is empty whatever the watermark: stats read before a run
    // ends ask for it.
    if (upTo == 0)
        return 0;
    RELIEF_ASSERT(upTo >= watermark_, "coverage queried up to ", upTo,
                  ", below the retire watermark ", watermark_);
    // Retired intervals all end at or before the watermark, so they lie
    // inside [0, upTo) and are disjoint from everything still stored.
    Tick total = retiredSum_;
    if (intervals_.empty())
        return total;
    if (!sorted_) {
        std::sort(intervals_.begin(), intervals_.end());
        sorted_ = true;
    }
    Tick curStart = 0, curEnd = 0;
    bool open = false;
    for (const auto &[s0, e0] : intervals_) {
        Tick s = std::min(s0, upTo);
        Tick e = std::min(e0, upTo);
        if (e <= s)
            continue;
        if (!open) {
            curStart = s;
            curEnd = e;
            open = true;
        } else if (s <= curEnd) {
            curEnd = std::max(curEnd, e);
        } else {
            total += curEnd - curStart;
            curStart = s;
            curEnd = e;
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

void
IntervalUnion::retire(Tick now)
{
    watermark_ = std::max(watermark_, now);
    if (intervals_.size() >= compactAt_)
        compact();
}

void
IntervalUnion::compact()
{
    if (!sorted_) {
        std::sort(intervals_.begin(), intervals_.end());
        sorted_ = true;
    }
    // Merge into maximal runs, writing the ones still open at the
    // watermark back in place. A run ending at or before the watermark
    // is disjoint from every run kept and, by the retire contract, from
    // every later interval: its length is final.
    std::size_t kept = 0;
    auto flush = [this, &kept](Tick s, Tick e) {
        if (e <= watermark_)
            retiredSum_ += e - s;
        else
            intervals_[kept++] = {s, e};
    };
    Tick curStart = intervals_.front().first;
    Tick curEnd = intervals_.front().second;
    for (std::size_t i = 1; i < intervals_.size(); ++i) {
        auto [s, e] = intervals_[i];
        if (s <= curEnd) {
            curEnd = std::max(curEnd, e);
        } else {
            flush(curStart, curEnd);
            curStart = s;
            curEnd = e;
        }
    }
    flush(curStart, curEnd);
    intervals_.resize(kept);
    compactAt_ = std::max(minCompact, 2 * kept);
}

} // namespace relief
