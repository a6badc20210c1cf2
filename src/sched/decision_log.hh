/**
 * @file
 * Structured log of RELIEF promotion decisions.
 *
 * Every forwarding candidate that reaches Algorithm 1's promotion loop
 * produces one PromotionDecision: the candidate's identity and laxity,
 * the queue it targeted, whether promotion was granted, and why. On a
 * denial caused by the feasibility check, the decision also names the
 * *victim* — the waiting node whose laxity could not absorb the
 * candidate's runtime — and the (negative) slack it would have been
 * left with.
 *
 * The log is queryable in-process (tests assert on individual
 * decisions), exportable as a JSON array, and mirrored line-by-line on
 * the Sched debug flag, so `--debug-flags Sched` prints exactly what
 * the log records.
 *
 * Recording copies no strings: a decision's label and victim are ids
 * into a label table the log owns, interned once per distinct label
 * text. Node ids play no part, so the table grows with the number of
 * distinct labels, not with the number of nodes (serving runs draw
 * fresh ids for every request). Recorded labels therefore outlive the
 * DAG they name and resetNodeIds() reuse.
 *
 * The log keeps one record per forwarding candidate for the whole run,
 * so records are stored compactly (56 B) in fixed-size chunks that are
 * never copied as the log grows, and read back by value: at() and
 * decisions() materialize a PromotionDecision whose label views point
 * into the table.
 */

#ifndef RELIEF_SCHED_DECISION_LOG_HH
#define RELIEF_SCHED_DECISION_LOG_HH

#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "acc/acc_types.hh"
#include "dag/node.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Why a promotion was granted or denied. */
enum class PromotionReason
{
    Feasible,        ///< Granted: no bypassed node misses its deadline.
    CheckDisabled,   ///< Granted greedily (feasibility ablation).
    NoIdleInstance,  ///< Denied: no idle accelerator of this type.
    VictimWouldMiss, ///< Denied: a waiting node would miss its deadline.
};

const char *promotionReasonName(PromotionReason reason);

/** Whether @p reason corresponds to a granted promotion. */
bool promotionGranted(PromotionReason reason);

/** One promotion decision, recorded at scheduling time. */
struct PromotionDecision
{
    Tick when = 0;             ///< Decision time.
    NodeId node = 0;           ///< Candidate node id.
    /** Candidate debug label. Recorded decisions view the log's label
     *  table; a caller may point it at any live string until record(). */
    std::string_view label;
    STick laxity = 0;          ///< Candidate laxity at decision time.
    std::size_t queueDepth = 0; ///< Ready-queue depth before insertion.
    /** Label of the bounding non-forwarding node the feasibility scan
     *  stopped at; empty when the scan found none. Same lifetime rule
     *  as label. */
    std::string_view victim;
    NodeId victimNode = 0; ///< The victim's node id (0 = none).
    /** The victim's laxity minus the candidate's runtime: what the
     *  victim keeps after absorbing the bypass (negative on denial). */
    STick victimSlack = 0;
    AccType type = AccType(0); ///< Target accelerator type.
    bool granted = false;
    PromotionReason reason = PromotionReason::Feasible;

    /** One-line rendering, shared by the Sched debug flag. */
    std::string summary() const;
};

class DecisionLog
{
  public:
    /** Records per storage chunk. */
    static constexpr std::size_t chunkSize = 1024;

    /** Read-only range over the log, oldest first. Its iterator
     *  materializes each PromotionDecision by value. */
    class Range
    {
      public:
        class iterator
        {
          public:
            using iterator_category = std::input_iterator_tag;
            using value_type = PromotionDecision;
            using difference_type = std::ptrdiff_t;
            using pointer = void;
            using reference = PromotionDecision;

            iterator(const DecisionLog *log, std::size_t index)
                : log_(log), index_(index)
            {
            }

            PromotionDecision operator*() const
            {
                return log_->materialize(index_);
            }

            iterator &
            operator++()
            {
                ++index_;
                return *this;
            }

            bool
            operator==(const iterator &other) const
            {
                return index_ == other.index_;
            }

            bool
            operator!=(const iterator &other) const
            {
                return index_ != other.index_;
            }

          private:
            const DecisionLog *log_;
            std::size_t index_;
        };

        explicit Range(const DecisionLog *log) : log_(log) {}
        iterator begin() const { return {log_, 0}; }
        iterator end() const { return {log_, log_->size()}; }
        std::size_t size() const { return log_->size(); }

      private:
        const DecisionLog *log_;
    };

    DecisionLog() = default;
    /** Recorded decisions view this log's label table: not copyable. */
    DecisionLog(const DecisionLog &) = delete;
    DecisionLog &operator=(const DecisionLog &) = delete;

    /** Append @p decision, interning its label and victim. */
    void record(const PromotionDecision &decision);

    std::size_t size() const { return size_; }
    /** Decision @p index, its labels viewing the log's label table. */
    PromotionDecision at(std::size_t index) const;
    Range decisions() const { return Range(this); }

    std::uint64_t numGranted() const { return granted_; }
    std::uint64_t numDenied() const { return size_ - granted_; }

    /** JSON array of decision objects (times in ticks). */
    void writeJson(std::ostream &os) const;

    void clear();

  private:
    /** One decision as stored: labels become table ids and the depth
     *  narrows to 32 bits. */
    struct Record
    {
        Tick when;
        NodeId node;
        STick laxity;
        NodeId victimNode;
        STick victimSlack;
        std::uint32_t label;
        std::uint32_t victim; ///< noLabel when the record has none.
        std::uint32_t queueDepth;
        AccType type;
        bool granted;
        std::uint8_t reason; ///< A PromotionReason.
    };
    static_assert(sizeof(Record) <= 56, "decision record grew past 56 B");

    /** Victim id of a record without one. */
    static constexpr std::uint32_t noLabel = ~std::uint32_t(0);
    /** Entries of the label-id cache in front of the content index:
     *  enough for the live labels (candidates and victims) of a mix. */
    static constexpr int cacheBits = 10;
    static constexpr std::size_t cacheSize = std::size_t(1) << cacheBits;

    /** Label-id cache entry, keyed by the caller's buffer address and
     *  length; a hit still compares content, since a recycled buffer
     *  can hold other text at the same address. */
    struct CacheEntry
    {
        const char *data = nullptr;
        /** npos marks an empty slot: no label is that long, so even a
         *  null, empty label misses it. */
        std::size_t length = std::string_view::npos;
        std::uint32_t id = 0;
    };

    /** Table id of @p label, interning it on first sight. */
    std::uint32_t intern(std::string_view label);
    PromotionDecision materialize(std::size_t index) const;

    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::size_t size_ = 0;
    std::uint64_t granted_ = 0;
    /** Interned labels; a deque never moves its elements, so views into
     *  them stay valid as the table grows. */
    std::deque<std::string> labels_;
    /** Views of labels_ by id. */
    std::vector<std::string_view> labelViews_;
    /** Label ids by content. */
    std::unordered_map<std::string_view, std::uint32_t> labelIndex_;
    std::vector<CacheEntry> cache_ = std::vector<CacheEntry>(cacheSize);
};

} // namespace relief

#endif // RELIEF_SCHED_DECISION_LOG_HH
