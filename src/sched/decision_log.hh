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
 * Recording copies no strings: a decision's label and victim are views
 * into a label table the log owns, interned once per distinct label
 * text. Node ids play no part, so the table grows with the number of
 * distinct labels, not with the number of nodes (serving runs draw
 * fresh ids for every request). Recorded labels therefore outlive the
 * DAG they name and resetNodeIds() reuse.
 */

#ifndef RELIEF_SCHED_DECISION_LOG_HH
#define RELIEF_SCHED_DECISION_LOG_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
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
    // The narrow fields come last so the record packs tightly: the
    // log keeps one per forwarding candidate for the whole run.
    AccType type = AccType(0); ///< Target accelerator type.
    bool granted = false;
    PromotionReason reason = PromotionReason::Feasible;

    /** One-line rendering, shared by the Sched debug flag. */
    std::string summary() const;
};

class DecisionLog
{
  public:
    DecisionLog() = default;
    /** Recorded decisions view this log's label table: not copyable. */
    DecisionLog(const DecisionLog &) = delete;
    DecisionLog &operator=(const DecisionLog &) = delete;

    /** Append @p decision, re-pointing its label and victim at the
     *  log's interned copies. */
    void record(PromotionDecision decision);

    std::size_t size() const { return decisions_.size(); }
    const PromotionDecision &at(std::size_t index) const;
    const std::vector<PromotionDecision> &decisions() const
    {
        return decisions_;
    }

    std::uint64_t numGranted() const { return granted_; }
    std::uint64_t numDenied() const
    {
        return decisions_.size() - granted_;
    }

    /** JSON array of decision objects (times in ticks). */
    void writeJson(std::ostream &os) const;

    void clear();

  private:
    /** The table's copy of @p label, interning it on first sight. */
    std::string_view intern(std::string_view label);

    std::vector<PromotionDecision> decisions_;
    std::uint64_t granted_ = 0;
    /** Interned labels; a deque never moves its elements, so views into
     *  them stay valid as the table grows. */
    std::deque<std::string> labels_;
    /** Views of the labels_ entries, for lookup by content. */
    std::unordered_set<std::string_view> labelIndex_;
};

} // namespace relief

#endif // RELIEF_SCHED_DECISION_LOG_HH
