#include "sched/decision_log.hh"

#include <sstream>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace relief
{

const char *
promotionReasonName(PromotionReason reason)
{
    switch (reason) {
      case PromotionReason::Feasible:
        return "feasible";
      case PromotionReason::CheckDisabled:
        return "check-disabled";
      case PromotionReason::NoIdleInstance:
        return "no-idle-instance";
      case PromotionReason::VictimWouldMiss:
        return "victim-would-miss";
    }
    return "?";
}

bool
promotionGranted(PromotionReason reason)
{
    return reason == PromotionReason::Feasible ||
           reason == PromotionReason::CheckDisabled;
}

std::string
PromotionDecision::summary() const
{
    std::ostringstream os;
    os << (granted ? "promote " : "deny ") << label << " (node " << node
       << ", " << accTypeName(type) << "): reason="
       << promotionReasonName(reason) << " laxity=" << laxity
       << " queue_depth=" << queueDepth;
    if (!victim.empty())
        os << " victim=" << victim << " victim_slack=" << victimSlack;
    return os.str();
}

void
DecisionLog::record(PromotionDecision decision)
{
    if (decision.granted)
        ++granted_;
    decision.label = intern(decision.label);
    if (!decision.victim.empty())
        decision.victim = intern(decision.victim);
    decisions_.push_back(decision);
}

std::string_view
DecisionLog::intern(std::string_view label)
{
    auto found = labelIndex_.find(label);
    if (found != labelIndex_.end())
        return *found;
    return *labelIndex_.insert(labels_.emplace_back(label)).first;
}

const PromotionDecision &
DecisionLog::at(std::size_t index) const
{
    RELIEF_ASSERT(index < decisions_.size(),
                  "decision index ", index, " out of range");
    return decisions_[index];
}

void
DecisionLog::writeJson(std::ostream &os) const
{
    os << "[\n";
    bool first = true;
    for (const PromotionDecision &d : decisions_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  {\"tick\": " << d.when << ", \"node\": " << d.node
           << ", \"label\": \"" << jsonEscape(d.label)
           << "\", \"acc\": \"" << accTypeName(d.type)
           << "\", \"laxity\": " << d.laxity
           << ", \"queue_depth\": " << d.queueDepth
           << ", \"granted\": " << (d.granted ? "true" : "false")
           << ", \"reason\": \"" << promotionReasonName(d.reason)
           << "\"";
        if (!d.victim.empty())
            os << ", \"victim\": \"" << jsonEscape(d.victim)
               << "\", \"victim_slack\": " << d.victimSlack;
        os << "}";
    }
    os << "\n]\n";
}

void
DecisionLog::clear()
{
    decisions_.clear();
    granted_ = 0;
    labelIndex_.clear();
    labels_.clear();
}

} // namespace relief
