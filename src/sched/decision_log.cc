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
DecisionLog::record(const PromotionDecision &decision)
{
    RELIEF_ASSERT(decision.queueDepth <= ~std::uint32_t(0),
                  "ready-queue depth ", decision.queueDepth,
                  " overflows a decision record");
    std::size_t slot = size_ % chunkSize;
    if (slot == 0 && size_ / chunkSize == chunks_.size()) {
        // Left uninitialized: a record is written in full below before
        // anything can read it, and untouched pages cost no memory.
        chunks_.emplace_back(new Record[chunkSize]);
    }
    Record &r = chunks_[size_ / chunkSize][slot];
    r.when = decision.when;
    r.node = decision.node;
    r.laxity = decision.laxity;
    r.victimNode = decision.victimNode;
    r.victimSlack = decision.victimSlack;
    r.label = intern(decision.label);
    r.victim = decision.victim.empty() ? noLabel : intern(decision.victim);
    r.queueDepth = std::uint32_t(decision.queueDepth);
    r.type = decision.type;
    r.granted = decision.granted;
    r.reason = std::uint8_t(decision.reason);
    ++size_;
    if (decision.granted)
        ++granted_;
}

std::uint32_t
DecisionLog::intern(std::string_view label)
{
    // Fibonacci hash of the buffer address: labels live in nodes and
    // DAG tables a few dozen bytes apart, so the low bits alone collide.
    std::uint64_t addr = std::uint64_t(std::uintptr_t(label.data()));
    CacheEntry &entry =
        cache_[(addr * 0x9E3779B97F4A7C15ull) >> (64 - cacheBits)];
    if (entry.data == label.data() && entry.length == label.size() &&
        labelViews_[entry.id] == label) {
        return entry.id;
    }

    std::uint32_t id;
    auto found = labelIndex_.find(label);
    if (found != labelIndex_.end()) {
        id = found->second;
    } else {
        id = std::uint32_t(labelViews_.size());
        RELIEF_ASSERT(id != noLabel, "decision label table is full");
        std::string_view copy = labels_.emplace_back(label);
        labelViews_.push_back(copy);
        labelIndex_.emplace(copy, id);
    }
    entry = {label.data(), label.size(), id};
    return id;
}

PromotionDecision
DecisionLog::materialize(std::size_t index) const
{
    const Record &r = chunks_[index / chunkSize][index % chunkSize];
    PromotionDecision d;
    d.when = r.when;
    d.node = r.node;
    d.label = labelViews_[r.label];
    d.laxity = r.laxity;
    d.queueDepth = r.queueDepth;
    if (r.victim != noLabel)
        d.victim = labelViews_[r.victim];
    d.victimNode = r.victimNode;
    d.victimSlack = r.victimSlack;
    d.type = r.type;
    d.granted = r.granted;
    d.reason = PromotionReason(r.reason);
    return d;
}

PromotionDecision
DecisionLog::at(std::size_t index) const
{
    RELIEF_ASSERT(index < size_, "decision index ", index, " out of range");
    return materialize(index);
}

void
DecisionLog::writeJson(std::ostream &os) const
{
    os << "[\n";
    bool first = true;
    for (const PromotionDecision &d : decisions()) {
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
    chunks_.clear();
    size_ = 0;
    granted_ = 0;
    labelIndex_.clear();
    labelViews_.clear();
    labels_.clear();
    cache_.assign(cacheSize, CacheEntry{});
}

} // namespace relief
