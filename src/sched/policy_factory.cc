#include "sched/baseline_policies.hh"
#include "sched/policy.hh"
#include "sched/relief.hh"
#include "sim/logging.hh"

namespace relief
{

std::unique_ptr<Policy>
makePolicy(PolicyKind kind, bool feasibility_check)
{
    switch (kind) {
      case PolicyKind::Fcfs:
        return std::make_unique<FcfsPolicy>();
      case PolicyKind::GedfD:
        return std::make_unique<GedfPolicy>(false);
      case PolicyKind::GedfN:
        return std::make_unique<GedfPolicy>(true);
      case PolicyKind::LL:
        return std::make_unique<LeastLaxityPolicy>(
            PolicyKind::LL, DeadlineScheme::CriticalPath, false);
      case PolicyKind::Lax:
        return std::make_unique<LeastLaxityPolicy>(
            PolicyKind::Lax, DeadlineScheme::CriticalPath, true);
      case PolicyKind::HetSched:
        return std::make_unique<LeastLaxityPolicy>(
            PolicyKind::HetSched, DeadlineScheme::Sdr, false);
      case PolicyKind::ReliefLax:
        return std::make_unique<ReliefPolicy>(ReliefOptions{
            true, DeadlineScheme::CriticalPath, feasibility_check});
      case PolicyKind::Relief:
        return std::make_unique<ReliefPolicy>(ReliefOptions{
            false, DeadlineScheme::CriticalPath, feasibility_check});
      case PolicyKind::ReliefHetSched:
        return std::make_unique<ReliefPolicy>(
            ReliefOptions{false, DeadlineScheme::Sdr, feasibility_check});
    }
    panic("unknown policy kind");
}

} // namespace relief
