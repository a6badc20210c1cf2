/**
 * @file
 * Scheduling-policy interface and the policy catalogue.
 *
 * Policies evaluated in the paper (Section II-C):
 *  - FCFS:      append to tail (GAM+'s non-preemptive round-robin).
 *  - GEDF-D:    earliest deadline first, DAG deadline as node deadline
 *               (VIP).
 *  - GEDF-N:    earliest deadline first, critical-path node deadlines.
 *  - LL:        least laxity first, critical-path deadlines.
 *  - LAX:       LL + de-prioritization of negative-laxity nodes (Yeh et
 *               al.).
 *  - HetSched:  least laxity with SDR-distributed sub-deadlines.
 *  - RELIEF:    this paper — LL plus laxity-throttled promotion of
 *               forwarding nodes (Algorithms 1 and 2).
 *  - RELIEF-LAX: RELIEF + LAX's de-prioritization (Section V-E).
 */

#ifndef RELIEF_SCHED_POLICY_HH
#define RELIEF_SCHED_POLICY_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "dag/dag.hh"
#include "sched/ready_queue.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Catalogue of implemented policies. */
enum class PolicyKind
{
    Fcfs,
    GedfD,
    GedfN,
    LL,
    Lax,
    HetSched,
    ReliefLax,
    Relief,
    /** Section VII extension: RELIEF over HetSched's SDR-distributed
     *  laxity instead of plain least-laxity. */
    ReliefHetSched,
};

/** All policies in the paper's figure order. */
extern const std::vector<PolicyKind> allPolicies;

/** The six policies the headline figures compare. */
extern const std::vector<PolicyKind> mainPolicies;

const char *policyName(PolicyKind kind);

/** System snapshot handed to the policy on every scheduling event. */
struct SchedContext
{
    Tick now = 0;
    /** Idle accelerator instances per type (RELIEF's max_forwards). */
    std::array<int, std::size_t(numAccTypes)> idleCount{};
};

class Policy
{
  public:
    virtual ~Policy() = default;

    virtual PolicyKind kind() const = 0;
    std::string name() const { return policyName(kind()); }

    /** Which relative node deadline this policy schedules against. */
    virtual DeadlineScheme deadlineScheme() const = 0;

    /**
     * Insert newly ready nodes into the ready queues. When the nodes
     * are children of a node that just finished, they are forwarding
     * candidates (RELIEF cares; baselines just sort them in). Nodes
     * must already carry deadline/predictedRuntime/laxityKey.
     */
    virtual void onNodesReady(const std::vector<Node *> &ready,
                              const SchedContext &ctx,
                              ReadyQueues &queues) = 0;

    /**
     * Pick (and remove) the next node to launch on an idle accelerator
     * of @p type; nullptr if the queue is empty. Default: pop head.
     */
    virtual Node *selectNext(AccType type, ReadyQueues &queues, Tick now);

    /**
     * Modeled manager time for one ready-queue insertion at queue
     * length @p queue_len (Cortex-A7 class microcontroller; Fig. 12's
     * magnitudes). Used by the manager's scheduling-latency model.
     */
    virtual Tick pushCost(std::size_t queue_len) const;
};

/**
 * Construct a policy instance. Clearing @p feasibility_check disables
 * the RELIEF family's is_feasible() throttle (the ablation); the other
 * policies ignore it.
 */
std::unique_ptr<Policy> makePolicy(PolicyKind kind,
                                   bool feasibility_check = true);

} // namespace relief

#endif // RELIEF_SCHED_POLICY_HH
