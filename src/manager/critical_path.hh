/**
 * @file
 * Critical-path latency attribution for finished DAGs.
 *
 * The hardware manager stamps every node's lifecycle transitions
 * (dag/node.hh NodeLifecycle). When a DAG completes, the CriticalPath
 * analyzer walks those timelines backwards from the last-finishing
 * node, at each step jumping to the parent whose completion gated the
 * node, and attributes every tick of end-to-end DAG latency to one of
 * six buckets:
 *
 *   queueWait       ready-queue residency (queued -> dispatched),
 *   managerOverhead ISR + sorted-insert serialization on the manager
 *                   timeline (depsReady -> queued),
 *   dmaIn           operand loading: DRAM reads, SPM-to-SPM forwards,
 *                   eviction write-backs blocking the output partition
 *                   (loadStart -> loadEnd),
 *   compute         functional-unit execution (loadEnd -> computeEnd),
 *   dmaOut          write-backs that delayed a successor. Zero under
 *                   the paper's asynchronous write-back rule — the
 *                   bucket exists to expose regressions should a model
 *                   change ever serialize write-backs into the path,
 *   depStall        scratchpad write-after-read stalls (dispatched ->
 *                   loadStart) and any residual wait on producers.
 *
 * The six buckets partition [arrival, finish] exactly: their sum
 * equals the measured end-to-end DAG latency (asserted in tests to
 * within one tick on every tier-1 workload). Per-DAG records feed the
 * `--latency-breakdown` table, RunMetrics histograms, and the
 * relief-stats-v1 JSON export.
 */

#ifndef RELIEF_MANAGER_CRITICAL_PATH_HH
#define RELIEF_MANAGER_CRITICAL_PATH_HH

#include <string>
#include <vector>

#include "dag/dag.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Where the ticks of one DAG execution went (all six sum to the
 *  end-to-end latency). */
struct LatencyBreakdown
{
    Tick queueWait = 0;       ///< Ready-queue residency.
    Tick managerOverhead = 0; ///< ISR + policy insert serialization.
    Tick dmaIn = 0;           ///< Operand loading (DRAM / forward).
    Tick compute = 0;         ///< Functional-unit execution.
    Tick dmaOut = 0;          ///< Write-backs on the path (see file doc).
    Tick depStall = 0;        ///< SPM write-after-read + producer waits.

    Tick
    total() const
    {
        return queueWait + managerOverhead + dmaIn + compute + dmaOut +
               depStall;
    }
};

/** Bucket count and stable names/accessors for iteration (tables,
 *  JSON, stat registration). */
inline constexpr int numLatencyBuckets = 6;
const char *latencyBucketName(int index);         ///< "queue_wait", ...
Tick latencyBucket(const LatencyBreakdown &b, int index);

/** One finished DAG execution, attributed. */
struct DagLatencyRecord
{
    std::string dag;      ///< DAG name.
    Tick arrival = 0;     ///< Submission processed (manager clock).
    Tick finish = 0;      ///< Last node finished.
    int pathLength = 0;   ///< Nodes on the walked critical path.
    std::vector<const Node *> path; ///< Sink-first critical path.
    LatencyBreakdown buckets;

    Tick latency() const { return finish - arrival; }
};

class CriticalPath
{
  public:
    /**
     * Attribute @p dag's just-finished execution. Requires the DAG to
     * be complete with lifecycle stamps populated by the manager
     * (finish tick == last node's computeEnd).
     */
    static DagLatencyRecord analyze(const Dag &dag);

    /** As above, into @p record, reusing its path and name storage
     *  (the manager attributes every completion into one scratch
     *  record). */
    static void analyze(const Dag &dag, DagLatencyRecord &record);
};

} // namespace relief

#endif // RELIEF_MANAGER_CRITICAL_PATH_HH
