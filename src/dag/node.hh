/**
 * @file
 * Task-DAG node (the paper's Table III structure).
 *
 * A node is one accelerator task. It records graph structure (parents/
 * children), the operation parameters driving the timing model, the
 * per-scheme relative deadlines computed at finalize time, and the
 * runtime bookkeeping the manager and scheduler maintain (status,
 * predicted runtime, laxity key, forwarding metadata, timestamps).
 */

#ifndef RELIEF_DAG_NODE_HH
#define RELIEF_DAG_NODE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "acc/compute_model.hh"
#include "sim/ticks.hh"

namespace relief
{

class Dag;
class Accelerator;

/** Node lifecycle. */
enum class NodeStatus : std::uint8_t
{
    Waiting,  ///< Some parent has not finished.
    Ready,    ///< In a ready queue.
    Running,  ///< Launched on an accelerator.
    Finished, ///< Completed; output produced.
};

/** How a node's input operand was satisfied (Fig. 5's categories). */
enum class InputSource : std::uint8_t
{
    Dram,      ///< Loaded from main memory.
    Forwarded, ///< Pulled from the producer's scratchpad.
    Colocated, ///< Produced in place on the same accelerator.
};

/** Which producer accelerator/partition holds a parent's output
 *  (paper Table III: producer_acc / producer_spm). */
struct ProducerRef
{
    Accelerator *acc = nullptr;
    int partition = -1;
};

/**
 * Tick-stamped phase transitions of one node execution, recorded by
 * the hardware manager:
 *
 *   submitted -> depsReady -> queued -> dispatched -> loadStart
 *             -> loadEnd (compute begins) -> computeEnd -> complete,
 *
 * plus the asynchronous write-back window [wbStart, wbEnd) when the
 * output went to DRAM. The CriticalPath analyzer consumes these
 * timelines to attribute end-to-end DAG latency to buckets
 * (src/manager/critical_path.hh).
 */
struct NodeLifecycle
{
    Tick submitted = 0;  ///< Owning DAG's submission was processed.
    Tick depsReady = 0;  ///< Last parent finished (roots: submitted).
    Tick queued = 0;     ///< Entered its ready queue (ISR+push done).
    Tick dispatched = 0; ///< Launch began on an accelerator.
    Tick loadStart = 0;  ///< Output partition allocated, inputs issued.
    Tick loadEnd = 0;    ///< All operands resident; compute begins.
    Tick computeEnd = 0; ///< Functional unit done; completion raised.
    Tick wbStart = 0;    ///< Write-back issued (0 when elided).
    Tick wbEnd = 0;      ///< Write-back delivered (0 when elided).
};

/**
 * Optional functional payload: computes the node's output buffer from
 * its parents' output buffers (in parent order). External operands are
 * captured inside the closure by the DAG builders.
 */
using NodeFn = std::function<std::vector<float>(
    const std::vector<const std::vector<float> *> &)>;

struct Node
{
    // --- Static structure (set by the builder) ---
    NodeId id = 0;            ///< Globally unique, > 0.
    Dag *dag = nullptr;       ///< Owning DAG.
    int indexInDag = -1;      ///< Position in the DAG's node list.
    /** Compute-jitter bucket in [0, 2000], hashed from the label by
     *  Dag::finalize: the manager scales compute time by
     *  1 + amplitude * (jitterBucket / 1000 - 1). */
    std::uint16_t jitterBucket = 0;
    std::string label;        ///< Debug label, e.g. "canny.sobel_x".
    TaskParams params;        ///< Operation for the timing model.
    std::vector<Node *> parents;
    std::vector<Node *> children;
    NodeFn fn;                ///< Optional functional payload.

    /** Runtime override for synthetic/example DAGs (0 = use model). */
    Tick fixedRuntime = 0;

    // --- Deadlines (relative to DAG arrival; set by Dag::finalize) ---
    Tick relDeadlineCp = 0;  ///< Critical-path (ALAP) sub-deadline.
    Tick relDeadlineSdr = 0; ///< HetSched SDR sub-deadline.

    // --- Scheduler/manager state ---
    NodeStatus status = NodeStatus::Waiting;
    bool isFwd = false;         ///< Promoted as a forwarding node.
    std::uint32_t completedParents = 0;
    Tick deadline = 0;          ///< Absolute deadline (scheme applied).
    /** Policy-independent absolute deadline (critical-path scheme) the
     *  deadline-met statistics are scored against, so policies with
     *  different internal deadline assignments stay comparable. */
    Tick scoreDeadline = 0;
    Tick predictedRuntime = 0;  ///< Estimated at ready-queue insert.
    STick laxityKey = 0;        ///< deadline - predictedRuntime.
    /** computeTicks() as cached by Dag::finalize (0 = not cached).
     *  Placed where the layout had padding, so Node stays 408 B
     *  (docs/performance.md, "Heap-trim hazard"). */
    Tick cachedCompute = 0;
    std::vector<ProducerRef> producerRefs; ///< Parallel to parents.
    std::vector<InputSource> inputSources; ///< Parallel to parents.

    // --- Outcome timestamps ---
    Tick readyAt = 0;
    Tick launchedAt = 0;
    Tick finishedAt = 0;
    Tick actualMemTime = 0; ///< Measured input-load + write-back time.
    NodeLifecycle lifecycle; ///< Full phase-transition timeline.

    /** Functional result (filled when fn is set and the node runs). */
    std::vector<float> outputData;

    /**
     * Profiled compute time: fixedRuntime when set, else
     * computeTime(params). Dag::finalize caches it, so params and
     * fixedRuntime must not change after finalize; before it, the
     * value is computed on each call.
     */
    Tick
    computeTicks() const
    {
        if (cachedCompute)
            return cachedCompute;
        return fixedRuntime ? fixedRuntime : computeTime(params);
    }

    /** Bytes this node's output occupies. */
    std::uint64_t outputSize() const { return outputBytes(params); }

    /** Bytes of one input operand. */
    std::uint64_t inputOperandSize() const
    {
        return inputBytesPerOperand(params);
    }

    /** Operands loaded from DRAM regardless of scheduling (weights,
     *  primary inputs): total declared inputs minus parent edges. */
    int
    externalInputs() const
    {
        int ext = params.numInputs - int(parents.size());
        return ext > 0 ? ext : 0;
    }

    /** True once finished before its (policy-independent) deadline. */
    bool
    deadlineMet() const
    {
        return status == NodeStatus::Finished &&
               finishedAt <= scoreDeadline;
    }

    bool isRoot() const { return parents.empty(); }
    bool isLeaf() const { return children.empty(); }

    /** Reset scheduler/outcome state so the DAG can be resubmitted. */
    void resetRuntimeState();
};

} // namespace relief

#endif // RELIEF_DAG_NODE_HH
