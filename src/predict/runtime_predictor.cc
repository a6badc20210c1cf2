#include "predict/runtime_predictor.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace relief
{

const char *
dmPredictorName(DmPredictorKind kind)
{
    switch (kind) {
      case DmPredictorKind::Max:
        return "Max";
      case DmPredictorKind::Graph:
        return "Graph";
    }
    return "unknown";
}

RuntimePredictor::RuntimePredictor(
    BwPredictorKind bw_kind, DmPredictorKind dm_kind, double max_gbs,
    const std::array<int, numAccTypes> &instances)
    : bw_(bw_kind, max_gbs), dmKind_(dm_kind), instances_(instances)
{
}

namespace
{

/**
 * Graph DM prediction, input side: a parent edge contributes no bytes
 * if this node is predicted to colocate with the parent — it uses the
 * parent's accelerator type and has the earliest deadline among the
 * parent's children of that type (Section III-B: only one child can
 * colocate, predicted to be the earliest-deadline one).
 */
bool
predictColocation(const Node &node, const Node &parent)
{
    if (parent.params.type != node.params.type)
        return false;
    const Node *best = nullptr;
    for (const Node *child : parent.children) {
        if (child->params.type != parent.params.type)
            continue;
        if (!best || child->relDeadlineCp < best->relDeadlineCp)
            best = child;
    }
    return best == &node;
}

/**
 * Graph DM prediction, output side: no write-back if every child can
 * forward, i.e. (a) the children fit the accelerator instances of each
 * type without queueing behind one another, and (b) this node is the
 * latest-finishing parent (by deadline) of every child.
 */
bool
predictAllChildrenForward(const Node &node,
                          const std::array<int, numAccTypes> &instances)
{
    if (node.children.empty())
        return false;
    std::array<int, numAccTypes> demand{};
    for (const Node *child : node.children) {
        if (++demand[accIndex(child->params.type)] >
            instances[accIndex(child->params.type)]) {
            return false;
        }
        for (const Node *parent : child->parents) {
            if (parent != &node &&
                parent->relDeadlineCp > node.relDeadlineCp) {
                return false; // A later parent gates the child.
            }
        }
    }
    return true;
}

} // namespace

std::uint64_t
RuntimePredictor::predictBytes(const Node &node) const
{
    std::uint64_t operand = node.inputOperandSize();
    if (dmKind_ == DmPredictorKind::Max) {
        return std::uint64_t(node.params.numInputs) * operand +
               node.outputSize();
    }

    std::uint64_t bytes =
        std::uint64_t(node.externalInputs()) * operand;
    for (const Node *parent : node.parents) {
        if (!predictColocation(node, *parent))
            bytes += operand;
    }
    if (!predictAllChildrenForward(node, instances_))
        bytes += node.outputSize();
    return bytes;
}

Tick
RuntimePredictor::predictMemoryTime(const Node &node) const
{
    if (node.fixedRuntime)
        return 0; // Synthetic nodes carry their full runtime directly.
    return transferTime(predictBytes(node), bw_.predict());
}

Tick
RuntimePredictor::predict(const Node &node) const
{
    if (node.fixedRuntime)
        return node.fixedRuntime;
    return node.computeTicks() + predictMemoryTime(node);
}

void
RuntimePredictor::observeBandwidth(double achieved_gbs)
{
    bw_.observe(achieved_gbs);
}

void
RuntimePredictor::recordComputeOutcome(Tick predicted, Tick actual)
{
    if (actual == 0)
        return;
    double err = (double(predicted) - double(actual)) / double(actual) *
                 100.0;
    computeError_.sample(err);
    computeErrorAbs_.sample(std::abs(err));
}

void
RuntimePredictor::recordMemoryOutcome(Tick predicted, Tick actual)
{
    if (actual == 0)
        return;
    double err = (double(predicted) - double(actual)) / double(actual) *
                 100.0;
    memoryError_.sample(err);
    memoryErrorAbs_.sample(std::abs(err));
}

double
RuntimePredictor::computeErrorPct() const
{
    return computeError_.mean();
}

double
RuntimePredictor::memoryErrorPct() const
{
    return memoryError_.mean();
}

} // namespace relief
