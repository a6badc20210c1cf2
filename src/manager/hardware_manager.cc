#include "manager/hardware_manager.hh"

#include <algorithm>
#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

namespace
{

/**
 * Pressure-ledger attribution context of @p node's transfers: QoS
 * class from the owning DAG, request id from the serving span context
 * when present (batch runs fall back to the node id, debug only).
 */
TransferCtx
transferCtx(const Node *node)
{
    TransferCtx ctx;
    ctx.qosClass = std::uint8_t(node->dag->qosClass());
    ctx.requestId = node->dag->spanContext()
                        ? node->dag->spanContext()
                        : std::uint64_t(node->id);
    return ctx;
}

} // namespace

HardwareManager::HardwareManager(Simulator &sim, std::string name,
                                 std::unique_ptr<Policy> policy,
                                 std::unique_ptr<RuntimePredictor> predictor,
                                 std::vector<Accelerator *> accelerators,
                                 const ManagerConfig &config)
    : SimObject(sim, std::move(name)), policy_(std::move(policy)),
      predictor_(std::move(predictor)), config_(config)
{
    RELIEF_ASSERT(policy_ != nullptr, "manager needs a policy");
    RELIEF_ASSERT(predictor_ != nullptr, "manager needs a predictor");
    RELIEF_ASSERT(!accelerators.empty(), "manager needs accelerators");
    for (Accelerator *acc : accelerators) {
        AccState state;
        state.acc = acc;
        byType_[accIndex(acc->type())].push_back(int(accs_.size()));
        accs_.push_back(state);
    }
}

int
HardwareManager::idleCount(AccType type) const
{
    int count = 0;
    for (int idx : byType_[accIndex(type)]) {
        const AccState &state = accs_[std::size_t(idx)];
        if (state.current == nullptr)
            ++count;
    }
    return count;
}

int
HardwareManager::instanceCount(AccType type) const
{
    return int(byType_[accIndex(type)].size());
}

Tick
HardwareManager::occupyManager(Tick cost)
{
    if (!config_.modelSchedulingLatency)
        return now();
    Tick start = std::max(now(), managerFreeAt_);
    Tick end = start + cost;
    managerFreeAt_ = end;
    metrics_.managerBusyTime += cost;
    if (trace_)
        trace_->span(trace_->lane("manager"), "sched", start, end, "mgr");
    return end;
}

Tick
HardwareManager::actualComputeTime(const Node &node) const
{
    Tick base = node.computeTicks();
    if (config_.computeJitter <= 0.0)
        return base;
    // Deterministic per-node jitter in [-amplitude, +amplitude]: models
    // the tiny pipeline-level variation real accelerators exhibit. The
    // bucket is hashed from the stable node label at finalize, so
    // identical experiments replay identically across processes.
    double unit = double(node.jitterBucket) / 1000.0 - 1.0;
    double scaled = double(base) * (1.0 + config_.computeJitter * unit);
    return scaled > 1.0 ? Tick(scaled) : Tick(1);
}

void
HardwareManager::submitDag(Dag *dag, Tick when)
{
    RELIEF_ASSERT(dag != nullptr, "submitting null DAG");
    RELIEF_ASSERT(dag->finalized(), "submitting unfinalized DAG ",
                  dag->name());
    Tick submit_cost =
        config_.modelSchedulingLatency ? config_.submitLatency : 0;
    sim().at(std::max(when, now()) + submit_cost, HostCat::Sched,
             [this, dag]() { beginDag(dag); },
             [this, dag] { return name() + ".submit." + dag->name(); });
}

void
HardwareManager::beginDag(Dag *dag)
{
    invalidateDagResidue(dag);
    dag->submit(now());

    DeadlineScheme scheme = policy_->deadlineScheme();
    std::vector<Node *> ready = takeReadyBatch();
    for (Node *node : dag->allNodes()) {
        node->deadline = now() + dag->nodeRelativeDeadline(*node, scheme);
        node->scoreDeadline = now() + node->relDeadlineCp;
        node->lifecycle.submitted = now();
        if (node->isRoot()) {
            node->lifecycle.depsReady = now();
            ready.push_back(node);
        }
    }
    scheduleReadyNodes(std::move(ready));
}

void
HardwareManager::invalidateDagResidue(Dag *dag)
{
    // A DAG's ids are consecutive (Dag::finalize/renumber check it), so
    // one pass over each scratchpad's partitions finds every output of
    // the previous submission.
    for (AccState &state : accs_)
        state.acc->spm().releaseOutputs(dag->firstNodeId(),
                                        dag->lastNodeId());
}

void
HardwareManager::scheduleReadyNodes(std::vector<Node *> ready)
{
    if (ready.empty()) {
        recycleReadyBatch(std::move(ready));
        tryLaunchAll();
        return;
    }

    Tick done = chargeReadyBatch(ready, nullptr);
    sim().at(done, HostCat::Sched,
             [this, ready = std::move(ready)]() mutable {
                 enqueueReadyBatch(std::move(ready));
                 tryLaunchAll();
             },
             [this] { return name() + ".sched"; });
}

Tick
HardwareManager::chargeReadyBatch(const std::vector<Node *> &ready,
                                  const Node *parent)
{
    Tick cost = config_.isrLatency;
    for (Node *node : ready) {
        std::size_t depth = queues_[accIndex(node->params.type)].size();
        Tick push = policy_->pushCost(depth);
        metrics_.pushLatency.sample(double(push));
        metrics_.queueDepth.sample(double(depth));
        metrics_.queueDepthHist.sample(double(depth));
        if (parent) {
            DPRINTF(Sched, "node ", node->label, " ready for ",
                    accTypeName(node->params.type), " (parent ",
                    parent->label, " finished)");
        } else {
            DPRINTF(Sched, "node ", node->label, " ready for ",
                    accTypeName(node->params.type));
        }
        cost += push;
    }
    return occupyManager(cost);
}

void
HardwareManager::enqueueReadyBatch(std::vector<Node *> ready)
{
    SchedContext ctx;
    ctx.now = now();
    for (AccType type : allAccTypes)
        ctx.idleCount[accIndex(type)] = idleCount(type);
    for (Node *node : ready) {
        node->status = NodeStatus::Ready;
        node->readyAt = now();
        node->lifecycle.queued = now();
        node->predictedRuntime = predictor_->predict(*node);
        node->laxityKey =
            STick(node->deadline) - STick(node->predictedRuntime);
    }
    policy_->onNodesReady(ready, ctx, queues_);
    recycleReadyBatch(std::move(ready));
}

std::vector<Node *>
HardwareManager::takeReadyBatch()
{
    if (readyPool_.empty())
        return {};
    std::vector<Node *> batch = std::move(readyPool_.back());
    readyPool_.pop_back();
    return batch;
}

void
HardwareManager::recycleReadyBatch(std::vector<Node *> batch)
{
    batch.clear(); // keeps capacity for the next batch
    readyPool_.push_back(std::move(batch));
}

void
HardwareManager::tryLaunchAll()
{
    for (AccState &state : accs_) {
        if (state.current != nullptr)
            continue;
        auto &q = queues_[accIndex(state.acc->type())];
        if (q.empty())
            continue;
        Node *node =
            policy_->selectNext(state.acc->type(), queues_, now());
        if (node)
            beginLaunch(state, node);
    }
}

void
HardwareManager::beginLaunch(AccState &state, Node *node)
{
    RELIEF_ASSERT(state.current == nullptr,
                  state.acc->name(), ": launch while occupied");
    RELIEF_ASSERT(node->status == NodeStatus::Ready,
                  node->label, ": launching non-ready node");
    state.acc->acquire();
    state.current = node;
    node->status = NodeStatus::Running;
    node->launchedAt = now();
    node->lifecycle.dispatched = now();
    metrics_.queueWait.sample(double(now() - node->readyAt));
    metrics_.queueWaitUs.sample(toUs(now() - node->readyAt));
    DPRINTF(Sched, "launch ", node->label, " on ", state.acc->name(),
            node->isFwd ? " (forwarding)" : "");

    // Which local partitions hold parent outputs (colocation)?
    state.colocMask = 0;
    for (std::size_t i = 0; i < node->parents.size(); ++i) {
        if (canColocate(state, node, i)) {
            state.colocMask |=
                1u << unsigned(node->producerRefs[i].partition);
        }
    }
    tryAllocateAndIssue(state);
}

bool
HardwareManager::canColocate(const AccState &state, const Node *node,
                             std::size_t input_index) const
{
    const ProducerRef &ref = node->producerRefs[input_index];
    if (!config_.forwardingEnabled || ref.acc != state.acc ||
        ref.acc == nullptr) {
        return false;
    }
    const Node *parent = node->parents[input_index];
    if (state.acc->spm().findOutput(parent->id) != ref.partition)
        return false;
    // Paper rule: the scheduler colocates only with the previously
    // executed node. Data that was never written back is also read in
    // place — it exists nowhere else.
    return state.lastExecuted == parent ||
           !state.acc->spm().partition(ref.partition).writtenBack;
}

void
HardwareManager::tryAllocateAndIssue(AccState &state)
{
    Node *node = state.current;
    Scratchpad &spm = state.acc->spm();
    int out = spm.findFreeOutputPartition(state.colocMask);
    if (out < 0) {
        unsigned all_mask = (1u << unsigned(spm.numPartitions())) - 1;
        if ((state.colocMask & all_mask) != all_mask) {
            // Some non-colocated partition has active readers; retry
            // when a consumer's read completes (write-after-read
            // protection).
            state.waitingForSpm = true;
            return;
        }
        // Every partition holds a colocated operand of this very task:
        // waiting would deadlock. Demote one colocation to a main
        // memory read, freeing its partition for the output.
        int victim = 0;
        while (!(state.colocMask & (1u << unsigned(victim))))
            ++victim;
        state.colocMask &= ~(1u << unsigned(victim));
        if (spm.partition(victim).ongoingReads > 0) {
            state.waitingForSpm = true;
            return;
        }
        out = victim;
    }
    state.waitingForSpm = false;

    const SpmPartition &victim = spm.partition(out);
    if (victim.owner != 0) {
        if (victim.dataValid && !victim.writtenBack)
            evictPartition(*state.acc, out);
        spm.release(out);
    }
    spm.allocateOutput(out, node->id, node->outputSize());
    state.outputPartition = out;
    issueInputs(state);
}

void
HardwareManager::evictPartition(Accelerator &acc, int partition)
{
    // Reclaiming a partition whose data never reached DRAM: push it
    // back first so bypassed consumers can still load it from main
    // memory. (The paper's write-back rule makes this rare: outputs
    // are written back immediately unless every child is next in
    // line.)
    const SpmPartition &p = acc.spm().partition(partition);
    // Forced spill: the owning node is long retired, so the transfer
    // carries the spill traffic type and the default QoS class.
    TransferCtx ctx;
    ctx.requestId = std::uint64_t(p.owner);
    ctx.spill = true;
    acc.dma().writeToDram(p.bytes, nullptr, p.owner, ctx);
    acc.spm().markWrittenBack(partition);
}

void
HardwareManager::issueInputs(AccState &state)
{
    Node *node = state.current;
    state.inputStart = now();
    node->lifecycle.loadStart = now();
    state.pendingInputs = 0;

    const std::uint64_t operand = node->inputOperandSize();
    metrics_.baselineBytes +=
        std::uint64_t(node->params.numInputs) * operand +
        node->outputSize();

    // Completion callbacks capture two words at most and ride inside
    // the DMA completion event, so issuing an input allocates nothing.
    auto on_input_done = [this, &state]() { onInputDone(state); };

    for (std::size_t i = 0; i < node->parents.size(); ++i) {
        Node *parent = node->parents[i];
        const ProducerRef &ref = node->producerRefs[i];
        ++metrics_.edgesConsumed;

        if (canColocate(state, node, i) &&
            (state.colocMask &
             (1u << unsigned(ref.partition)))) {
            // Colocation: the operand is already in the local SPM.
            node->inputSources[i] = InputSource::Colocated;
            ++metrics_.colocations;
            metrics_.colocatedBytes += operand;
            traceEdgeFlow(state, node, i, InputSource::Colocated);
            continue;
        }
        bool live = config_.forwardingEnabled && ref.acc != nullptr &&
                    ref.acc != state.acc &&
                    ref.acc->spm().findOutput(parent->id) == ref.partition;
        if (live) {
            // Forward: pull straight from the producer's scratchpad.
            node->inputSources[i] = InputSource::Forwarded;
            ++metrics_.forwards;
            traceEdgeFlow(state, node, i, InputSource::Forwarded);
            Scratchpad &producer_spm = ref.acc->spm();
            producer_spm.beginRead(ref.partition);
            ++state.pendingInputs;
            auto done = [this,
                         consumer = std::uint32_t(&state - accs_.data()),
                         input = std::uint32_t(i)]() {
                onForwardDone(accs_[consumer], input);
            };
            if (config_.forwardMechanism ==
                ForwardMechanism::StreamBuffer) {
                state.acc->dma().streamFrom(
                    producer_spm, ref.acc->dma().port(), operand,
                    std::move(done), transferCtx(node));
            } else {
                state.acc->dma().forwardFrom(
                    producer_spm, ref.acc->dma().port(), operand,
                    std::move(done), transferCtx(node));
            }
            continue;
        }
        // The producer's data is gone (or was written back): DRAM read.
        node->inputSources[i] = InputSource::Dram;
        ++metrics_.dramEdges;
        traceEdgeFlow(state, node, i, InputSource::Dram);
        ++state.pendingInputs;
        Tick end = state.acc->dma().readFromDram(operand, on_input_done,
                                                 parent->id,
                                                 transferCtx(node));
        if (end > now())
            predictor_->observeBandwidth(double(operand) /
                                         double(toNs(end - now())));
    }

    for (int e = 0; e < node->externalInputs(); ++e) {
        ++state.pendingInputs;
        // External buffers (weights, raw frames) get their own stream
        // identity so the banked model spreads them across banks.
        std::uint64_t stream = node->id * 16 + std::uint64_t(e) + 1;
        Tick end = state.acc->dma().readFromDram(operand, on_input_done,
                                                 stream,
                                                 transferCtx(node));
        if (end > now())
            predictor_->observeBandwidth(double(operand) /
                                         double(toNs(end - now())));
    }

    if (state.pendingInputs == 0)
        startCompute(state);
}

void
HardwareManager::onInputDone(AccState &state)
{
    if (--state.pendingInputs == 0)
        startCompute(state);
}

void
HardwareManager::onForwardDone(AccState &state, std::size_t input_index)
{
    // The consumer is still loading, so its producer reference is the
    // one the forward was issued from.
    const ProducerRef &ref = state.current->producerRefs[input_index];
    ref.acc->spm().endRead(ref.partition);
    resumeStalledLaunches();
    onInputDone(state);
}

void
HardwareManager::traceEdgeFlow(const AccState &state, const Node *node,
                               std::size_t input_index,
                               InputSource source)
{
    if (!trace_)
        return;
    const Node *parent = node->parents[input_index];
    const ProducerRef &ref = node->producerRefs[input_index];
    if (ref.acc == nullptr)
        return; // Producer identity lost (resubmission residue).

    const char *category = source == InputSource::Forwarded
                               ? "forward"
                               : source == InputSource::Colocated
                                     ? "colocation"
                                     : "dram";
    // Arrow tail: the producer's completion — or, for an operand that
    // bounced through main memory, the write-back span on the
    // producer's ".wb" lane, which makes the DRAM round trip visually
    // explicit next to the direct forward/colocation arrows.
    int src_lane = trace_->lane(ref.acc->name());
    Tick src_time = parent->lifecycle.computeEnd;
    if (source == InputSource::Dram &&
        parent->lifecycle.wbStart != 0 &&
        parent->lifecycle.wbStart <= now()) {
        src_lane = trace_->lane(ref.acc->name() + ".wb");
        src_time = parent->lifecycle.wbStart;
    }
    trace_->flow(parent->label + " -> " + node->label, category,
                 src_lane, src_time, trace_->lane(state.acc->name()),
                 now());
}

void
HardwareManager::startCompute(AccState &state)
{
    Node *node = state.current;
    node->actualMemTime += now() - state.inputStart;
    node->lifecycle.loadEnd = now();
    Tick duration = actualComputeTime(*node);
    if (trace_) {
        int lane_id = trace_->lane(state.acc->name());
        trace_->span(lane_id, "~load " + node->label, state.inputStart,
                     now(), "dma");
        trace_->span(lane_id, node->label, now(), now() + duration,
                     "compute");
    }
    state.acc->startCompute(duration,
                            [this, &state]() { onComputeDone(state); });
}

void
HardwareManager::onComputeDone(AccState &state)
{
    Node *node = state.current;
    int partition = state.outputPartition;
    node->lifecycle.computeEnd = now();
    state.acc->spm().produceOutput(partition);

    if (node->fn) {
        // Functional payloads are real host compute (kernel math),
        // not scheduler bookkeeping — attribute them separately.
        HostProfScope prof(HostCat::Kernels);
        std::vector<const std::vector<float> *> inputs;
        inputs.reserve(node->parents.size());
        for (Node *parent : node->parents)
            inputs.push_back(&parent->outputData);
        node->outputData = node->fn(inputs);
    }

    state.current = nullptr;
    state.colocMask = 0;
    state.outputPartition = -1;
    state.lastExecuted = node;
    handleNodeCompletion(state, node, partition);
}

void
HardwareManager::handleNodeCompletion(AccState &state, Node *node,
                                      int partition)
{
    node->status = NodeStatus::Finished;
    node->finishedAt = now();
    ++metrics_.nodesFinished;
    if (node->deadlineMet())
        ++metrics_.nodeDeadlinesMet;

    // Compute-time prediction outcome (Table VIII).
    predictor_->recordComputeOutcome(node->computeTicks(),
                                     actualComputeTime(*node));

    Dag *dag = node->dag;
    dag->noteNodeFinished();
    const bool retires = dag->complete();
    if (retires) {
        dag->setFinishTick(now());
        ++metrics_.dagsFinished;
        if (now() <= dag->absoluteDeadline())
            ++metrics_.dagDeadlinesMet;
        // Attribute the finished execution before the completion
        // handler can resubmit the DAG (which resets the lifecycles).
        DagLatencyRecord &attributed = attributed_;
        CriticalPath::analyze(*dag, attributed);
        metrics_.sampleCriticalPath(attributed.buckets);
        DPRINTF(Sched, "dag ", dag->name(), " complete: latency ",
                attributed.latency(), " = queue ",
                attributed.buckets.queueWait, " + mgr ",
                attributed.buckets.managerOverhead, " + dma-in ",
                attributed.buckets.dmaIn, " + compute ",
                attributed.buckets.compute, " + dma-out ",
                attributed.buckets.dmaOut, " + stall ",
                attributed.buckets.depStall);
        // Span-tree assembly (serving layer) must see the record while
        // its node pointers and the lifecycle stamps are still live.
        if (onDagAttributed_)
            onDagAttributed_(dag, attributed);
        // The resubmission path reuses the same Node objects, so keep
        // only labels/ticks alive past this point, not node pointers.
        latencyRecords_.push_back(
            DagLatencyRecord{attributed.dag, attributed.arrival,
                             attributed.finish, attributed.pathLength,
                             {}, attributed.buckets});
        if (onDagComplete_)
            onDagComplete_(dag);
    }

    // Record where this output lives so the children's drivers can
    // find it (Table III: producer_acc / producer_spm).
    std::vector<Node *> ready = takeReadyBatch();
    for (Node *child : node->children) {
        for (std::size_t i = 0; i < child->parents.size(); ++i) {
            if (child->parents[i] == node) {
                child->producerRefs[i] =
                    ProducerRef{state.acc, partition};
            }
        }
        if (++child->completedParents ==
            std::uint32_t(child->parents.size())) {
            child->lifecycle.depsReady = now();
            ready.push_back(child);
        }
    }

    // ISR + scheduler run, serialized on the manager.
    Tick done = chargeReadyBatch(ready, node);
    AccState *state_ptr = &state;
    sim().at(done, HostCat::Sched,
             [this, state_ptr, node, partition, retires,
              ready = std::move(ready)]() mutable {
                 enqueueReadyBatch(std::move(ready));
                 handleWriteBack(*state_ptr, node, partition);

                 // Memory-time prediction outcome (Table VIII), now
                 // that the write-back decision is in.
                 if (!node->fixedRuntime) {
                     Tick compute = node->computeTicks();
                     Tick predicted_mem =
                         node->predictedRuntime >= compute
                             ? node->predictedRuntime - compute
                             : 0;
                     predictor_->recordMemoryOutcome(predicted_mem,
                                                     node->actualMemTime);
                 }
                 tryLaunchAll();
                 // Every sibling's ISR ran earlier: the manager
                 // timeline is FIFO, and without latency modelling
                 // they share this tick at lower sequence numbers.
                 if (retires && onDagRetired_)
                     onDagRetired_(node->dag);
             },
             [this] { return name() + ".isr"; });
}

void
HardwareManager::handleWriteBack(AccState &state, Node *node,
                                 int partition)
{
    Scratchpad &spm = state.acc->spm();
    // The partition may already have been reclaimed (and written back)
    // by a subsequent launch on this accelerator.
    if (spm.findOutput(node->id) != partition)
        return;

    bool write_back = node->children.empty() ||
                      !config_.forwardingEnabled;
    for (Node *child : node->children) {
        if (write_back)
            break;
        if (child->status == NodeStatus::Running ||
            child->status == NodeStatus::Finished) {
            continue; // Already launched: it resolved its input.
        }
        const auto &q = queues_[accIndex(child->params.type)];
        int window = instanceCount(child->params.type);
        bool next_in_line = false;
        for (int slot = 0; slot < window && slot < int(q.size());
             ++slot) {
            if (q.at(std::size_t(slot)) == child) {
                next_in_line = true;
                break;
            }
        }
        if (!next_in_line) {
            write_back = true;
            break;
        }
    }

    if (!write_back) {
        ++metrics_.writebacksAvoided;
        return;
    }

    std::uint64_t bytes = node->outputSize();
    Tick issue = now();
    Tick end = state.acc->dma().writeToDram(bytes, nullptr, node->id,
                                            transferCtx(node));
    node->actualMemTime += end - issue;
    node->lifecycle.wbStart = issue;
    node->lifecycle.wbEnd = end;
    if (trace_) {
        trace_->span(trace_->lane(state.acc->name() + ".wb"),
                     "wb " + node->label, issue, end, "dma");
    }
    spm.markWrittenBack(partition);
    if (end > issue)
        predictor_->observeBandwidth(double(bytes) /
                                     double(toNs(end - issue)));
}

void
HardwareManager::resumeStalledLaunches()
{
    for (AccState &state : accs_) {
        if (state.waitingForSpm)
            tryAllocateAndIssue(state);
    }
}

} // namespace relief
