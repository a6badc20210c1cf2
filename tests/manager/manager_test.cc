/** @file Behavioural tests for the hardware manager runtime. */

#include <gtest/gtest.h>

#include <map>

#include "core/soc.hh"
#include "dag/apps/apps.hh"
#include "dag/dag.hh"

namespace relief
{
namespace
{

/** Small deterministic tasks: 1 KiB operands, fixed 100 us runtime. */
TaskParams
tiny(AccType type, int inputs = 1)
{
    TaskParams p;
    p.type = type;
    p.numInputs = inputs;
    p.elems = 256;
    return p;
}

DagPtr
chainDag(std::vector<AccType> types, Tick deadline = fromMs(10.0))
{
    auto dag = std::make_shared<Dag>("chain", 'X');
    Node *prev = nullptr;
    int i = 0;
    for (AccType type : types) {
        Node *n = dag->addNode(tiny(type, prev ? 1 : 1),
                               "chain." + std::to_string(i++));
        n->fixedRuntime = fromUs(100.0);
        if (prev)
            dag->addEdge(prev, n);
        prev = n;
    }
    dag->setRelativeDeadline(deadline);
    dag->finalize();
    return dag;
}

SocConfig
quietConfig(PolicyKind policy = PolicyKind::Relief)
{
    SocConfig config;
    config.policy = policy;
    config.manager.computeJitter = 0.0;
    return config;
}

TEST(ManagerTest, SingleNodeDagRunsToCompletion)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.nodesFinished, 1u);
    EXPECT_EQ(report.run.dagsFinished, 1u);
    EXPECT_EQ(report.run.dagDeadlinesMet, 1u);
}

TEST(ManagerTest, NodesRespectDependencies)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                           AccType::Grayscale});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    for (Node *node : dag->allNodes()) {
        for (Node *parent : node->parents) {
            EXPECT_GE(node->launchedAt, parent->finishedAt)
                << node->label;
        }
        EXPECT_GT(node->finishedAt, node->launchedAt);
    }
}

TEST(ManagerTest, CrossAcceleratorEdgeForwardsWhenNextInLine)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    // The child was the only queued work: it launched right after its
    // parent and pulled from the parent's scratchpad.
    EXPECT_EQ(dag->node(1)->inputSources[0], InputSource::Forwarded);
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.forwards, 1u);
    EXPECT_EQ(report.run.colocations, 0u);
    EXPECT_GT(report.spmForwardBytes, 0u);
}

TEST(ManagerTest, SameAcceleratorEdgeColocates)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    EXPECT_EQ(dag->node(1)->inputSources[0], InputSource::Colocated);
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.colocations, 1u);
    EXPECT_EQ(report.run.forwards, 0u);
}

TEST(ManagerTest, ForwardingDisabledGoesThroughDram)
{
    SocConfig config = quietConfig();
    config.manager.forwardingEnabled = false;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::ElemMatrix,
                           AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.forwards, 0u);
    EXPECT_EQ(report.run.colocations, 0u);
    EXPECT_EQ(report.run.dramEdges, 2u);
    // Every operand and output moved through DRAM.
    EXPECT_EQ(report.dramBytes, report.run.baselineBytes);
}

TEST(ManagerTest, WriteBackSkippedWhenChildForwards)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_GE(report.run.writebacksAvoided, 1u);
}

TEST(ManagerTest, LeafOutputIsAlwaysWrittenBack)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    // 1 external input read + 1 output write.
    EXPECT_EQ(report.dramBytes, 2u * 1024u);
    EXPECT_EQ(report.run.writebacksAvoided, 0u);
}

TEST(ManagerTest, DeadlineMissIsRecorded)
{
    Soc soc(quietConfig());
    // Two sequential 100 us tasks cannot meet a 50 us deadline.
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution},
                          fromUs(50.0));
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.dagsFinished, 1u);
    EXPECT_EQ(report.run.dagDeadlinesMet, 0u);
    EXPECT_LT(report.run.nodeDeadlinesMet, report.run.nodesFinished);
    EXPECT_GT(report.apps[0].meanSlowdown(), 1.0);
}

TEST(ManagerTest, TwoDagsShareTheAccelerator)
{
    Soc soc(quietConfig());
    DagPtr d1 = chainDag({AccType::ElemMatrix, AccType::ElemMatrix});
    DagPtr d2 = chainDag({AccType::ElemMatrix, AccType::ElemMatrix});
    soc.submit(d1);
    soc.submit(d2);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(d1->complete());
    EXPECT_TRUE(d2->complete());
    // Serialized on the single elem-matrix instance: total busy time
    // equals four tasks.
    auto accs = soc.accelerators();
    Tick em_busy = 0;
    for (Accelerator *acc : accs)
        if (acc->type() == AccType::ElemMatrix)
            em_busy = acc->computeBusyTime();
    EXPECT_EQ(em_busy, fromUs(400.0));
}

TEST(ManagerTest, ContinuousModeResubmits)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag, 0, /* continuous */ true);
    soc.run(fromMs(5.0));
    MetricsReport report = soc.report();
    EXPECT_GT(report.apps[0].iterations, 5);
    EXPECT_EQ(report.run.dagsFinished,
              std::uint64_t(report.apps[0].iterations));
}

TEST(ManagerTest, ManagerLatencyDelaysChildLaunch)
{
    SocConfig with_latency = quietConfig();
    with_latency.manager.isrLatency = fromUs(5.0);
    SocConfig no_latency = quietConfig();
    no_latency.manager.modelSchedulingLatency = false;

    auto run_one = [](const SocConfig &config) {
        Soc soc(config);
        DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
        soc.submit(dag);
        soc.run(fromMs(50.0));
        return dag->finishTick();
    };
    EXPECT_GT(run_one(with_latency), run_one(no_latency));
}

TEST(ManagerTest, ManagerBusyTimeAccumulates)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_GT(report.run.managerBusyTime, 0u);
    EXPECT_GT(report.run.pushLatency.count(), 0u);
}

TEST(ManagerTest, FanOutToDistinctTypesRunsInParallel)
{
    Soc soc(quietConfig());
    auto dag = std::make_shared<Dag>("fan", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "a");
    Node *b = dag->addNode(tiny(AccType::Convolution), "b");
    Node *c = dag->addNode(tiny(AccType::Grayscale), "c");
    a->fixedRuntime = fromUs(100.0);
    b->fixedRuntime = fromUs(100.0);
    c->fixedRuntime = fromUs(100.0);
    dag->addEdge(a, b);
    dag->addEdge(a, c);
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    // b and c overlap: they launch within each other's execution.
    EXPECT_LT(std::max(b->launchedAt, c->launchedAt),
              std::min(b->finishedAt, c->finishedAt));
}

TEST(ManagerTest, EdgeAccountingIsConserved)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                           AccType::ElemMatrix, AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.edgesConsumed, std::uint64_t(dag->numEdges()));
    EXPECT_EQ(report.run.forwards + report.run.colocations +
                  report.run.dramEdges,
              report.run.edgesConsumed);
}

TEST(ManagerTest, SinglePartitionForcesEvictionButStaysCorrect)
{
    // With one output partition, a same-accelerator consumer's
    // colocation input occupies the only partition its own output
    // needs: the manager must demote the colocation (evicting the
    // producer's data to DRAM first) rather than deadlock.
    SocConfig config = quietConfig();
    config.spmPartitions = 1;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::ElemMatrix,
                           AccType::ElemMatrix});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    // All edges fall back to DRAM, and the data is never lost.
    EXPECT_EQ(report.run.colocations, 0u);
    EXPECT_EQ(report.run.dramEdges, 2u);
}

TEST(ManagerTest, SinglePartitionCrossTypeChainStillRuns)
{
    SocConfig config = quietConfig();
    config.spmPartitions = 1;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ISP, AccType::Grayscale,
                           AccType::Convolution, AccType::ElemMatrix,
                           AccType::CannyNonMax});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(dag->complete());
}

TEST(ManagerTest, FullBenchmarksRunWithTwoPartitions)
{
    SocConfig config = quietConfig();
    config.spmPartitions = 2;
    Soc soc(config);
    for (AppId app : {AppId::Canny, AppId::Gru}) {
        soc.submit(buildApp(app));
    }
    soc.run(fromMs(50.0));
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.dagsFinished, 2u);
}

TEST(ManagerTest, EvictedDataIsReadableFromDram)
{
    // Fan-out where the second consumer is delayed past the producer's
    // partition reuse: it must read the evicted/written-back copy.
    SocConfig config = quietConfig();
    config.spmPartitions = 2;
    Soc soc(config);
    auto dag = std::make_shared<Dag>("fan", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "a");
    // A long chain keeps the EM accelerator busy, delaying 'late'.
    Node *prev = a;
    for (int i = 0; i < 4; ++i) {
        Node *n = dag->addNode(tiny(AccType::ElemMatrix),
                               "chain" + std::to_string(i));
        n->fixedRuntime = fromUs(100.0);
        dag->addEdge(prev, n);
        prev = n;
    }
    Node *late = dag->addNode(tiny(AccType::ElemMatrix, 2), "late");
    late->fixedRuntime = fromUs(100.0);
    dag->addEdge(a, late);
    dag->addEdge(prev, late);
    a->fixedRuntime = fromUs(100.0);
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    // 'late' consumed a's output one way or another.
    EXPECT_EQ(late->status, NodeStatus::Finished);
}

TEST(ManagerTest, StreamForwardingMechanismWorksEndToEnd)
{
    SocConfig config = quietConfig();
    config.manager.forwardMechanism = ForwardMechanism::StreamBuffer;
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                           AccType::Grayscale});
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    MetricsReport report = soc.report();
    EXPECT_EQ(report.run.forwards, 2u);
    EXPECT_GT(report.spmForwardBytes, 0u);
}

TEST(ManagerTest, StreamForwardingIsAtLeastAsFast)
{
    auto run_with = [](ForwardMechanism mechanism) {
        SocConfig config = quietConfig();
        config.manager.forwardMechanism = mechanism;
        Soc soc(config);
        DagPtr dag = chainDag({AccType::ElemMatrix, AccType::Convolution,
                               AccType::Grayscale, AccType::ISP});
        soc.submit(dag);
        soc.run(fromMs(50.0));
        return dag->finishTick();
    };
    EXPECT_LE(run_with(ForwardMechanism::StreamBuffer),
              run_with(ForwardMechanism::SpmDma));
}

TEST(ManagerTest, SubmitLatencyDelaysArrival)
{
    SocConfig config = quietConfig();
    config.manager.submitLatency = fromUs(2.0);
    Soc soc(config);
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag, fromMs(1.0));
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    EXPECT_EQ(dag->arrivalTick(), fromMs(1.0) + fromUs(2.0));
}

TEST(ManagerTest, SubmitLatencyDefaultsToZero)
{
    Soc soc(quietConfig());
    DagPtr dag = chainDag({AccType::ElemMatrix});
    soc.submit(dag, fromMs(1.0));
    soc.run(fromMs(50.0));
    EXPECT_EQ(dag->arrivalTick(), fromMs(1.0));
}

TEST(ManagerTest, IdleCountTracksOccupancy)
{
    Soc soc(quietConfig());
    EXPECT_EQ(soc.manager().idleCount(AccType::ElemMatrix), 1);
    EXPECT_EQ(soc.manager().instanceCount(AccType::ElemMatrix), 1);
}

TEST(ManagerTest, MultiInstanceTypeRunsConcurrently)
{
    SocConfig config = quietConfig();
    config.instances[accIndex(AccType::ElemMatrix)] = 2;
    Soc soc(config);
    EXPECT_EQ(soc.manager().instanceCount(AccType::ElemMatrix), 2);

    auto dag = std::make_shared<Dag>("par", 'X');
    Node *a = dag->addNode(tiny(AccType::ElemMatrix), "a");
    Node *b = dag->addNode(tiny(AccType::ElemMatrix), "b");
    a->fixedRuntime = fromUs(100.0);
    b->fixedRuntime = fromUs(100.0);
    dag->setRelativeDeadline(fromMs(10.0));
    dag->finalize();
    soc.submit(dag);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(dag->complete());
    EXPECT_LT(std::max(a->launchedAt, b->launchedAt),
              std::min(a->finishedAt, b->finishedAt));
}

TEST(ManagerTest, RetiredHandlerFiresOnceAfterTheFinalWriteBack)
{
    // Without latency modelling every ISR of a tick runs at that tick,
    // so only sequence order puts the completing node's ISR last.
    for (bool model_latency : {true, false}) {
        SCOPED_TRACE(model_latency ? "latency modelled" : "no latency");
        SocConfig config = quietConfig();
        config.manager.modelSchedulingLatency = model_latency;
        Soc soc(config);
        std::vector<DagPtr> dags;
        for (AppId app : parseMix("CDGHL"))
            dags.push_back(buildApp(app, AppConfig{}));

        std::map<const Dag *, int> completed;
        std::map<const Dag *, int> retired;
        // Leaves whose write-back was still pending at completion:
        // at least the node that completed the DAG.
        std::map<const Dag *, std::vector<const Node *>> pending;
        soc.manager().setDagCompletionHandler([&](Dag *dag) {
            ++completed[dag];
            for (const Node *leaf : dag->leaves()) {
                if (leaf->lifecycle.wbStart == 0)
                    pending[dag].push_back(leaf);
            }
            EXPECT_FALSE(pending[dag].empty()) << dag->name();
        });
        soc.manager().setDagRetiredHandler([&](Dag *dag) {
            EXPECT_EQ(completed[dag], 1) << dag->name();
            ++retired[dag];
            for (const Node *leaf : pending[dag]) {
                EXPECT_NE(leaf->lifecycle.wbStart, 0u)
                    << dag->name() << ": " << leaf->label;
            }
        });
        for (const DagPtr &dag : dags)
            soc.manager().submitDag(dag.get(), 0);
        soc.run(fromMs(200.0));

        for (const DagPtr &dag : dags) {
            EXPECT_TRUE(dag->complete()) << dag->name();
            EXPECT_EQ(retired[dag.get()], 1) << dag->name();
        }
    }
}

} // namespace
} // namespace relief
