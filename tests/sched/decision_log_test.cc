/** @file Unit tests for the RELIEF promotion decision log. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sched/relief.hh"
#include "sim/logging.hh"
#include "support/mini_json.hh"

namespace relief
{
namespace
{

/** Same scaffolding as ReliefTest: hand-built nodes and queues. */
class DecisionLogTest : public ::testing::Test
{
  protected:
    Node *
    makeNode(Tick deadline, Tick runtime,
             AccType type = AccType::ElemMatrix)
    {
        TaskParams p;
        p.type = type;
        Node *n = dag.addNode(p, "n" + std::to_string(dag.numNodes()));
        n->deadline = deadline;
        n->predictedRuntime = runtime;
        n->laxityKey = STick(deadline) - STick(runtime);
        return n;
    }

    SchedContext
    ctxWithIdle(int em_idle, Tick now = 0)
    {
        SchedContext ctx;
        ctx.now = now;
        ctx.idleCount[accIndex(AccType::ElemMatrix)] = em_idle;
        return ctx;
    }

    ReadyQueue &
    emQueue()
    {
        return queues[accIndex(AccType::ElemMatrix)];
    }

    Dag dag{"t", 'T'};
    ReadyQueues queues;
    ReliefPolicy policy;
};

TEST_F(DecisionLogTest, GrantedPromotionRecorded)
{
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(100, 10); // laxity 90
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    const DecisionLog &log = policy.decisionLog();
    ASSERT_EQ(log.size(), 1u);
    const PromotionDecision &d = log.at(0);
    EXPECT_TRUE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::Feasible);
    EXPECT_EQ(d.node, child->id);
    EXPECT_EQ(d.label, "n1");
    EXPECT_EQ(d.type, AccType::ElemMatrix);
    EXPECT_EQ(d.laxity, STick(90));
    EXPECT_EQ(d.queueDepth, 0u);
    EXPECT_TRUE(d.victim.empty()); // empty queue: nobody bypassed
    EXPECT_EQ(log.numGranted(), 1u);
    EXPECT_EQ(log.numDenied(), 0u);
}

TEST_F(DecisionLogTest, GrantedDecisionNamesBypassedNode)
{
    Node *waiting = makeNode(110, 10); // "n0", laxity 100
    emQueue().pushBack(waiting);
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(600, 50); // laxity 550, runtime 50 < 100
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    const PromotionDecision &d = policy.decisionLog().at(0);
    EXPECT_TRUE(d.granted);
    EXPECT_EQ(d.victim, "n0");
    EXPECT_EQ(d.victimSlack, STick(50)); // 100 laxity - 50 runtime
    // The bypassed node really was charged.
    EXPECT_EQ(waiting->laxityKey, STick(50));
}

TEST_F(DecisionLogTest, DeniedPromotionRecordsBlockingVictim)
{
    Node *a = makeNode(50, 10);  // "n0", laxity 40
    Node *b = makeNode(500, 10); // "n1", laxity 490
    emQueue().pushBack(a);
    emQueue().pushBack(b);
    Node *producer = makeNode(10, 5);
    Node *child = makeNode(300, 200); // laxity 100, runtime 200 > 40
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    const DecisionLog &log = policy.decisionLog();
    ASSERT_EQ(log.size(), 1u);
    const PromotionDecision &d = log.at(0);
    EXPECT_FALSE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::VictimWouldMiss);
    EXPECT_EQ(d.victim, "n0");
    EXPECT_EQ(d.victimSlack, STick(-160)); // 40 laxity - 200 runtime
    EXPECT_EQ(d.laxity, STick(100));
    EXPECT_EQ(d.queueDepth, 2u);
    EXPECT_EQ(log.numDenied(), 1u);
}

TEST_F(DecisionLogTest, NoIdleInstanceDenialHasNoVictim)
{
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(100, 10);
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(0), queues);

    const PromotionDecision &d = policy.decisionLog().at(0);
    EXPECT_FALSE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::NoIdleInstance);
    EXPECT_TRUE(d.victim.empty());
}

TEST_F(DecisionLogTest, DisabledFeasibilityCheckRecordsGreedyGrant)
{
    ReliefOptions options;
    options.feasibilityCheck = false;
    ReliefPolicy greedy(options);

    Node *a = makeNode(50, 10); // would veto under the check
    emQueue().pushBack(a);
    Node *producer = makeNode(10, 5);
    Node *child = makeNode(300, 200);
    dag.addEdge(producer, child);
    greedy.onNodesReady({child}, ctxWithIdle(1), queues);

    const PromotionDecision &d = greedy.decisionLog().at(0);
    EXPECT_TRUE(d.granted);
    EXPECT_EQ(d.reason, PromotionReason::CheckDisabled);
    EXPECT_TRUE(child->isFwd);
}

TEST_F(DecisionLogTest, RootNodesProduceNoDecisions)
{
    Node *root = makeNode(100, 10);
    policy.onNodesReady({root}, ctxWithIdle(5), queues);
    EXPECT_EQ(policy.decisionLog().size(), 0u);
}

TEST_F(DecisionLogTest, SummaryMentionsVictimOnDenial)
{
    Node *a = makeNode(50, 10);
    emQueue().pushBack(a);
    Node *producer = makeNode(10, 5);
    Node *child = makeNode(300, 200);
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);

    std::string line = policy.decisionLog().at(0).summary();
    EXPECT_NE(line.find("deny "), std::string::npos);
    EXPECT_NE(line.find("reason=victim-would-miss"), std::string::npos);
    EXPECT_NE(line.find("victim=n0"), std::string::npos);
    EXPECT_NE(line.find("victim_slack=-160"), std::string::npos);
}

TEST_F(DecisionLogTest, PromotionReasonHelpers)
{
    EXPECT_TRUE(promotionGranted(PromotionReason::Feasible));
    EXPECT_TRUE(promotionGranted(PromotionReason::CheckDisabled));
    EXPECT_FALSE(promotionGranted(PromotionReason::NoIdleInstance));
    EXPECT_FALSE(promotionGranted(PromotionReason::VictimWouldMiss));
    EXPECT_STREQ(promotionReasonName(PromotionReason::Feasible),
                 "feasible");
    EXPECT_STREQ(promotionReasonName(PromotionReason::VictimWouldMiss),
                 "victim-would-miss");
}

TEST_F(DecisionLogTest, JsonExportIsValidAndComplete)
{
    // One granted decision (empty queue) and one denied (victim "n0"
    // still waiting after the charge-free denial).
    Node *producer = makeNode(10, 5);
    Node *fast = makeNode(600, 10);
    dag.addEdge(producer, fast);
    policy.onNodesReady({fast}, ctxWithIdle(1), queues);

    Node *a = makeNode(50, 10); // "n2", laxity 40
    emQueue().pushBack(a);
    Node *slow = makeNode(300, 200);
    dag.addEdge(producer, slow);
    policy.onNodesReady({slow}, ctxWithIdle(1), queues);

    ASSERT_EQ(policy.decisionLog().size(), 2u);
    std::ostringstream os;
    policy.decisionLog().writeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(test::miniJsonValid(json)) << json;
    EXPECT_NE(json.find("\"granted\": true"), std::string::npos);
    EXPECT_NE(json.find("\"granted\": false"), std::string::npos);
    EXPECT_NE(json.find("\"reason\": \"victim-would-miss\""),
              std::string::npos);
    EXPECT_NE(json.find("\"victim\": \"n2\""), std::string::npos);
}

TEST_F(DecisionLogTest, EmptyLogExportsEmptyJsonArray)
{
    std::ostringstream os;
    policy.decisionLog().writeJson(os);
    EXPECT_TRUE(test::miniJsonValid(os.str())) << os.str();
}

TEST_F(DecisionLogTest, ClearEmptiesTheLog)
{
    Node *producer = makeNode(50, 10);
    Node *child = makeNode(100, 10);
    dag.addEdge(producer, child);
    policy.onNodesReady({child}, ctxWithIdle(1), queues);
    ASSERT_EQ(policy.decisionLog().size(), 1u);

    policy.decisionLog().clear();
    EXPECT_EQ(policy.decisionLog().size(), 0u);
    EXPECT_EQ(policy.decisionLog().numGranted(), 0u);
}

TEST_F(DecisionLogTest, OutOfRangeAccessPanics)
{
    EXPECT_THROW(policy.decisionLog().at(0), PanicError);
}

/** Record one promotion decision for a fresh producer -> child DAG
 *  whose child carries @p label and bypasses a waiting @p victim. */
void
recordThroughDag(ReliefPolicy &policy, const std::string &label,
                 const std::string &victim_label)
{
    auto dag = std::make_unique<Dag>("scratch", 'S');
    TaskParams p;
    p.type = AccType::ElemMatrix;
    Node *victim = dag->addNode(p, victim_label);
    victim->laxityKey = 100;
    Node *producer = dag->addNode(p, "producer");
    Node *child = dag->addNode(p, label);
    child->predictedRuntime = 10;
    child->laxityKey = 500;
    dag->addEdge(producer, child);

    ReadyQueues queues;
    queues[accIndex(AccType::ElemMatrix)].pushBack(victim);
    SchedContext ctx;
    ctx.idleCount[accIndex(AccType::ElemMatrix)] = 1;
    policy.onNodesReady({child}, ctx, queues);
    // The DAG, its nodes and their label strings die here.
}

TEST(DecisionLogLabelTest, LabelsOutliveTheirDag)
{
    ReliefPolicy policy;
    recordThroughDag(policy, "child-label-longer-than-sso", "victim-x");

    const PromotionDecision &d = policy.decisionLog().at(0);
    EXPECT_EQ(d.label, "child-label-longer-than-sso");
    EXPECT_EQ(d.victim, "victim-x");
    std::ostringstream os;
    policy.decisionLog().writeJson(os);
    EXPECT_NE(os.str().find("\"label\": \"child-label-longer-than-sso\""),
              std::string::npos);
}

TEST(DecisionLogLabelTest, ReusedNodeIdsKeepEachRecordsLabel)
{
    ReliefPolicy policy;
    resetNodeIds(100);
    recordThroughDag(policy, "first-child", "first-victim");
    resetNodeIds(100); // the next DAG reuses the same ids...
    recordThroughDag(policy, "second-child", "second-victim");
    resetNodeIds(100); // ...and this one the same ids and labels
    recordThroughDag(policy, "second-child", "second-victim");
    resetNodeIds();

    const DecisionLog &log = policy.decisionLog();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log.at(0).node, log.at(1).node);
    EXPECT_EQ(log.at(0).label, "first-child");
    EXPECT_EQ(log.at(0).victim, "first-victim");
    EXPECT_EQ(log.at(1).label, "second-child");
    EXPECT_EQ(log.at(1).victim, "second-victim");
    // An unchanged label is interned once: both records share it.
    EXPECT_EQ(log.at(2).label.data(), log.at(1).label.data());
    EXPECT_EQ(log.at(2).victim.data(), log.at(1).victim.data());
}

TEST(DecisionLogLabelTest, EqualLabelsShareOneCopyAcrossNodeIds)
{
    // Serving runs draw fresh node ids for every request: the table is
    // keyed by label text, so repeats add no copy.
    DecisionLog log;
    PromotionDecision d;
    d.node = 7;
    d.label = "canny.sobel";
    d.victimNode = 8;
    d.victim = "canny.nms";
    log.record(d);
    d.node = 107;
    d.victimNode = 108;
    log.record(d);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_NE(log.at(0).node, log.at(1).node);
    EXPECT_EQ(log.at(1).label, "canny.sobel");
    EXPECT_EQ(log.at(0).label.data(), log.at(1).label.data());
    EXPECT_EQ(log.at(0).victim.data(), log.at(1).victim.data());
}

TEST(DecisionLogLabelTest, RecordCopiesNoCallerString)
{
    DecisionLog log;
    std::string label = "transient-label";
    PromotionDecision d;
    d.node = 7;
    d.label = label;
    log.record(d);
    label = "overwritten-label";
    EXPECT_EQ(log.at(0).label, "transient-label");
    EXPECT_NE(log.at(0).label.data(), label.data());
}

/** A decision whose every field derives from @p i: labels cycle over
 *  a few texts, laxity and slack go negative, and every third record
 *  has no victim. */
PromotionDecision
syntheticDecision(std::size_t i, const std::vector<std::string> &labels)
{
    PromotionDecision d;
    d.when = Tick(1000 + 7 * i);
    d.node = NodeId(i) + (NodeId(1) << 40);
    d.label = labels[i % labels.size()];
    d.laxity = STick(i % 5) * 1000 - 2500;
    d.queueDepth = i % 97;
    d.type = AccType(i % std::size_t(numAccTypes));
    d.reason = PromotionReason(i % 4);
    d.granted = promotionGranted(d.reason);
    if (i % 3 != 0) {
        d.victim = labels[(i + 1) % labels.size()];
        d.victimNode = NodeId(i) * 3;
        d.victimSlack = -STick(i) * 11;
    }
    return d;
}

TEST(DecisionLogStorageTest, EveryFieldRoundTripsAcrossChunks)
{
    const std::vector<std::string> labels = {
        "canny.sobel", "deblur.rl-iteration-long-label", "", "lstm.t3"};
    const std::size_t count = 2 * DecisionLog::chunkSize + 37;
    DecisionLog log;
    std::uint64_t granted = 0;
    for (std::size_t i = 0; i < count; ++i) {
        PromotionDecision d = syntheticDecision(i, labels);
        granted += d.granted;
        log.record(d);
    }
    ASSERT_EQ(log.size(), count);
    EXPECT_EQ(log.numGranted(), granted);
    EXPECT_EQ(log.numDenied(), count - granted);

    std::size_t i = 0;
    for (const PromotionDecision &got : log.decisions()) {
        PromotionDecision want = syntheticDecision(i, labels);
        ASSERT_EQ(got.when, want.when) << i;
        ASSERT_EQ(got.node, want.node) << i;
        ASSERT_EQ(got.label, want.label) << i;
        ASSERT_EQ(got.laxity, want.laxity) << i;
        ASSERT_EQ(got.queueDepth, want.queueDepth) << i;
        ASSERT_EQ(got.victim, want.victim) << i;
        ASSERT_EQ(got.victimNode, want.victimNode) << i;
        ASSERT_EQ(got.victimSlack, want.victimSlack) << i;
        ASSERT_EQ(got.type, want.type) << i;
        ASSERT_EQ(got.granted, want.granted) << i;
        ASSERT_EQ(got.reason, want.reason) << i;
        ASSERT_EQ(got.summary(), want.summary()) << i;
        ++i;
    }
    EXPECT_EQ(i, count);
    EXPECT_EQ(log.decisions().size(), count);
    // Both sides of the first chunk boundary, through at().
    EXPECT_EQ(log.at(DecisionLog::chunkSize - 1).summary(),
              syntheticDecision(DecisionLog::chunkSize - 1, labels)
                  .summary());
    EXPECT_EQ(log.at(DecisionLog::chunkSize).summary(),
              syntheticDecision(DecisionLog::chunkSize, labels).summary());
    EXPECT_THROW(log.at(count), PanicError);
}

TEST(DecisionLogStorageTest, LabelRewrittenInPlaceInternsItsNewText)
{
    // A recycled node keeps its label buffer and overwrites it: the
    // same address and length now hold different text.
    DecisionLog log;
    std::string buffer = "alpha.node-0001-with-heap-text";
    const char *address = buffer.data();
    PromotionDecision d;
    d.label = buffer;
    log.record(d);
    buffer.replace(0, 5, "omega");
    ASSERT_EQ(buffer.data(), address);
    d.label = buffer;
    d.victim = buffer;
    log.record(d);
    buffer.replace(0, 5, "alpha");
    d.label = buffer;
    d.victim = {};
    log.record(d);

    EXPECT_EQ(log.at(0).label, "alpha.node-0001-with-heap-text");
    EXPECT_EQ(log.at(1).label, "omega.node-0001-with-heap-text");
    EXPECT_EQ(log.at(1).victim, "omega.node-0001-with-heap-text");
    EXPECT_EQ(log.at(2).label, "alpha.node-0001-with-heap-text");
    EXPECT_TRUE(log.at(2).victim.empty());
    // Equal text still shares one interned copy.
    EXPECT_EQ(log.at(2).label.data(), log.at(0).label.data());
    EXPECT_NE(log.at(1).label.data(), log.at(0).label.data());
}

TEST(DecisionLogStorageTest, DefaultLabelRecordsAsEmpty)
{
    // A default string_view has a null buffer: it must not match a
    // cache slot that holds nothing yet, before or after clear().
    DecisionLog log;
    for (int round = 0; round < 2; ++round) {
        PromotionDecision d;
        d.node = 3;
        log.record(d);
        ASSERT_EQ(log.size(), 1u);
        EXPECT_TRUE(log.at(0).label.empty());
        EXPECT_EQ(log.at(0).node, 3u);
        log.clear();
    }
}

TEST(DecisionLogStorageTest, ClearResetsRecordsLabelsAndCache)
{
    const std::vector<std::string> labels = {"first", "second", "third"};
    DecisionLog log;
    for (std::size_t i = 0; i < DecisionLog::chunkSize + 5; ++i)
        log.record(syntheticDecision(i, labels));
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.numGranted(), 0u);
    EXPECT_EQ(log.decisions().begin(), log.decisions().end());
    EXPECT_THROW(log.at(0), PanicError);

    // The same buffers again, now in a fresh table: a cached id left
    // over from before clear() would name a label that no longer
    // exists.
    for (std::size_t i = 0; i < 4; ++i)
        log.record(syntheticDecision(i, labels));
    ASSERT_EQ(log.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(log.at(i).summary(),
                  syntheticDecision(i, labels).summary());
    std::ostringstream os;
    log.writeJson(os);
    EXPECT_TRUE(test::miniJsonValid(os.str())) << os.str();
    // Nothing recorded before clear() is exported.
    EXPECT_EQ(os.str().find("\"tick\": 1028"), std::string::npos);
    EXPECT_NE(os.str().find("\"tick\": 1021"), std::string::npos);
}

} // namespace
} // namespace relief
