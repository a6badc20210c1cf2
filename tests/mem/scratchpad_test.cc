/** @file Unit tests for scratchpad partition management. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "dag/dag.hh"
#include "mem/scratchpad.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

class ScratchpadTest : public ::testing::Test
{
  protected:
    Simulator sim;
    Scratchpad spm{sim, "spm", ScratchpadConfig{}};
};

TEST_F(ScratchpadTest, DefaultsToThreePartitions)
{
    EXPECT_EQ(spm.numPartitions(), 3);
    for (int i = 0; i < spm.numPartitions(); ++i) {
        EXPECT_EQ(spm.partition(i).owner, 0u);
        EXPECT_FALSE(spm.partition(i).dataValid);
    }
}

TEST_F(ScratchpadTest, AllocatePreferEmptyPartitions)
{
    EXPECT_EQ(spm.findFreeOutputPartition(), 0);
    spm.allocateOutput(0, 1, 100);
    EXPECT_EQ(spm.findFreeOutputPartition(), 1);
    spm.allocateOutput(1, 2, 100);
    EXPECT_EQ(spm.findFreeOutputPartition(), 2);
}

TEST_F(ScratchpadTest, OutputInvisibleUntilProduced)
{
    spm.allocateOutput(0, 7, 100);
    EXPECT_EQ(spm.findOutput(7), -1);
    spm.produceOutput(0);
    EXPECT_EQ(spm.findOutput(7), 0);
}

TEST_F(ScratchpadTest, OngoingReadsBlockReclaim)
{
    for (int i = 0; i < 3; ++i) {
        spm.allocateOutput(i, NodeId(i + 1), 100);
        spm.produceOutput(i);
    }
    spm.beginRead(0);
    spm.beginRead(1);
    spm.beginRead(2);
    EXPECT_EQ(spm.findFreeOutputPartition(), -1);
    spm.endRead(1);
    EXPECT_EQ(spm.findFreeOutputPartition(), 1);
}

TEST_F(ScratchpadTest, LruVictimAmongReclaimable)
{
    // Produce into 0 then 1 at increasing times; 0 is the older data.
    spm.allocateOutput(0, 1, 100);
    spm.produceOutput(0);
    sim.at(100, [&] {
        spm.allocateOutput(1, 2, 100);
        spm.produceOutput(1);
    });
    sim.run();
    spm.allocateOutput(2, 3, 100); // fill the empty one
    spm.produceOutput(2);
    spm.beginRead(2);
    EXPECT_EQ(spm.findFreeOutputPartition(), 0);
}

TEST_F(ScratchpadTest, ExclusionMaskSkipsPartitions)
{
    EXPECT_EQ(spm.findFreeOutputPartition(0b001), 1);
    EXPECT_EQ(spm.findFreeOutputPartition(0b011), 2);
    EXPECT_EQ(spm.findFreeOutputPartition(0b111), -1);
}

TEST_F(ScratchpadTest, ReadCountingIsBalanced)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    spm.beginRead(0);
    spm.beginRead(0);
    EXPECT_EQ(spm.partition(0).ongoingReads, 2u);
    spm.endRead(0);
    spm.endRead(0);
    EXPECT_EQ(spm.partition(0).ongoingReads, 0u);
    EXPECT_THROW(spm.endRead(0), PanicError);
}

TEST_F(ScratchpadTest, ReleaseWithReadersPanics)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    spm.beginRead(0);
    EXPECT_THROW(spm.release(0), PanicError);
    spm.endRead(0);
    spm.release(0);
    EXPECT_EQ(spm.partition(0).owner, 0u);
}

TEST_F(ScratchpadTest, AllocateOverReadersPanics)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    spm.beginRead(0);
    EXPECT_THROW(spm.allocateOutput(0, 6, 100), PanicError);
}

TEST_F(ScratchpadTest, ReadingInvalidPartitionPanics)
{
    spm.allocateOutput(0, 5, 100);
    EXPECT_THROW(spm.beginRead(0), PanicError);
}

TEST_F(ScratchpadTest, WrittenBackFlag)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    EXPECT_FALSE(spm.partition(0).writtenBack);
    spm.markWrittenBack(0);
    EXPECT_TRUE(spm.partition(0).writtenBack);
    // Reallocation clears the flag.
    spm.release(0);
    spm.allocateOutput(0, 6, 100);
    EXPECT_FALSE(spm.partition(0).writtenBack);
}

TEST_F(ScratchpadTest, EnergyTracksTraffic)
{
    ScratchpadConfig config;
    config.readEnergyPJPerByte = 1.0;
    config.writeEnergyPJPerByte = 2.0;
    Scratchpad s(sim, "s", config);
    s.recordRead(100);
    s.recordWrite(100);
    EXPECT_DOUBLE_EQ(s.energyPJ(), 300.0);
}

TEST_F(ScratchpadTest, FindOutputOnlyMatchesOwner)
{
    spm.allocateOutput(0, 5, 100);
    spm.produceOutput(0);
    EXPECT_EQ(spm.findOutput(6), -1);
    EXPECT_EQ(spm.findOutput(5), 0);
}

/** The per-node residue release: findOutput for every node id. */
void
releaseByNodeScan(Scratchpad &spm, Dag &dag)
{
    for (Node *node : dag.allNodes()) {
        int part = spm.findOutput(node->id);
        if (part >= 0 && spm.partition(part).ongoingReads == 0)
            spm.release(part);
    }
}

TEST(ScratchpadResidueTest, RangeReleaseMatchesPerNodeScan)
{
    Xoshiro256pp rng(17);
    Simulator sim;
    int releases = 0;
    for (int trial = 0; trial < 400; ++trial) {
        // The DAG under test, a DAG built after it, and — when it is
        // recycled — the ids it held before renumbering.
        auto build = [&](const char *name, int n) {
            auto dag = std::make_unique<Dag>(name, 'X');
            for (int i = 0; i < n; ++i)
                dag->addNode(TaskParams{}, std::to_string(i));
            dag->setRelativeDeadline(fromMs(1.0));
            dag->finalize();
            return dag;
        };
        auto dag = build("d", 1 + int(rng.uniformInt(6)));
        auto other = build("o", 1 + int(rng.uniformInt(4)));
        std::vector<NodeId> owners;
        for (Node *node : dag->allNodes())
            owners.push_back(node->id);
        for (Node *node : other->allNodes())
            owners.push_back(node->id);
        if (trial % 2) {
            dag->renumber(); // old ids stay behind as stale residue
            for (Node *node : dag->allNodes())
                owners.push_back(node->id);
        }

        ScratchpadConfig config;
        config.numOutputPartitions = 1 + int(rng.uniformInt(6));
        Scratchpad scan(sim, "scan", config);
        Scratchpad range(sim, "range", config);
        std::vector<bool> held(std::size_t(config.numOutputPartitions));
        for (int p = 0; p < config.numOutputPartitions; ++p) {
            if (owners.empty() || rng.uniformInt(4) == 0)
                continue; // empty partition
            // An output lives in at most one partition per scratchpad.
            std::size_t pick = rng.uniformInt(owners.size());
            NodeId owner = owners[pick];
            owners.erase(owners.begin() + std::ptrdiff_t(pick));
            held[std::size_t(p)] = true;
            bool produced = rng.uniformInt(4) != 0;
            bool written_back = rng.uniformInt(2) != 0;
            int reads = produced ? int(rng.uniformInt(3)) : 0;
            for (Scratchpad *spm : {&scan, &range}) {
                spm->allocateOutput(p, owner, 64);
                if (produced)
                    spm->produceOutput(p);
                if (written_back)
                    spm->markWrittenBack(p);
                for (int r = 0; r < reads; ++r)
                    spm->beginRead(p);
            }
        }

        releaseByNodeScan(scan, *dag);
        range.releaseOutputs(dag->firstNodeId(), dag->lastNodeId());
        for (int p = 0; p < config.numOutputPartitions; ++p) {
            const SpmPartition &a = scan.partition(p);
            const SpmPartition &b = range.partition(p);
            EXPECT_EQ(a.owner, b.owner) << "trial " << trial << " p" << p;
            EXPECT_EQ(a.dataValid, b.dataValid) << "trial " << trial;
            EXPECT_EQ(a.ongoingReads, b.ongoingReads) << "trial " << trial;
            EXPECT_EQ(a.writtenBack, b.writtenBack) << "trial " << trial;
            EXPECT_EQ(a.bytes, b.bytes) << "trial " << trial;
            releases += held[std::size_t(p)] && a.owner == 0;
        }
    }
    EXPECT_GT(releases, 50) << "the states must exercise releases";
}

} // namespace
} // namespace relief
