/** @file Unit tests for the accelerator model. */

#include <gtest/gtest.h>

#include "acc/accelerator.hh"
#include "interconnect/bus.hh"
#include "sim/logging.hh"

namespace relief
{
namespace
{

class AcceleratorTest : public ::testing::Test
{
  protected:
    AcceleratorTest()
        : bus(sim, "bus"), dram(sim, "dram"),
          dram_port(bus.registerPort("dram")),
          acc(sim, "conv0", AccType::Convolution, 0, bus, dram_port, dram,
              ScratchpadConfig{})
    {
    }

    Simulator sim;
    Bus bus;
    MainMemory dram;
    PortId dram_port;
    Accelerator acc;
};

TEST_F(AcceleratorTest, ExposesTypeAndInstance)
{
    EXPECT_EQ(acc.type(), AccType::Convolution);
    EXPECT_EQ(acc.instance(), 0);
    EXPECT_FALSE(acc.busy());
}

TEST_F(AcceleratorTest, AcquireComputeRelease)
{
    acc.acquire();
    EXPECT_TRUE(acc.busy());
    bool done = false;
    acc.startCompute(fromUs(10.0), [&] { done = true; });
    EXPECT_TRUE(acc.busy());
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(acc.busy());
    EXPECT_EQ(acc.tasksExecuted(), 1u);
}

TEST_F(AcceleratorTest, ComputeBusyTimeAccumulates)
{
    acc.acquire();
    acc.startCompute(fromUs(10.0), nullptr);
    sim.run();
    acc.acquire();
    acc.startCompute(fromUs(5.0), nullptr);
    sim.run();
    EXPECT_EQ(acc.computeBusyTime(), fromUs(15.0));
}

TEST_F(AcceleratorTest, DoubleAcquirePanics)
{
    acc.acquire();
    EXPECT_THROW(acc.acquire(), PanicError);
}

TEST_F(AcceleratorTest, ComputeWithoutAcquirePanics)
{
    EXPECT_THROW(acc.startCompute(fromUs(1.0), nullptr), PanicError);
}

TEST_F(AcceleratorTest, ReleaseWithoutAcquirePanics)
{
    EXPECT_THROW(acc.release(), PanicError);
}

TEST_F(AcceleratorTest, ReleaseFreesWithoutCompute)
{
    acc.acquire();
    acc.release();
    EXPECT_FALSE(acc.busy());
    EXPECT_EQ(acc.tasksExecuted(), 0u);
}

TEST_F(AcceleratorTest, OwnsSpmAndDma)
{
    EXPECT_EQ(acc.spm().numPartitions(), 3);
    // The DMA engine registered itself on the fabric after DRAM.
    EXPECT_EQ(acc.dma().port(), 1);
}

} // namespace
} // namespace relief
