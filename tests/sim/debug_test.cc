/** @file Unit tests for the runtime debug-flag system. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "sim/debug.hh"

namespace relief
{
namespace
{

/** Captures log output and guarantees flag/sink isolation per test. */
class DebugTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearDebugFlags();
        previous_ = setLogSink(
            [this](LogLevel level, const std::string &msg) {
                levels.push_back(level);
                lines.push_back(msg);
            });
    }

    void
    TearDown() override
    {
        setLogSink(std::move(previous_));
        clearDebugFlags();
    }

    std::vector<LogLevel> levels;
    std::vector<std::string> lines;

  private:
    LogSink previous_;
};

TEST_F(DebugTest, AllFlagsStartDisabled)
{
    for (DebugFlag flag : allDebugFlags())
        EXPECT_FALSE(debugFlagEnabled(flag)) << debugFlagName(flag);
    EXPECT_EQ(allDebugFlags().size(), numDebugFlags);
}

TEST_F(DebugTest, SetAndClearSingleFlag)
{
    setDebugFlag(DebugFlag::Dma);
    EXPECT_TRUE(debugFlagEnabled(DebugFlag::Dma));
    EXPECT_FALSE(debugFlagEnabled(DebugFlag::Sched));
    setDebugFlag(DebugFlag::Dma, false);
    EXPECT_FALSE(debugFlagEnabled(DebugFlag::Dma));
}

TEST_F(DebugTest, NamesRoundTrip)
{
    for (DebugFlag flag : allDebugFlags()) {
        EXPECT_TRUE(setDebugFlagByName(debugFlagName(flag)));
        EXPECT_TRUE(debugFlagEnabled(flag));
    }
    EXPECT_FALSE(setDebugFlagByName("NoSuchFlag"));
}

TEST_F(DebugTest, CsvListEnablesSeveralFlags)
{
    setDebugFlags("Sched,Mem");
    EXPECT_TRUE(debugFlagEnabled(DebugFlag::Sched));
    EXPECT_TRUE(debugFlagEnabled(DebugFlag::Mem));
    EXPECT_FALSE(debugFlagEnabled(DebugFlag::Dma));
}

TEST_F(DebugTest, UnknownFlagInListIsFatal)
{
    try {
        setDebugFlags("Sched,Bogus");
        FAIL() << "setDebugFlags did not throw";
    } catch (const FatalError &err) {
        // The error names the typo and lists every valid flag.
        std::string msg = err.what();
        EXPECT_NE(msg.find("Bogus"), std::string::npos);
        EXPECT_NE(msg.find("Sched,Dma,Mem,Fabric,Stats"),
                  std::string::npos);
    }
}

TEST_F(DebugTest, ClearDisablesEverything)
{
    setDebugFlags("Sched,Dma,Mem,Fabric,Stats");
    clearDebugFlags();
    for (DebugFlag flag : allDebugFlags())
        EXPECT_FALSE(debugFlagEnabled(flag));
}

TEST_F(DebugTest, EnabledTracksEverySetter)
{
    // debugFlagEnabled reads the mask inline; every setter must keep
    // it and the per-flag view in step.
    auto expectOnly = [](std::uint32_t mask) {
        EXPECT_EQ(debugFlagMask(), mask);
        for (DebugFlag flag : allDebugFlags()) {
            bool on = (mask >> std::size_t(flag)) & 1u;
            EXPECT_EQ(debugFlagEnabled(flag), on) << debugFlagName(flag);
        }
    };
    expectOnly(0);
    setDebugFlag(DebugFlag::Event);
    setDebugFlag(DebugFlag::Sched);
    expectOnly((1u << std::size_t(DebugFlag::Event)) |
               (1u << std::size_t(DebugFlag::Sched)));
    setDebugFlag(DebugFlag::Event, false);
    expectOnly(1u << std::size_t(DebugFlag::Sched));

    setDebugFlagMask(0x55);
    expectOnly(0x55);
    // Bits past the last flag name no flag and are dropped.
    setDebugFlagMask(~std::uint32_t(0));
    expectOnly((1u << numDebugFlags) - 1);
    clearDebugFlags();
    expectOnly(0);
}

TEST_F(DebugTest, ParallelWorkersSeeTheLaunchersMask)
{
    setDebugFlags("Dma,Serve");
    const std::uint32_t launcher = debugFlagMask();
    std::vector<std::uint32_t> seen(6, 0);
    std::vector<int> enabled(6, 0);
    parallelFor(seen.size(), 2, [&](std::size_t i) {
        seen[i] = debugFlagMask();
        enabled[i] = debugFlagEnabled(DebugFlag::Dma) &&
                     debugFlagEnabled(DebugFlag::Serve) &&
                     !debugFlagEnabled(DebugFlag::Sched);
    });
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], launcher) << "index " << i;
        EXPECT_TRUE(enabled[i]) << "index " << i;
    }
}

TEST_F(DebugTest, DebugPrintFormatsTickObjectMessage)
{
    debugPrint(DebugFlag::Sched, 123, "soc.manager", "hello");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(levels[0], LogLevel::Debug);
    // gem5's layout: width-12 tick column, then "who: message".
    EXPECT_EQ(lines[0], "         123: soc.manager: hello");
}

TEST_F(DebugTest, DprintfnHonorsItsFlag)
{
    Tick now = 42;
    DPRINTFN(Dma, now, "dma0", "issue ", 4096, " bytes");
    EXPECT_TRUE(lines.empty()); // flag off: statement costs one test

    setDebugFlag(DebugFlag::Dma);
    DPRINTFN(Dma, now, "dma0", "issue ", 4096, " bytes");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("dma0: issue 4096 bytes"),
              std::string::npos);
}

} // namespace
} // namespace relief
