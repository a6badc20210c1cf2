/**
 * @file
 * System-level integration tests: whole-application runs, cross-policy
 * behaviour (the paper's headline claims in miniature), interconnect
 * sensitivity, and continuous contention.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"

namespace relief
{
namespace
{

TEST(SocIntegrationTest, EveryAppAloneMeetsItsDeadline)
{
    // Table V: positive laxity for every application run alone.
    for (const std::string mix : {"C", "D", "G", "H", "L"}) {
        MetricsReport report =
            runMixPolicy(mix, PolicyKind::Relief, false);
        ASSERT_EQ(report.apps.size(), 1u);
        EXPECT_EQ(report.apps[0].iterations, 1) << mix;
        EXPECT_EQ(report.apps[0].deadlinesMet, 1) << mix;
        EXPECT_LT(report.apps[0].meanSlowdown(), 1.0) << mix;
    }
}

TEST(SocIntegrationTest, StandaloneRuntimesTrackTableV)
{
    // Deadline minus Table V laxity gives each app's standalone
    // runtime; ours should land in the same ballpark (+-35%).
    const std::map<std::string, double> expected_ms = {
        {"C", 3.0}, {"D", 16.4}, {"G", 4.7}, {"L", 3.4},
    };
    for (const auto &[mix, ms] : expected_ms) {
        MetricsReport report =
            runMixPolicy(mix, PolicyKind::Relief, false);
        double runtime_ms =
            report.apps[0].meanSlowdown() *
            toMs(report.apps[0].relDeadline);
        EXPECT_NEAR(runtime_ms, ms, ms * 0.35) << mix;
    }
}

TEST(SocIntegrationTest, ReliefForwardsMoreThanEveryBaseline)
{
    // The paper's headline claim (Fig. 4) on one high-contention mix.
    double relief =
        runMixPolicy("GHL", PolicyKind::Relief).forwardFraction();
    for (PolicyKind policy :
         {PolicyKind::Fcfs, PolicyKind::GedfD, PolicyKind::GedfN,
          PolicyKind::Lax, PolicyKind::HetSched}) {
        double baseline =
            runMixPolicy("GHL", policy).forwardFraction();
        EXPECT_GT(relief, baseline) << policyName(policy);
    }
}

TEST(SocIntegrationTest, ReliefReducesDramTraffic)
{
    // Observation 2: lower main-memory traffic than the baselines.
    std::uint64_t relief = runMixPolicy("GHL", PolicyKind::Relief)
                               .dramBytes;
    std::uint64_t lax = runMixPolicy("GHL", PolicyKind::Lax).dramBytes;
    std::uint64_t hetsched =
        runMixPolicy("GHL", PolicyKind::HetSched).dramBytes;
    EXPECT_LT(relief, lax);
    EXPECT_LT(relief, hetsched);
}

TEST(SocIntegrationTest, ReliefReducesMemoryEnergy)
{
    // Observation 3, same mechanism as traffic.
    double relief = runMixPolicy("CGL", PolicyKind::Relief).dramEnergyPJ;
    double lax = runMixPolicy("CGL", PolicyKind::Lax).dramEnergyPJ;
    EXPECT_LT(relief, lax);
}

TEST(SocIntegrationTest, TrafficBreakdownIsConsistent)
{
    MetricsReport report = runMixPolicy("CDH", PolicyKind::Relief);
    // Fractions of the all-DRAM baseline are sane.
    EXPECT_GT(report.dramTrafficFraction(), 0.0);
    EXPECT_LE(report.dramTrafficFraction(), 1.0001);
    EXPECT_GE(report.spmTrafficFraction(), 0.0);
    EXPECT_LT(report.spmTrafficFraction(), 1.0);
}

TEST(SocIntegrationTest, ForwardingOffMatchesBaselineBytes)
{
    ExperimentConfig config;
    config.soc.policy = PolicyKind::Fcfs;
    config.soc.manager.forwardingEnabled = false;
    config.mix = "CH";
    MetricsReport report = runExperiment(config);
    EXPECT_EQ(report.dramBytes, report.run.baselineBytes);
    EXPECT_EQ(report.spmForwardBytes, 0u);
}

TEST(SocIntegrationTest, ContinuousContentionIteratesWithinWindow)
{
    MetricsReport report =
        runMixPolicy("CGH", PolicyKind::Relief, /* continuous */ true);
    for (const AppOutcome &app : report.apps) {
        EXPECT_GT(app.iterations, 0) << app.name;
    }
    // GRU iterates many times within 50 ms (runtime ~5 ms).
    for (const AppOutcome &app : report.apps) {
        if (app.name == "gru") {
            EXPECT_GE(app.iterations, 5);
        }
    }
    EXPECT_LE(report.execTime, fromMs(50.0) + fromMs(1.0));
}

TEST(SocIntegrationTest, StatsReadDuringASecondRunReportZeroBusyTime)
{
    // The busy trackers retire as a run advances. A stats or pressure
    // dump taken while a later run() is in flight must not query them
    // below their watermark: it sees the run as unfinished.
    resetNodeIds();
    SocConfig config;
    config.policy = PolicyKind::Relief;
    Soc soc(config);
    for (AppId app : parseMix("CDL"))
        soc.submit(buildApp(app, AppConfig{}), 0, /* continuous */ true);
    soc.run(fromMs(10.0));
    double first_busy = soc.stats().value("dram.channel.busy_us");
    EXPECT_GT(first_busy, 0.0);

    struct MidRun
    {
        std::ostringstream text, json, pressure;
        double busy = -1.0;
    } mid;
    soc.sim().at(fromMs(15.0), [&soc, &mid] {
        soc.stats().dumpText(mid.text);
        soc.writeStatsJson(mid.json);
        soc.writePressureJson(mid.pressure);
        mid.busy = soc.stats().value("dram.channel.busy_us");
    });
    soc.run(fromMs(20.0));

    EXPECT_EQ(mid.busy, 0.0);
    EXPECT_NE(mid.text.str().find("dram.channel.busy_us"),
              std::string::npos);
    EXPECT_NE(mid.json.str().find("\"pressure\""), std::string::npos);
    EXPECT_NE(mid.pressure.str().find("relief-pressure-v1"),
              std::string::npos);
    EXPECT_GT(soc.stats().value("dram.channel.busy_us"), first_busy);
}

TEST(SocIntegrationTest, CrossbarIsNoWorseThanBus)
{
    // Observation 10: these workloads are not interconnect-bound, so
    // the crossbar changes little — but it must never be slower.
    ExperimentConfig bus;
    bus.mix = "CGH";
    bus.soc.fabric = FabricKind::Bus;
    ExperimentConfig xbar = bus;
    xbar.soc.fabric = FabricKind::Crossbar;
    Tick bus_time = runExperiment(bus).execTime;
    Tick xbar_time = runExperiment(xbar).execTime;
    EXPECT_LE(xbar_time, bus_time + bus_time / 10);
}

TEST(SocIntegrationTest, FabricOccupancyIsReported)
{
    MetricsReport report = runMixPolicy("CGH", PolicyKind::Relief);
    EXPECT_GT(report.fabricOccupancy, 0.0);
    EXPECT_LT(report.fabricOccupancy, 1.0);
}

TEST(SocIntegrationTest, AcceleratorOccupancyIsPositive)
{
    MetricsReport report = runMixPolicy("CDG", PolicyKind::Relief);
    EXPECT_GT(report.accOccupancy, 0.0);
    // Seven accelerators: occupancy sum is bounded by 7.
    EXPECT_LT(report.accOccupancy, 7.0);
}

TEST(SocIntegrationTest, DeterministicAcrossRuns)
{
    MetricsReport a = runMixPolicy("CDL", PolicyKind::Relief);
    MetricsReport b = runMixPolicy("CDL", PolicyKind::Relief);
    EXPECT_EQ(a.run.forwards, b.run.forwards);
    EXPECT_EQ(a.run.colocations, b.run.colocations);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.execTime, b.execTime);
}

TEST(SocIntegrationTest, RnnMixesAreColocationHeavy)
{
    // Observation after Fig. 4: all GRU/LSTM forwards are colocations
    // (single accelerator type).
    MetricsReport report = runMixPolicy("G", PolicyKind::Relief);
    EXPECT_GT(report.run.colocations, 0u);
    EXPECT_EQ(report.run.forwards, 0u);
}

TEST(SocIntegrationTest, VisionAppsUseSpmToSpmForwards)
{
    MetricsReport report = runMixPolicy("C", PolicyKind::Relief);
    EXPECT_GT(report.run.forwards, 0u);
}

TEST(SocIntegrationTest, PredictorChoiceBarelyMatters)
{
    // Observation 8: bandwidth/data-movement predictors have little
    // performance impact.
    ExperimentConfig base;
    base.mix = "CGH";
    base.soc.policy = PolicyKind::Relief;
    MetricsReport max_pred = runExperiment(base);

    ExperimentConfig smart = base;
    smart.soc.bwPredictor = BwPredictorKind::Average;
    smart.soc.dmPredictor = DmPredictorKind::Graph;
    MetricsReport smart_pred = runExperiment(smart);

    double max_met = max_pred.run.nodeDeadlineFraction();
    double smart_met = smart_pred.run.nodeDeadlineFraction();
    EXPECT_NEAR(max_met, smart_met, 0.15);
    std::uint64_t f1 = max_pred.run.forwards + max_pred.run.colocations;
    std::uint64_t f2 =
        smart_pred.run.forwards + smart_pred.run.colocations;
    EXPECT_NEAR(double(f1), double(f2), 0.15 * double(f1));
}

} // namespace
} // namespace relief
