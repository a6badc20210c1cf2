/**
 * @file
 * End-to-end functional validation: every application DAG, executed
 * through the full SoC simulation (scheduler, DMA, forwarding,
 * colocation), must produce the same result as the reference kernel
 * pipelines — proving the scheduling machinery never corrupts
 * dataflow, no matter which policy ran it.
 */

#include <gtest/gtest.h>

#include "core/soc.hh"
#include "dag/apps/apps.hh"
#include "kernels/vision.hh"

namespace relief
{
namespace
{

DagPtr
runFunctional(AppId app, PolicyKind policy)
{
    SocConfig config;
    config.policy = policy;
    Soc soc(config);
    AppConfig app_config;
    app_config.functional = true;
    DagPtr dag = buildApp(app, app_config);
    soc.submit(dag);
    soc.run(fromMs(50.0));
    EXPECT_TRUE(dag->complete()) << appName(app);
    return dag;
}

void
expectExactly(const std::vector<float> &got, const Plane &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_FLOAT_EQ(got[i], want.data()[i]) << "element " << i;
}

TEST(FunctionalPipelineTest, CannyMatchesReference)
{
    DagPtr dag = runFunctional(AppId::Canny, PolicyKind::Relief);
    BayerImage raw = makeSyntheticScene(128, 128, 1);
    expectExactly(dag->leaves().front()->outputData, cannyReference(raw));
}

TEST(FunctionalPipelineTest, HarrisMatchesReference)
{
    DagPtr dag = runFunctional(AppId::Harris, PolicyKind::Relief);
    BayerImage raw = makeSyntheticScene(128, 128, 1);
    expectExactly(dag->leaves().front()->outputData,
                  harrisReference(raw));
}

TEST(FunctionalPipelineTest, DeblurMatchesReference)
{
    DagPtr dag = runFunctional(AppId::Deblur, PolicyKind::Relief);
    BayerImage raw = makeSyntheticScene(128, 128, 1);
    Plane observed = grayscale(isp(raw));
    Filter2D psf = gaussianFilter(5, 1.2f);
    Plane expected = richardsonLucy(observed, psf, 5);
    expectExactly(dag->leaves().front()->outputData, expected);
}

TEST(FunctionalPipelineTest, GruMatchesKernelCell)
{
    AppConfig app_config;
    app_config.functional = true;
    DagPtr dag = runFunctional(AppId::Gru, PolicyKind::Relief);
    std::vector<float> expected = gruReferenceOutput(app_config);
    const auto &got = dag->leaves().front()->outputData;
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got[i], expected[i], 1e-5) << "element " << i;
}

TEST(FunctionalPipelineTest, LstmMatchesKernelCell)
{
    AppConfig app_config;
    app_config.functional = true;
    DagPtr dag = runFunctional(AppId::Lstm, PolicyKind::Relief);
    std::vector<float> expected = lstmReferenceOutput(app_config);
    const auto &got = dag->leaves().front()->outputData;
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got[i], expected[i], 1e-5) << "element " << i;
}

TEST(FunctionalPipelineTest, RecycledRnnDagsMatchOnTheirSecondRun)
{
    // The serving driver's recycling path: a retired DAG is renumbered
    // and resubmitted; its second run must compute the same result.
    AppConfig app_config;
    app_config.functional = true;
    for (AppId app : {AppId::Gru, AppId::Lstm}) {
        Soc soc(SocConfig{});
        DagPtr dag = buildApp(app, app_config);
        int runs = 0;
        soc.manager().setDagRetiredHandler([&](Dag *retired) {
            if (++runs > 1)
                return;
            retired->renumber();
            soc.manager().submitDag(retired, soc.sim().now());
        });
        soc.submit(dag);
        soc.run(fromMs(200.0));
        ASSERT_EQ(runs, 2) << appName(app);
        std::vector<float> expected = app == AppId::Gru
                                          ? gruReferenceOutput(app_config)
                                          : lstmReferenceOutput(app_config);
        const auto &got = dag->leaves().front()->outputData;
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_NEAR(got[i], expected[i], 1e-5) << "element " << i;
    }
}

TEST(FunctionalPipelineTest, ResultIndependentOfPolicy)
{
    // Scheduling decides *when* and *where*, never *what*: every
    // policy must produce identical Canny output.
    DagPtr reference = runFunctional(AppId::Canny, PolicyKind::Fcfs);
    for (PolicyKind policy :
         {PolicyKind::GedfD, PolicyKind::Lax, PolicyKind::HetSched,
          PolicyKind::Relief, PolicyKind::ReliefLax}) {
        DagPtr dag = runFunctional(AppId::Canny, policy);
        EXPECT_EQ(dag->leaves().front()->outputData,
                  reference->leaves().front()->outputData)
            << policyName(policy);
    }
}

TEST(FunctionalPipelineTest, ContentionDoesNotCorruptResults)
{
    // Run Canny together with competing applications; its output must
    // match the standalone reference bit for bit.
    SocConfig config;
    config.policy = PolicyKind::Relief;
    Soc soc(config);
    AppConfig app_config;
    app_config.functional = true;
    DagPtr canny = buildApp(AppId::Canny, app_config);
    DagPtr gru = buildApp(AppId::Gru, app_config);
    DagPtr harris = buildApp(AppId::Harris, app_config);
    soc.submit(canny);
    soc.submit(gru);
    soc.submit(harris);
    soc.run(fromMs(50.0));
    ASSERT_TRUE(canny->complete());
    BayerImage raw = makeSyntheticScene(128, 128, 1);
    expectExactly(canny->leaves().front()->outputData,
                  cannyReference(raw));
}

} // namespace
} // namespace relief
