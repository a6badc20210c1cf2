#include "core/experiment.hh"

#include <optional>

#include "kernels/scratch.hh"
#include "sim/hostprof.hh"

namespace relief
{

MetricsReport
runExperiment(const ExperimentConfig &config)
{
    // Fresh ids per experiment: results become a pure function of the
    // config, identical whether runs execute serially or on a
    // parallel runner's workers (see dag.hh resetNodeIds).
    resetNodeIds();
    resetKernelScratch(); // likewise for the kernels.scratch_* stats
    // Set-up and teardown run outside the event loop; glue scopes
    // charge them to HostCat::Other so profiled runs attribute them.
    std::optional<Soc> soc;
    {
        HostProfScope setup(HostCat::Other);
        soc.emplace(config.soc);
        for (AppId app : parseMix(config.mix)) {
            DagPtr dag = buildApp(app, config.app);
            soc->submit(dag, 0, config.continuous);
        }
    }
    soc->run(config.timeLimit);
    HostProfScope teardown(HostCat::Other);
    MetricsReport report = soc->report();
    soc.reset();
    return report;
}

MetricsReport
runMixPolicy(const std::string &mix, PolicyKind policy, bool continuous)
{
    ExperimentConfig config;
    config.soc.policy = policy;
    config.mix = mix;
    config.continuous = continuous;
    return runExperiment(config);
}

} // namespace relief
