/**
 * @file
 * End-to-end HostProf attribution over full mix runs: the acceptance
 * bar is that at least 90% of the measured host wall time is
 * attributed to a category on every tier-1 mix (the rest is clock
 * granularity and unscoped glue), and that per-category event and
 * heap-callable counts do not depend on the parallel worker count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel.hh"
#include "sim/hostprof.hh"

namespace relief
{
namespace
{

TEST(HostProfCoverageTest, TierOneMixesAttributeMostOfTheWall)
{
    for (const std::string mix : {"CDL", "GHL", "CG"}) {
        setHostProfEnabled(true);
        MetricsReport report =
            runMixPolicy(mix, PolicyKind::Relief, false);
        setHostProfEnabled(false);
        HostProfSnapshot snap = hostProfSnapshot();

        EXPECT_GT(report.run.dagsFinished, 0) << mix;
        EXPECT_GT(snap.totalWallNs, 0u) << mix;
        EXPECT_GE(snap.coverage(), 0.9) << mix;
        EXPECT_LE(snap.coverage(), 1.0) << mix;

        // The run went through the event loop, so the model
        // categories must all have been exercised.
        std::uint64_t tagged = 0;
        for (HostCat cat : {HostCat::Sched, HostCat::Dma, HostCat::Mem,
                            HostCat::Kernels})
            tagged +=
                snap.cats[static_cast<std::size_t>(cat)].wallNs;
        EXPECT_GT(tagged, 0u) << mix;
    }
}

TEST(HostProfCoverageTest, ProfilingOffLeavesNoResidue)
{
    // A plain run with profiling off must not disturb a later
    // profiled run's books (thread-local state fully resets).
    runMixPolicy("CG", PolicyKind::Relief, false);
    setHostProfEnabled(true);
    runMixPolicy("CG", PolicyKind::Relief, false);
    setHostProfEnabled(false);
    HostProfSnapshot snap = hostProfSnapshot();
    EXPECT_GE(snap.coverage(), 0.9);
}

TEST(HostProfCoverageTest, CountsAreIdenticalForAnyWorkerCount)
{
    // HostProf state is thread-local: each cell enables profiling on
    // the worker that runs it, around exactly its own simulation.
    // Wall times differ run to run, but the per-category event and
    // heap-callable counts are a pure function of the cell.
    struct Cell
    {
        std::string mix;
        PolicyKind policy;
    };
    std::vector<Cell> cells;
    for (const std::string mix : {"CDL", "GHL", "CG"})
        for (PolicyKind policy : {PolicyKind::Fcfs, PolicyKind::Relief})
            cells.push_back({mix, policy});

    auto profileCells = [&](int jobs) {
        std::vector<HostProfSnapshot> snaps(cells.size());
        parallelFor(cells.size(), jobs, [&](std::size_t i) {
            setHostProfEnabled(true);
            runMixPolicy(cells[i].mix, cells[i].policy, false);
            setHostProfEnabled(false);
            snaps[i] = hostProfSnapshot();
        });
        return snaps;
    };
    std::vector<HostProfSnapshot> serial = profileCells(1);
    std::vector<HostProfSnapshot> parallel = profileCells(4);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string cell =
            cells[i].mix + "/" + policyName(cells[i].policy);
        EXPECT_GT(serial[i].totalWallNs, 0u) << cell;
        EXPECT_GT(parallel[i].totalWallNs, 0u) << cell;
        std::uint64_t events = 0;
        for (std::size_t c = 0; c < numHostCats; ++c) {
            events += serial[i].cats[c].events;
            const char *cat = hostCatName(static_cast<HostCat>(c));
            EXPECT_EQ(serial[i].cats[c].events,
                      parallel[i].cats[c].events)
                << cell << " " << cat;
            EXPECT_EQ(serial[i].cats[c].heapAllocs,
                      parallel[i].cats[c].heapAllocs)
                << cell << " " << cat;
        }
        EXPECT_GT(events, 0u) << cell;
    }
}

} // namespace
} // namespace relief
