/**
 * @file
 * The layer ladder: host cost of one call into each layer's public
 * functions, at parameters taken from the workload being traced.
 *
 * Every rung times batches of calls with std::chrono::steady_clock and
 * reports the median batch's ns per call, so one slow batch (a page
 * fault, a descheduling) does not move the figure.
 */

#ifndef RELBENCH_LADDER_HH
#define RELBENCH_LADDER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/relief.hh"

namespace relbench
{

/** What the ladder borrows from the traced workload. */
struct LadderParams
{
    relief::SocConfig soc;         ///< Platform the workload runs on.
    bool functional = false;       ///< Workload DAGs carry payloads.
    std::uint32_t dataSeed = 1;    ///< Functional input seed.
    int depthMean = 1;             ///< Mean ready-queue depth at insert.
    int depthPeak = 1;             ///< Peak ready-queue depth.
    std::size_t eventPopulation = 64; ///< Pending events in the queue.
    std::uint64_t dramBytes = 1;   ///< Mean DRAM transfer, bytes.
    std::uint64_t fabricBytes = 1; ///< Mean fabric transfer, bytes.
    double dramOccupancy = 0.0;    ///< Busy share of each DRAM resource.
    relief::Tick taskRuntime = 1;  ///< Mean accelerator task.
    /** RELIEF decision log: share of ready-queue inserts that are
     *  forwarding candidates, and share of those that find an idle
     *  instance (so the feasibility check runs). */
    double forwardShare = 0.0;
    double idleShare = 0.0;
    /** Evenly spaced quantiles of the candidates' laxity at decision
     *  time; the ladder draws every inserted node's key from them. */
    std::vector<relief::STick> laxities;
};

/**
 * Named ladder figures. Keys are metric names ("sim.dispatch_ns",
 * "sched.RELIEF.push_select_ns_mean", "kernels.convolution.mpix_per_s",
 * "dag.canny.build_us", ...) plus "kernels.<app>.iter_ns", the
 * functional cost of one iteration of each app's DAG, and
 * "sched.forward_share", the share of the workload policy's inserts at
 * the mean depth that took the forwarding path.
 */
using LadderResult = std::map<std::string, double>;

LadderResult runLadder(const LadderParams &params);

} // namespace relbench

#endif // RELBENCH_LADDER_HH
