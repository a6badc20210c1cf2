/**
 * @file
 * The benchmark's three workloads: how their inputs are generated from
 * the benchmark seed, how one run is set up, executed and checked, and
 * what it reports.
 *
 *  - long-cdl:         CDL under RELIEF, closed loop, timing-only, flat
 *                      DRAM + bus, long horizon.
 *  - functional-cdghl: all five apps with functional payloads, closed
 *                      loop, short horizon.
 *  - serve-bursty:     ServeDriver open loop, MMPP arrivals over the
 *                      default QoS classes, laxity admission, banked
 *                      DRAM + crossbar, request spans / tail sampling /
 *                      burn-rate alerts on.
 *
 * The simulator only ever sees generated inputs: per-app first
 * submission offsets (closed loop), the functional data seed, and an
 * arrival stream file (serve). Every simulated loop is deterministic in
 * simulated time, so one (workload, seed) pair always yields the same
 * statistics digest.
 */

#ifndef RELBENCH_WORKLOADS_HH
#define RELBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/relief.hh"
#include "sim/hostprof.hh"

namespace relbench
{

using relief::Tick;

enum class WorkloadId
{
    LongCdl,
    FunctionalCdghl,
    ServeBursty,
};

struct WorkloadSpec
{
    WorkloadId id;
    const char *name;
    Tick horizon; ///< Simulated window of one timed run.
    /** Simulated window of the one run the model metrics come from.
     *  Serve's is four times its timed horizon: its tail latency
     *  depends on the arrival stream, and a longer stream holds more
     *  bursts, so the figure moves less between seeds. */
    Tick modelHorizon;
    /** Host seconds of one iteration of the driver's timed loop (run,
     *  report, set-up samples) on the 4-vCPU Xeon host the benchmark
     *  was calibrated on. Fixes the number of runs for a --seconds. */
    double iterationS;
};

/** Equal simulated slices each run is timed in (RunResult::sliceNs);
 *  divides every workload's horizon. */
constexpr int slicesPerRun = 20;

/** The workload called @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The platform @p spec runs on. */
relief::SocConfig workloadSoc(const WorkloadSpec &spec);

/** The seed whose statistics digest is pinned in reference_digests.hh. */
constexpr std::uint64_t defaultSeed = 1;

/** Everything one run generates from the benchmark seed. */
struct Inputs
{
    std::uint64_t seed = defaultSeed;
    /** Closed loop: each app's first submission tick, in mix order. */
    std::vector<Tick> offsets;
    /** Functional: image / weight generator seed. */
    std::uint32_t dataSeed = 1;
    /** Serve: file holding the generated arrival stream. */
    std::string arrivalPath;
};

/** Make the inputs of @p spec for @p seed; serve writes its arrival
 *  stream, over @p horizon (0 = the timed horizon), under
 *  @p scratch_dir. */
Inputs generateInputs(const WorkloadSpec &spec, std::uint64_t seed,
                      const std::string &scratch_dir, Tick horizon = 0);

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Simulated outcomes of one run (exact for a given seed). */
struct ModelMetrics
{
    double dagDeadlineFrac = 0.0;  ///< DAGs within deadline / finished.
    double forwardColocFrac = 0.0; ///< (forwards + colocations) / edges.
    double dramTrafficFrac = 0.0;  ///< DRAM bytes / all-DRAM baseline.
    double goodputRps = 0.0;       ///< Deadline-meeting DAGs per sim s.
    double admittedFrac = 0.0;     ///< Admitted / offered requests.
    /** Latency of every finished DAG (serve: request), in sim ms. */
    std::vector<double> latenciesMs;
};

/** Operation counts of one run, for the ladder reconciliation. */
struct Counts
{
    double events = 0;
    double heapCallables = 0;
    double slabCapacity = 0;
    double decisions = 0;      ///< Ready-queue inserts.
    double queueDepthMean = 0; ///< Mean queue length at insert.
    double queuePeak = 0;
    double claims = 0;         ///< Claims on every ledger resource.
    double dramTransfers = 0;
    double dramBytes = 0;
    double dramOccupancy = 0;  ///< Mean busy share of the DRAM resources.
    double fabricTransfers = 0;
    double fabricBytes = 0;
    double dmaTransfers = 0;
    double tasks = 0;          ///< Accelerator tasks executed.
    double computeNs = 0;      ///< Simulated compute time of all tasks.
    /** Profiled runs, RELIEF's decision log: inserts of nodes with a
     *  just-finished parent (forwarding candidates), and those that
     *  found an idle instance (so the feasibility check ran). */
    double fwdCandidates = 0;
    double fwdChecked = 0;
    /** Each forwarding candidate's laxity at decision time, in ticks. */
    std::vector<relief::STick> fwdLaxities;
    double scratchReuses = 0;
    double scratchAllocs = 0;
    double arrivals = 0;       ///< Serve: offered requests.
    double keptTraces = 0;     ///< Serve: tail-sampled span trees.
    /** Completed iterations per app name (closed loop) or admitted
     *  requests per app name (serve). */
    std::map<std::string, double> appRuns;
    /** DAGs built by the run, per app name (setup or in-run). */
    std::map<std::string, double> appBuilds;
};

/** Host time of one run's phases, from the benchmark's own spans. */
struct Spans
{
    double constructNs = 0; ///< Soc / ServeDriver construction.
    double buildNs = 0;     ///< buildApp calls during setup.
    double reportNs = 0;    ///< Report, stats dump and digest.

    double setupNs() const { return constructNs + buildNs; }
};

struct RunResult
{
    Spans spans;
    /**
     * Host ns of each equal simulated slice of the run, stamped by
     * events the benchmark schedules at the slice boundaries. Slices
     * last tens of host ms, short enough that some repetitions of each
     * one miss the machine interference of a shared host.
     */
    std::vector<double> sliceNs;
    ModelMetrics model;
    std::uint64_t digest = 0;
    std::vector<Check> checks;
    Counts counts;
    relief::HostProfSnapshot prof; ///< Filled when profiled.
};

struct RunOptions
{
    /** Simulated window; 0 = the workload's own horizon. */
    Tick horizon = 0;
    /** Meter run + report with HostProf. */
    bool hostprof = false;
};

/** Set up, run, report and check one instance of @p spec. */
RunResult runOnce(const WorkloadSpec &spec, const Inputs &inputs,
                  const RunOptions &options);

/** Time only the set-up (inputs, construction, DAG builds) of one
 *  instance; returns host ns. */
double setupOnce(const WorkloadSpec &spec, std::uint64_t seed,
                 const std::string &scratch_dir);

/**
 * Functional correctness: run every app once, functional, with the
 * workload's data seed, and compare the GRU and LSTM leaf outputs with
 * gruReferenceOutput / lstmReferenceOutput.
 */
std::vector<Check> checkRnnOutputs(std::uint32_t data_seed,
                                   bool perturb_gru);

/** Pinned digest of @p spec at defaultSeed (reference_digests.hh). */
std::uint64_t referenceDigest(const WorkloadSpec &spec);

} // namespace relbench

#endif // RELBENCH_WORKLOADS_HH
