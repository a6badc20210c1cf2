/**
 * @file
 * relbench_driver — measures one workload in one process and prints
 * the raw measurements as one JSON object on stdout. relbench/run.py
 * builds it, runs it and turns the measurements into metrics.
 *
 *   relbench_driver --workload long-cdl --seed 7 --seconds 10 \
 *                   --mode e2e --scratch .bench_build/relbench
 *
 * --mode e2e     runs the workload back to back, as many times as fit
 *                in --seconds at the calibrated iteration time (HostProf
 *                off), timing each run slice by slice and sampling
 *                set-up between runs.
 * --mode traced  probes peak RSS at two horizons, alternates runs with
 *                HostProf on and off for 60% of --seconds, then runs
 *                the layer ladder.
 *
 * Every run is checked (model invariants, digest stable across runs);
 * each invocation also re-runs the default seed against its pinned
 * digest, and functional-cdghl checks the GRU/LSTM outputs.
 * --print-digests prints each workload's digest at the default seed.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ladder.hh"
#include "stats/json.hh"
#include "workloads.hh"

using namespace relbench;
using relief::Tick;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    std::string mode = "e2e";
    std::string scratch = ".";
    bool perturbGru = false;
    bool corruptDigest = false;
    bool printDigests = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "relbench_driver: " << why
              << "\nusage: relbench_driver --workload NAME --seed N "
                 "--seconds S --mode e2e|traced --scratch DIR "
                 "[--perturb-gru] [--corrupt-digest] | --print-digests\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--mode")
            o.mode = value();
        else if (arg == "--scratch")
            o.scratch = value();
        else if (arg == "--perturb-gru")
            o.perturbGru = true;
        else if (arg == "--corrupt-digest")
            o.corruptDigest = true;
        else if (arg == "--print-digests")
            o.printDigests = true;
        else
            usage("unknown argument " + arg);
    }
    if (o.printDigests)
        return o;
    if (!findWorkload(o.workload))
        usage("unknown workload '" + o.workload + "'");
    if (o.mode != "e2e" && o.mode != "traced")
        usage("--mode must be e2e or traced");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

double
nowS()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** The CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

/** Restrict the process to @p cpu (best effort: unpinned on error). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Minimal streaming JSON emitter over the repository's helpers. */
class Json
{
  public:
    Json &
    open(const std::string &key = "")
    {
        sep(key);
        os_ << '{';
        first_ = true;
        return *this;
    }
    Json &
    openList(const std::string &key)
    {
        sep(key);
        os_ << '[';
        first_ = true;
        return *this;
    }
    Json &
    close(char c = '}')
    {
        os_ << c;
        first_ = false;
        return *this;
    }
    Json &
    num(const std::string &key, double v)
    {
        sep(key);
        os_ << relief::jsonNumber(v);
        return *this;
    }
    Json &
    str(const std::string &key, const std::string &v)
    {
        sep(key);
        os_ << '"' << relief::jsonEscape(v) << '"';
        return *this;
    }
    std::string text() const { return os_.str(); }

  private:
    void
    sep(const std::string &key)
    {
        if (!first_)
            os_ << ',';
        first_ = false;
        if (!key.empty())
            os_ << '"' << key << "\":";
    }

    std::ostringstream os_;
    bool first_ = true;
};

/** Accumulates every checked run of the invocation. */
struct Ledger
{
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;

    void
    add(const std::string &what, const std::vector<Check> &checks)
    {
        ++attempted;
        bool ok = true;
        for (const Check &c : checks) {
            if (!c.ok) {
                ok = false;
                failures.push_back(what + ": " + c.name + " (" + c.detail +
                                   ")");
            }
        }
        if (!ok)
            ++failed;
    }
};

void
writeRun(Json &j, const std::string &kind, const RunResult &r)
{
    j.open();
    j.str("kind", kind);
    j.str("digest", hex(r.digest));
    j.openList("slice_ns");
    for (double v : r.sliceNs)
        j.num("", v);
    j.close(']');
    j.close();
}

/** The simulated outcomes of the model run. */
void
writeModel(Json &j, const ModelMetrics &m)
{
    j.open("model");
    j.num("dag_deadline_frac", m.dagDeadlineFrac);
    j.num("forward_coloc_frac", m.forwardColocFrac);
    j.num("dram_traffic_frac", m.dramTrafficFrac);
    j.num("goodput_rps", m.goodputRps);
    j.num("admitted_frac", m.admittedFrac);
    j.openList("latencies_ms");
    for (double v : m.latenciesMs)
        j.num("", v);
    j.close(']');
    j.close();
}

/** Sum of the counts and HostProf categories of the profiled runs. */
struct Totals
{
    Counts counts;
    relief::HostProfSnapshot prof;
    Spans spans;
    int runs = 0;

    void
    add(const RunResult &r)
    {
        Counts &c = counts;
        const Counts &o = r.counts;
        c.events += o.events;
        c.heapCallables += o.heapCallables;
        c.slabCapacity = std::max(c.slabCapacity, o.slabCapacity);
        c.decisions += o.decisions;
        c.queueDepthMean += o.queueDepthMean; // averaged on output
        c.queuePeak = std::max(c.queuePeak, o.queuePeak);
        c.claims += o.claims;
        c.dramTransfers += o.dramTransfers;
        c.dramBytes += o.dramBytes;
        c.dramOccupancy += o.dramOccupancy; // averaged on output
        c.fabricTransfers += o.fabricTransfers;
        c.fabricBytes += o.fabricBytes;
        c.dmaTransfers += o.dmaTransfers;
        c.tasks += o.tasks;
        c.computeNs += o.computeNs;
        c.fwdCandidates += o.fwdCandidates;
        c.fwdChecked += o.fwdChecked;
        // Every run repeats the same decisions (digest check).
        if (c.fwdLaxities.empty())
            c.fwdLaxities = o.fwdLaxities;
        c.scratchReuses += o.scratchReuses;
        c.scratchAllocs += o.scratchAllocs;
        c.arrivals += o.arrivals;
        c.keptTraces += o.keptTraces;
        for (const auto &[app, n] : o.appRuns)
            c.appRuns[app] += n;
        for (const auto &[app, n] : o.appBuilds)
            c.appBuilds[app] += n;
        prof.merge(r.prof);
        spans.constructNs += r.spans.constructNs;
        spans.buildNs += r.spans.buildNs;
        spans.reportNs += r.spans.reportNs;
        ++runs;
    }
};

void
writeTotals(Json &j, const Totals &t)
{
    const Counts &c = t.counts;
    j.open("counts");
    j.num("runs", t.runs);
    j.num("events", c.events);
    j.num("heap_callables", c.heapCallables);
    j.num("slab_capacity", c.slabCapacity);
    j.num("decisions", c.decisions);
    j.num("queue_depth_mean", t.runs ? c.queueDepthMean / t.runs : 0.0);
    j.num("queue_peak_depth", c.queuePeak);
    j.num("claims", c.claims);
    j.num("dram_transfers", c.dramTransfers);
    j.num("dram_bytes", c.dramBytes);
    j.num("dram_occupancy", t.runs ? c.dramOccupancy / t.runs : 0.0);
    j.num("fabric_transfers", c.fabricTransfers);
    j.num("fabric_bytes", c.fabricBytes);
    j.num("dma_transfers", c.dmaTransfers);
    j.num("tasks", c.tasks);
    j.num("compute_ns", c.computeNs);
    j.num("fwd_candidates", c.fwdCandidates);
    j.num("fwd_checked", c.fwdChecked);
    j.num("scratch_reuses", c.scratchReuses);
    j.num("scratch_allocs", c.scratchAllocs);
    j.num("arrivals", c.arrivals);
    j.num("kept_traces", c.keptTraces);
    j.open("app_runs");
    for (const auto &[app, n] : c.appRuns)
        j.num(app, n);
    j.close();
    j.open("app_builds");
    for (const auto &[app, n] : c.appBuilds)
        j.num(app, n);
    j.close();
    j.close();

    j.open("spans_ns");
    j.num("construct", t.spans.constructNs);
    j.num("build", t.spans.buildNs);
    j.num("report", t.spans.reportNs);
    j.close();

    j.open("hostprof_ns");
    j.num("total", double(t.prof.totalWallNs));
    for (std::size_t i = 0; i < relief::numHostCats; ++i)
        j.num(relief::hostCatName(relief::HostCat(i)),
              double(t.prof.cats[i].wallNs));
    j.close();
}

/** The ladder's parameters, taken from the profiled runs. */
LadderParams
ladderParams(const WorkloadSpec &spec, const Inputs &inputs,
             const Totals &totals)
{
    const Counts &c = totals.counts;
    auto mean = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
    LadderParams lp;
    lp.soc = workloadSoc(spec);
    lp.functional = spec.id == WorkloadId::FunctionalCdghl;
    lp.dataSeed = inputs.dataSeed;
    lp.depthMean = std::max(1, int(mean(c.queueDepthMean, totals.runs) + 0.5));
    lp.depthPeak = std::max(1, int(c.queuePeak));
    lp.eventPopulation = std::max<std::size_t>(1, std::size_t(c.slabCapacity));
    lp.dramBytes = std::max<std::uint64_t>(
        1, std::uint64_t(mean(c.dramBytes, c.dramTransfers) + 0.5));
    lp.fabricBytes = std::max<std::uint64_t>(
        1, std::uint64_t(mean(c.fabricBytes, c.fabricTransfers) + 0.5));
    lp.dramOccupancy = mean(c.dramOccupancy, totals.runs);
    lp.taskRuntime =
        std::max<Tick>(1, relief::fromNs(mean(c.computeNs, c.tasks)));
    lp.forwardShare = mean(c.fwdCandidates, c.decisions);
    lp.idleShare = mean(c.fwdChecked, c.fwdCandidates);
    std::vector<relief::STick> lax = c.fwdLaxities;
    std::sort(lax.begin(), lax.end());
    constexpr std::size_t quantiles = 64;
    for (std::size_t q = 0; !lax.empty() && q < quantiles; ++q)
        lp.laxities.push_back(lax[(2 * q + 1) * lax.size() / (2 * quantiles)]);
    return lp;
}

int
printDigests(const std::string &scratch)
{
    for (const char *name : {"long-cdl", "functional-cdghl", "serve-bursty"}) {
        const WorkloadSpec &spec = *findWorkload(name);
        Inputs inputs = generateInputs(spec, defaultSeed, scratch);
        RunResult r = runOnce(spec, inputs, RunOptions{});
        std::cout << name << " 0x" << hex(r.digest) << "ULL\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    relief::setInformEnabled(false);
    try {
        if (opt.printDigests)
            return printDigests(opt.scratch);

        const WorkloadSpec &spec = *findWorkload(opt.workload);
        const bool traced = opt.mode == "traced";
        Ledger ledger;
        Json j;
        j.open();
        j.str("workload", spec.name);
        j.num("seed", double(opt.seed));
        j.str("mode", opt.mode);
        j.str("policy", relief::policyName(workloadSoc(spec).policy));
        j.num("functional", spec.id == WorkloadId::FunctionalCdghl);
        j.num("horizon_ms", relief::toMs(spec.horizon));

        Inputs inputs = generateInputs(spec, opt.seed, opt.scratch);
        std::vector<std::string> digests;
        j.openList("runs");

        // Memory-growth probe: first thing in a fresh process, so the
        // peak after each run is that horizon's peak.
        std::vector<double> probe_ms, probe_rss;
        if (traced) {
            for (Tick h : {spec.horizon / 2, spec.horizon}) {
                RunOptions ro;
                ro.horizon = h;
                RunResult r = runOnce(spec, inputs, ro);
                ledger.add("probe", r.checks);
                writeRun(j, "probe", r);
                probe_ms.push_back(relief::toMs(h));
                probe_rss.push_back(peakRssMb());
            }
        }

        // The timed window. Traced mode alternates HostProf on / off
        // over its first 60% so their run times compare like for like.
        // e2e mode samples set-up between runs, for 5% of each run's
        // time, so set-up is timed under the same machine conditions.
        // The number of runs is fixed for a (workload, --seconds) pair,
        // so metrics.py's per-slice best over them is the same order
        // statistic for every build; a cap at 1.3x the window bounds
        // the time on a slow machine.
        // Runs rotate over the allowed CPUs: on a shared host one CPU
        // can stay slow for minutes, and the per-slice best must not
        // depend on where the scheduler first placed the process.
        const std::vector<int> cpus = allowedCpus();
        std::vector<double> setup_ns;
        Totals totals;
        double first_run_rss = 0.0;
        ModelMetrics model;
        const double window = traced ? 0.6 * opt.seconds : opt.seconds;
        const int minRuns = traced ? 16 : 8;
        const int runs = std::max(
            minRuns, 2 * int(std::lround(window / spec.iterationS / 2)));
        const double start = nowS();
        for (int n = 0; n < runs; ++n) {
            if (n >= minRuns && nowS() - start > 1.3 * window)
                break;
            RunOptions ro;
            ro.hostprof = traced && n % 2 == 0;
            if (!cpus.empty())
                pinTo(cpus[std::size_t(traced ? n / 2 : n) % cpus.size()]);
            RunResult r = runOnce(spec, inputs, ro);
            if (n == 0)
                first_run_rss = peakRssMb();
            digests.push_back(hex(r.digest));
            r.checks.push_back({"digest_stable_across_runs",
                                digests.front() == digests.back(),
                                "digest " + digests.back() + " != first run " +
                                    digests.front()});
            ledger.add("run", r.checks);
            writeRun(j, ro.hostprof ? "profiled" : "timed", r);
            if (ro.hostprof)
                totals.add(r);
            if (!traced) {
                double run_s = 0.0;
                for (double ns : r.sliceNs)
                    run_s += ns / 1e9;
                double until = nowS() + 0.05 * run_s;
                for (int k = 0; k < 3 || nowS() < until; ++k)
                    setup_ns.push_back(setupOnce(spec, opt.seed, opt.scratch));
            }
        }

        // The model metrics come from one run over the model horizon.
        if (!traced) {
            RunOptions ro;
            ro.horizon = spec.modelHorizon;
            RunResult r = runOnce(
                spec,
                generateInputs(spec, opt.seed, opt.scratch, ro.horizon), ro);
            ledger.add("model", r.checks);
            writeRun(j, "model", r);
            model = r.model;
        }

        // The pinned reference: default seed, full horizon.
        {
            Inputs ref_inputs = generateInputs(spec, defaultSeed, opt.scratch);
            RunResult r = runOnce(spec, ref_inputs, RunOptions{});
            std::uint64_t got = r.digest ^ (opt.corruptDigest ? 1 : 0);
            std::uint64_t want = referenceDigest(spec);
            r.checks.push_back({"digest_matches_reference", got == want,
                                "digest " + hex(got) + " != pinned " +
                                    hex(want)});
            ledger.add("reference", r.checks);
            writeRun(j, "reference", r);
        }
        if (spec.id == WorkloadId::FunctionalCdghl)
            ledger.add("rnn", checkRnnOutputs(inputs.dataSeed, opt.perturbGru));
        j.close(']');

        j.openList("setup_ns");
        for (double v : setup_ns)
            j.num("", v);
        j.close(']');
        j.str("digest", digests.front());
        if (!traced)
            writeModel(j, model);
        // The first timed run's peak: later runs reuse its heap.
        j.num("peak_rss_mb", first_run_rss);

        if (traced) {
            j.open("probe");
            j.num("short_ms", probe_ms[0]);
            j.num("long_ms", probe_ms[1]);
            j.num("short_rss_mb", probe_rss[0]);
            j.num("long_rss_mb", probe_rss[1]);
            j.close();
            writeTotals(j, totals);

            LadderParams lp = ladderParams(spec, inputs, totals);
            j.open("ladder_params");
            j.num("depth_mean", lp.depthMean);
            j.num("depth_peak", lp.depthPeak);
            j.num("event_population", double(lp.eventPopulation));
            j.num("dram_bytes", double(lp.dramBytes));
            j.num("fabric_bytes", double(lp.fabricBytes));
            j.num("dram_occupancy", lp.dramOccupancy);
            j.num("task_runtime_ns", relief::toNs(lp.taskRuntime));
            j.num("forward_share", lp.forwardShare);
            j.num("idle_share", lp.idleShare);
            j.close();
            j.open("ladder");
            for (const auto &[name, v] : runLadder(lp))
                j.num(name, v);
            j.close();
        }

        j.num("attempted", ledger.attempted);
        j.num("failed", ledger.failed);
        j.openList("failures");
        for (const std::string &f : ledger.failures)
            j.str("", f);
        j.close(']');
        j.close();
        std::cout << j.text() << "\n";
    } catch (const std::exception &err) {
        std::cerr << "relbench_driver: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
