#include "workloads.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>

#include "core/rng.hh"
#include "kernels/scratch.hh"
#include "reference_digests.hh"
#include "serve/server.hh"

namespace relbench
{

using namespace relief;

namespace
{

const WorkloadSpec workloads[] = {
    {WorkloadId::LongCdl, "long-cdl", fromMs(5000.0), fromMs(5000.0), 0.45},
    {WorkloadId::FunctionalCdghl, "functional-cdghl", fromMs(200.0),
     fromMs(200.0), 0.65},
    {WorkloadId::ServeBursty, "serve-bursty", fromMs(30000.0),
     fromMs(120000.0), 0.6},
};

const char *
mixOf(WorkloadId id)
{
    return id == WorkloadId::LongCdl ? "CDL" : "CDGHL";
}

double
nowNs()
{
    using clock = std::chrono::steady_clock;
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      clock::now().time_since_epoch())
                      .count());
}

/**
 * Serve-bursty's arrival process: two-state MMPP at 150 rps mean, past
 * the saturation knee (goodput peaks near 120 rps on this platform).
 * Deeper overload collapses goodput by seed-dependent amounts (at
 * 200 rps it swings from 20 to 50 rps between seeds), which would
 * make the model metrics useless as a regression signal.
 */
ArrivalConfig
burstyArrivals()
{
    ArrivalConfig arrival;
    arrival.kind = ArrivalKind::Bursty;
    arrival.ratePerSec = 150.0;
    return arrival;
}

ServeConfig
serveConfig(const WorkloadSpec &spec, const Inputs &inputs, Tick horizon)
{
    // The generated stream replaces the driver's own arrival process;
    // the driver's seed then only seeds tail sampling.
    ServeConfig config;
    config.soc = workloadSoc(spec);
    config.arrival.kind = ArrivalKind::Trace;
    config.arrival.tracePath = inputs.arrivalPath;
    config.admission.kind = AdmissionKind::Laxity;
    config.telemetry.traceRequests = true;
    config.telemetry.okFraction = 0.1;
    config.telemetry.alerts = true;
    config.horizon = horizon;
    return config;
}

// ---- Digest -------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void
    num(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }
};

/** Host-side implementation counters: not part of the simulated
 *  result, so an event-queue or kernel-scratch change may move them. */
bool
hostSideStat(const std::string &name)
{
    return name.rfind("sim.event", 0) == 0 || name.rfind("kernels.", 0) == 0;
}

std::uint64_t
statsDigest(const StatRegistry &stats)
{
    Fnv fnv;
    for (const std::string &name : stats.names()) {
        if (hostSideStat(name))
            continue;
        fnv.bytes(name.data(), name.size());
        if (stats.kind(name) == StatKind::Histogram) {
            const Histogram &hist = stats.histogram(name);
            fnv.num(double(hist.count()));
            fnv.num(hist.mean());
            fnv.num(hist.min());
            fnv.num(hist.max());
            fnv.num(double(hist.underflow()));
            fnv.num(double(hist.overflow()));
            for (std::size_t i = 0; i < hist.numBuckets(); ++i)
                fnv.num(double(hist.bucketCount(i)));
        } else {
            fnv.num(stats.value(name));
        }
    }
    return fnv.h;
}

// ---- Checks -------------------------------------------------------------

void
addCheck(std::vector<Check> &checks, const char *name, bool ok,
         const std::string &detail)
{
    checks.push_back({name, ok, ok ? std::string() : detail});
}

void
checkPressure(const Soc &soc, std::vector<Check> &checks)
{
    const PressureLedger &ledger = soc.pressureLedger();
    std::string bad;
    for (int r = 0; r < ledger.numResources(); ++r) {
        PressureLedger::Slot total = ledger.resourceTotal(r);
        Tick diff = total.waitCaused > total.waitSuffered
                        ? total.waitCaused - total.waitSuffered
                        : total.waitSuffered - total.waitCaused;
        if (diff > 1 || total.waitSuffered != ledger.resource(r).waitTime())
            bad += ledger.resource(r).name() + " ";
    }
    addCheck(checks, "pressure_caused_eq_suffered", bad.empty(),
             "unbalanced: " + bad);
}

void
checkCriticalPath(Soc &soc, std::vector<Check> &checks)
{
    std::size_t bad = 0;
    const auto &records = soc.manager().latencyRecords();
    for (const DagLatencyRecord &rec : records) {
        Tick total = rec.buckets.total();
        Tick latency = rec.latency();
        Tick diff = total > latency ? total - latency : latency - total;
        if (diff > 1)
            ++bad;
    }
    addCheck(checks, "critical_path_sums_to_latency",
             bad == 0 && !records.empty(),
             std::to_string(bad) + " of " + std::to_string(records.size()) +
                 " DAG records off by more than 1 tick");
}

void
checkServe(const ServeReport &report, std::vector<Check> &checks)
{
    bool ok = true;
    auto conserve = [&ok](const ClassSlo &slo) {
        ok = ok && slo.offered == slo.admitted + slo.shed + slo.rejected;
    };
    conserve(report.total);
    for (const ClassSlo &slo : report.classes)
        conserve(slo);
    addCheck(checks, "offered_eq_admitted_shed_rejected", ok,
             "offered != admitted + shed + rejected");

    const TailSampleSummary &s = report.sampling;
    bool sampled = s.keptOk + s.keptMiss + s.dropped == s.admitted &&
                   s.admitted + s.keptShed + s.keptRejected == s.offered &&
                   s.offered == report.total.offered && s.offered > 0;
    addCheck(checks, "tail_sampler_conservation", sampled,
             "kept + dropped does not cover every offered request");
}

ModelMetrics
socModel(const MetricsReport &report)
{
    ModelMetrics m;
    m.dagDeadlineFrac =
        report.run.dagsFinished
            ? double(report.run.dagDeadlinesMet) / double(report.run.dagsFinished)
            : 0.0;
    m.forwardColocFrac = report.forwardFraction();
    m.dramTrafficFrac = report.dramTrafficFraction();
    return m;
}

Counts
socCounts(Soc &soc, Tick horizon)
{
    Counts c;
    const StatRegistry &stats = soc.stats();
    const EventQueue &events = soc.sim().events();
    c.events = double(events.numExecuted());
    c.heapCallables = double(events.numHeapCallables());
    c.slabCapacity = double(events.slabCapacity());
    c.decisions = double(stats.histogram("manager.queue_depth").count());
    c.queueDepthMean = stats.value("manager.queue_depth_mean");
    c.queuePeak = stats.value("manager.queue_peak_depth");
    const PressureLedger &ledger = soc.pressureLedger();
    for (int r = 0; r < ledger.numResources(); ++r)
        c.claims += double(ledger.resourceTotal(r).transfers);
    std::vector<BandwidthResource *> dram = soc.dram().pressureResources();
    for (BandwidthResource *res : dram) {
        c.dramTransfers += double(res->numTransfers());
        c.dramBytes += double(res->totalBytes());
        c.dramOccupancy += res->occupancy(horizon) / double(dram.size());
    }
    c.fabricTransfers = double(soc.fabric().numTransfers());
    c.fabricBytes = double(soc.fabric().totalBytes());
    for (Accelerator *acc : soc.accelerators()) {
        c.dmaTransfers += double(acc->dma().readChannel().numTransfers() +
                                 acc->dma().writeChannel().numTransfers());
        c.tasks += double(acc->tasksExecuted());
        c.computeNs += toNs(acc->computeBusyTime(horizon));
    }
    c.scratchReuses = stats.value("kernels.scratch_reuses");
    c.scratchAllocs = stats.value("kernels.scratch_allocs");
    return c;
}

/** Add RELIEF's decision log to @p c (left at 0 under other policies). */
void
decisionCounts(Soc &soc, Counts &c)
{
    const auto *policy =
        dynamic_cast<const ReliefPolicy *>(&soc.manager().policy());
    if (!policy)
        return;
    for (const PromotionDecision &d : policy->decisionLog().decisions()) {
        c.fwdCandidates += 1;
        c.fwdChecked += d.reason != PromotionReason::NoIdleInstance;
        c.fwdLaxities.push_back(d.laxity);
    }
}

/**
 * One constructed workload instance. The constructor is the set-up
 * (inputs are generated by the caller); run() is the timed window.
 */
class Instance
{
  public:
    Instance(const WorkloadSpec &spec, const Inputs &inputs, Tick horizon,
             Spans &spans)
        : horizon_(horizon ? horizon : spec.horizon)
    {
        resetNodeIds();
        resetKernelScratch();
        if (spec.id == WorkloadId::ServeBursty) {
            double t0 = nowNs();
            driver_ = std::make_unique<ServeDriver>(
                serveConfig(spec, inputs, horizon_));
            spans.constructNs = nowNs() - t0;
            return;
        }
        double t0 = nowNs();
        soc_ = std::make_unique<Soc>(workloadSoc(spec));
        double t1 = nowNs();
        AppConfig app;
        app.functional = spec.id == WorkloadId::FunctionalCdghl;
        app.seed = inputs.dataSeed;
        std::vector<AppId> mix = parseMix(mixOf(spec.id));
        for (AppId id : mix)
            dags_.push_back(buildApp(id, app));
        double t2 = nowNs();
        for (std::size_t i = 0; i < dags_.size(); ++i)
            soc_->submit(dags_[i], inputs.offsets[i], /*continuous=*/true);
        spans.constructNs = t1 - t0;
        spans.buildNs = t2 - t1;
    }

    Soc &soc() { return driver_ ? driver_->soc() : *soc_; }

    /**
     * Run the horizon, stamping host time at each slice boundary. The
     * stamp events touch no model state, and the last boundary lies
     * before the horizon, so every simulated statistic is unchanged.
     */
    void
    run(std::vector<double> &slice_ns)
    {
        std::vector<double> stamps{nowNs()};
        stamps.reserve(std::size_t(slicesPerRun) + 1);
        Tick slice = horizon_ / Tick(slicesPerRun);
        for (int k = 1; k < slicesPerRun; ++k) {
            soc().sim().at(slice * Tick(k), HostCat::Other,
                           [&stamps] { stamps.push_back(nowNs()); },
                           "relbench.slice");
        }
        if (driver_)
            serveReport_ = driver_->run();
        else
            soc_->run(horizon_);
        stamps.push_back(nowNs());
        for (std::size_t k = 1; k < stamps.size(); ++k)
            slice_ns.push_back(stamps[k] - stamps[k - 1]);
    }

    /** Model metrics, counts, digest and invariant checks. */
    void
    finish(RunResult &out)
    {
        Soc &s = soc();
        MetricsReport report = s.report();
        std::ostringstream dump;
        s.dumpStats(dump); // the stats dump users pay for at the end
        out.digest = statsDigest(s.stats());
        out.counts = socCounts(s, horizon_);
        checkPressure(s, out.checks);
        checkCriticalPath(s, out.checks);

        double horizon_s = toMs(horizon_) / 1000.0;
        if (driver_) {
            const ServeReport &r = serveReport_;
            out.model = socModel(r.soc);
            out.model.goodputRps = r.total.goodputRps(r.horizon);
            out.model.admittedFrac =
                r.total.offered ? double(r.total.admitted) /
                                      double(r.total.offered)
                                : 0.0;
            for (const ServeRequest &req : driver_->requests()) {
                std::string name = appName(req.app);
                out.counts.appBuilds[name] += 1;
                if (req.verdict != AdmissionVerdict::Admitted)
                    continue;
                out.counts.appRuns[name] += 1;
                if (req.finished)
                    out.model.latenciesMs.push_back(toMs(req.finish - req.arrival));
            }
            out.counts.arrivals = double(r.total.offered);
            out.counts.keptTraces = double(driver_->keptTraces().size());
            checkServe(r, out.checks);
        } else {
            out.model = socModel(report);
            out.model.goodputRps =
                double(report.run.dagDeadlinesMet) / horizon_s;
            out.model.admittedFrac = 1.0;
            for (const DagLatencyRecord &rec : s.manager().latencyRecords())
                out.model.latenciesMs.push_back(toMs(rec.latency()));
            for (const AppOutcome &app : report.apps) {
                out.counts.appRuns[app.name] += app.iterations;
                out.counts.appBuilds[app.name] += 1;
            }
        }
    }

  private:
    Tick horizon_;
    std::unique_ptr<Soc> soc_;
    std::vector<DagPtr> dags_;
    std::unique_ptr<ServeDriver> driver_;
    ServeReport serveReport_;
};

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

SocConfig
workloadSoc(const WorkloadSpec &spec)
{
    SocConfig config;
    config.policy = PolicyKind::Relief;
    if (spec.id == WorkloadId::ServeBursty) {
        config.fabric = FabricKind::Crossbar;
        config.bankedMemory = true;
    }
    return config;
}

Inputs
generateInputs(const WorkloadSpec &spec, std::uint64_t seed,
               const std::string &scratch_dir, Tick horizon)
{
    Inputs inputs;
    inputs.seed = seed;
    if (spec.id == WorkloadId::ServeBursty) {
        if (!horizon)
            horizon = spec.horizon;
        std::vector<QosClassConfig> classes = defaultQosClasses();
        std::vector<ArrivalEvent> arrivals = generateArrivals(
            burstyArrivals(), classes, horizon, seed);
        inputs.arrivalPath = scratch_dir + "/arrivals-" +
                             std::to_string(seed) + "-" +
                             std::to_string(std::uint64_t(toMs(horizon))) +
                             ".txt";
        std::ofstream out(inputs.arrivalPath);
        if (!out)
            fatal("cannot write ", inputs.arrivalPath);
        out << std::setprecision(17);
        for (const ArrivalEvent &a : arrivals) {
            out << toMs(a.time) << ' '
                << classes[std::size_t(a.qosClass)].name << ' '
                << char(a.app) << '\n';
        }
        if (!out.flush())
            fatal("cannot write ", inputs.arrivalPath);
        return inputs;
    }
    // long-cdl: each app's first submission lands at a seeded offset
    // inside the first millisecond; resubmissions follow completions.
    // functional-cdghl: the seed picks the images and RNN weights, and
    // every app starts at 0, so its timing (which does not depend on
    // data) is the same for every seed.
    Xoshiro256pp rng(deriveSeed(seed, 0));
    for (std::size_t i = 0; i < std::strlen(mixOf(spec.id)); ++i) {
        inputs.offsets.push_back(spec.id == WorkloadId::LongCdl
                                     ? Tick(rng.uniformInt(fromMs(1.0)))
                                     : 0);
    }
    inputs.dataSeed = std::uint32_t(seed);
    return inputs;
}

RunResult
runOnce(const WorkloadSpec &spec, const Inputs &inputs,
        const RunOptions &options)
{
    RunResult out;
    auto instance =
        std::make_unique<Instance>(spec, inputs, options.horizon, out.spans);
    if (options.hostprof)
        setHostProfEnabled(true);
    instance->run(out.sliceNs);
    double t1 = nowNs();
    instance->finish(out);
    double t2 = nowNs();
    if (options.hostprof) {
        setHostProfEnabled(false);
        out.prof = hostProfSnapshot();
        // Ladder input only: kept out of the timed report and out of
        // the untraced runs' memory.
        decisionCounts(instance->soc(), out.counts);
    }
    out.spans.reportNs = t2 - t1;
    return out;
}

double
setupOnce(const WorkloadSpec &spec, std::uint64_t seed,
          const std::string &scratch_dir)
{
    double t0 = nowNs();
    Inputs inputs = generateInputs(spec, seed, scratch_dir);
    double t1 = nowNs();
    Spans spans;
    Instance instance(spec, inputs, 0, spans);
    return (t1 - t0) + spans.setupNs();
}

std::vector<Check>
checkRnnOutputs(std::uint32_t data_seed, bool perturb_gru)
{
    resetNodeIds();
    resetKernelScratch();
    AppConfig app;
    app.functional = true;
    app.seed = data_seed;
    Soc soc;
    std::vector<DagPtr> dags;
    for (AppId id : allApps) {
        dags.push_back(buildApp(id, app));
        soc.submit(dags.back());
    }
    soc.run();

    std::vector<Check> checks;
    auto compare = [&checks](const char *name, Dag &dag,
                             std::vector<float> want, bool perturb) {
        std::vector<float> got;
        if (dag.complete())
            got = dag.leaves().front()->outputData;
        if (perturb && !got.empty())
            got[0] += 1e-3f;
        std::size_t bad = got.size() == want.size() ? 0 : want.size() + 1;
        for (std::size_t i = 0; bad == 0 && i < want.size(); ++i) {
            // Same tolerance as the repository's functional tests: the
            // DAG evaluates the cell gate by gate, the reference fused.
            if (std::fabs(got[i] - want[i]) > 1e-5f)
                bad = i + 1;
        }
        addCheck(checks, name, bad == 0,
                 "leaf output differs from the reference at element " +
                     std::to_string(bad - 1));
    };
    for (const DagPtr &dag : dags) {
        if (dag->symbol() == char(AppId::Gru))
            compare("gru_matches_reference", *dag, gruReferenceOutput(app),
                    perturb_gru);
        else if (dag->symbol() == char(AppId::Lstm))
            compare("lstm_matches_reference", *dag,
                    lstmReferenceOutput(app), false);
    }
    return checks;
}

std::uint64_t
referenceDigest(const WorkloadSpec &spec)
{
    switch (spec.id) {
      case WorkloadId::LongCdl:
        return referenceDigestLongCdl;
      case WorkloadId::FunctionalCdghl:
        return referenceDigestFunctionalCdghl;
      case WorkloadId::ServeBursty:
        return referenceDigestServeBursty;
    }
    return 0;
}

} // namespace relbench
