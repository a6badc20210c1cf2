#include "ladder.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "interconnect/bus.hh"
#include "interconnect/crossbar.hh"
#include "manager/critical_path.hh"
#include "mem/pressure_ledger.hh"
#include "stats/interval_union.hh"
#include "trace/span.hh"

namespace relbench
{

using namespace relief;

namespace
{

double
nowNs()
{
    using clock = std::chrono::steady_clock;
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      clock::now().time_since_epoch())
                      .count());
}

constexpr int batches = 9;
constexpr double minBatchNs = 2e6;

/**
 * Median ns per call of @p op over batches of calls. The batch size
 * doubles until one batch takes at least minBatchNs; @p op(n) makes n
 * calls.
 */
double
nsPerCall(const std::function<void(std::size_t)> &op)
{
    std::size_t n = 1;
    for (;;) {
        double t0 = nowNs();
        op(n);
        if (nowNs() - t0 >= minBatchNs || n >= (std::size_t(1) << 30))
            break;
        n *= 2;
    }
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        double t0 = nowNs();
        op(n);
        per.push_back((nowNs() - t0) / double(n));
    }
    std::nth_element(per.begin(), per.begin() + batches / 2, per.end());
    return per[batches / 2];
}

/** Median of @p reps timings of a one-shot @p op, in ns. */
double
medianNs(int reps, const std::function<void()> &op)
{
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        double t0 = nowNs();
        op();
        per.push_back(nowNs() - t0);
    }
    std::nth_element(per.begin(), per.begin() + reps / 2, per.end());
    return per[std::size_t(reps / 2)];
}

/** Cheap deterministic jitter for request spacing. */
struct Lcg
{
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;

    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }

    /** Uniform in (0, 1]. */
    double
    uniform()
    {
        return double(next() + 1) / double(std::uint64_t(1) << 31);
    }
};

// L0: EventQueue::schedule + runOne with a standing population.
void
rungEvents(const LadderParams &p, LadderResult &out)
{
    EventQueue queue;
    Lcg lcg;
    struct Rearm
    {
        EventQueue *queue;
        Lcg *lcg;
        void
        operator()() const
        {
            Tick delay = fromNs(10.0) + Tick(lcg->next() % 100000);
            queue->schedule(queue->curTick() + delay, HostCat::Other,
                            Rearm{queue, lcg});
        }
    };
    for (std::size_t i = 0; i < p.eventPopulation; ++i)
        queue.schedule(Tick(lcg.next() % 100000), HostCat::Other,
                       Rearm{&queue, &lcg});
    out["sim.dispatch_ns"] = nsPerCall([&queue](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            queue.runOne();
    });
}

// L1: BandwidthResource::claim, ledger detached and attached, on a copy
// of one of the workload's DRAM resources (a bank, when banked), with
// the workload's mean DRAM transfer arriving at exponential gaps that
// keep it as busy as the workload kept its DRAM.
void
rungClaims(const LadderParams &p, LadderResult &out)
{
    Soc soc(p.soc);
    const BandwidthResource &dram = *soc.dram().pressureResources().front();
    auto claims = [&p, &dram](bool ledgered) {
        BandwidthResource res("ladder.dram", dram.bandwidth(),
                              dram.fixedLatency());
        PressureLedger ledger;
        if (ledgered) {
            for (int s = 0; s < 8; ++s)
                ledger.addSource("src" + std::to_string(s));
            ledger.addQosClass("qos1");
            ledger.addResource(res);
            ledger.seal();
        }
        double mean_gap = double(res.holdTime(p.dramBytes)) /
                          std::max(p.dramOccupancy, 0.01);
        Lcg lcg;
        std::vector<Tick> gaps(4096);
        for (Tick &gap : gaps)
            gap = Tick(-std::log(lcg.uniform()) * mean_gap);
        Tick request = 0;
        std::uint64_t i = 0;
        return nsPerCall([&](std::size_t n) {
            for (std::size_t k = 0; k < n; ++k, ++i) {
                request += gaps[i % gaps.size()];
                if (ledgered) {
                    RequestorTag tag;
                    tag.source = std::int16_t(i % 8);
                    tag.qosClass = std::uint8_t(i % 2);
                    tag.traffic = PressureTraffic(i % numPressureTraffic);
                    res.claim(request, p.dramBytes, request, tag);
                } else {
                    res.claim(request, p.dramBytes);
                }
            }
        });
    };
    out["mem.claim_ns"] = claims(false);
    out["mem.claim_ledger_ns"] = claims(true);
}

// Interconnect::path, alone and with a claim on every hop.
void
rungFabric(const LadderParams &p, LadderResult &out)
{
    Simulator sim;
    std::unique_ptr<Interconnect> fabric;
    if (p.soc.fabric == FabricKind::Crossbar)
        fabric = std::make_unique<Crossbar>(sim, "xbar", p.soc.crossbar);
    else
        fabric = std::make_unique<Bus>(sim, "bus", p.soc.bus);
    std::vector<PortId> ports;
    ports.push_back(fabric->registerPort("dram"));
    for (AccType type : allAccTypes)
        ports.push_back(fabric->registerPort(accTypeName(type)));
    // Walk every ordered (src, dst) pair with src != dst.
    std::size_t np = ports.size();
    std::size_t i = 0;
    auto src = [&] { return ports[i % np]; };
    auto dst = [&] { return ports[(i % np + 1 + (i / np) % (np - 1)) % np]; };
    out["interconnect.path_ns"] = nsPerCall([&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k, ++i) {
            if (fabric->path(src(), dst()).empty())
                panic("ladder: empty fabric path");
        }
    });
    Tick t = 0;
    out["interconnect.path_claim_ns"] = nsPerCall([&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k, ++i) {
            auto path = fabric->path(src(), dst());
            TransferTiming timing = reserveTransfer(path, t, p.fabricBytes);
            fabric->recordTransfer(timing.start, timing.end, p.fabricBytes);
            t = timing.start;
        }
    });
}

// L2: DmaEngine::readFromDram, request to completion, on the workload's
// platform.
void
rungDma(const LadderParams &p, LadderResult &out)
{
    Soc soc(p.soc);
    std::vector<Accelerator *> accs = soc.accelerators();
    std::uint64_t done = 0;
    std::size_t i = 0;
    out["dma.transfer_ns"] = nsPerCall([&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k, ++i) {
            accs[i % accs.size()]->dma().readFromDram(
                p.dramBytes, [&done] { ++done; }, i);
            soc.sim().run();
        }
    });
    if (done != i)
        panic("ladder: DMA transfers did not complete");
}

struct PushSelect
{
    double ns = 0.0;           ///< Per onNodesReady + selectNext pair.
    double forwardShare = 0.0; ///< RELIEF: inserts that were candidates.
};

// L3: one policy's onNodesReady + selectNext at a fixed depth (one push
// and one pop per call, so the depth stays put), fed the workload's
// traffic. A share forwardShare of the pushed nodes have a parent, so
// RELIEF takes its forwarding branch (feasibility scan and decision log
// when an instance is idle, a share idleShare of the time); the rest
// are roots. Every pushed node gets a fresh key drawn from the
// workload's laxities, so inserts land across the whole queue.
PushSelect
pushSelect(PolicyKind kind, const LadderParams &p, int depth)
{
    struct Draw
    {
        bool forwarding;
        bool idle;
        STick laxity;
    };
    Lcg lcg;
    std::vector<Draw> draws(4096);
    for (Draw &d : draws) {
        d.forwarding = lcg.uniform() <= p.forwardShare;
        d.idle = lcg.uniform() <= p.idleShare;
        d.laxity = p.laxities.empty()
                       ? STick(p.taskRuntime) * STick(1 + lcg.next() % 64)
                       : p.laxities[lcg.next() % p.laxities.size()];
    }

    auto policy = makePolicy(kind);
    const AccType type = AccType::ElemMatrix;
    Dag dag("ladder", 'B');
    TaskParams params;
    params.type = type;
    Node *parent = dag.addNode(params, "parent");
    // depth + 2 nodes of each kind: whatever the queue holds, a free
    // node of the drawn kind is left.
    std::vector<Node *> roots, children;
    for (int i = 0; i < depth + 2; ++i) {
        roots.push_back(dag.addNode(params, "root"));
        Node *child = dag.addNode(params, "child");
        dag.addEdge(parent, child);
        children.push_back(child);
    }
    ReadyQueues queues;
    SchedContext ctx;
    std::vector<Node *> batch(1);
    std::size_t next = 0;
    std::uint64_t pushes = 0;
    auto push = [&] {
        const Draw &d = draws[next++ % draws.size()];
        std::vector<Node *> &pool = d.forwarding ? children : roots;
        Node *node = pool.back();
        pool.pop_back();
        node->predictedRuntime = p.taskRuntime;
        node->laxityKey = d.laxity;
        node->deadline = Tick(std::max<STick>(0, d.laxity)) + p.taskRuntime;
        ctx.idleCount[accIndex(type)] = d.idle ? 1 : 0;
        batch[0] = node;
        policy->onNodesReady(batch, ctx, queues);
        ++pushes;
    };
    for (int i = 0; i < depth; ++i)
        push();
    PushSelect out;
    out.ns = nsPerCall([&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) {
            push();
            Node *node = policy->selectNext(type, queues, 0);
            if (!node)
                panic("ladder: ", policyName(kind), " selected nothing");
            (node->isRoot() ? roots : children).push_back(node);
        }
    });
    if (auto *relief = dynamic_cast<ReliefPolicy *>(policy.get()))
        out.forwardShare = double(relief->decisionLog().size()) /
                           double(pushes);
    return out;
}

void
rungPolicies(const LadderParams &p, LadderResult &out)
{
    for (PolicyKind kind : allPolicies) {
        std::string prefix = std::string("sched.") + policyName(kind);
        PushSelect mean = pushSelect(kind, p, p.depthMean);
        out[prefix + ".push_select_ns_mean"] = mean.ns;
        out[prefix + ".push_select_ns_peak"] =
            pushSelect(kind, p, p.depthPeak).ns;
        if (kind == p.soc.policy)
            out["sched.forward_share"] = mean.forwardShare;
    }
}

/** Parents-before-children order of @p dag's nodes. */
std::vector<Node *>
topoOrder(Dag &dag)
{
    std::vector<Node *> order;
    std::vector<int> pending(std::size_t(dag.numNodes()));
    for (Node *node : dag.allNodes()) {
        pending[std::size_t(node->indexInDag)] = int(node->parents.size());
        if (node->parents.empty())
            order.push_back(node);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (Node *child : order[i]->children) {
            if (--pending[std::size_t(child->indexInDag)] == 0)
                order.push_back(child);
        }
    }
    return order;
}

// Kernels: every functional payload of every app, at the workload's
// shapes, grouped by accelerator type.
void
rungKernels(const LadderParams &p, LadderResult &out)
{
    constexpr int reps = 5;
    AppConfig config;
    config.functional = true;
    config.seed = p.dataSeed;
    std::map<std::string, double> family_ns, family_elems;
    for (AppId app : allApps) {
        DagPtr dag = buildApp(app, config);
        std::vector<Node *> order = topoOrder(*dag);
        double iter_ns = 0.0;
        for (Node *node : order) {
            if (!node->fn)
                continue;
            std::vector<const std::vector<float> *> inputs;
            for (Node *parent : node->parents)
                inputs.push_back(&parent->outputData);
            double ns = medianNs(reps, [&] { node->outputData = node->fn(inputs); });
            iter_ns += ns;
            std::string family = accTypeName(node->params.type);
            family_ns[family] += ns;
            family_elems[family] += double(node->outputData.size());
        }
        out["kernels." + appName(app) + ".iter_ns"] = iter_ns;
    }
    for (AccType type : allAccTypes) {
        std::string family = accTypeName(type);
        double ns = family_ns[family];
        // Output elements (pixels, or vector lanes for the RNN cells)
        // per microsecond = millions per second.
        out["kernels." + family + ".mpix_per_s"] =
            ns > 0.0 ? family_elems[family] / ns * 1e3 : 0.0;
    }
}

// DAG construction per app, and Soc construction, as the workload
// builds them.
void
rungBuilds(const LadderParams &p, LadderResult &out)
{
    constexpr int reps = 11;
    AppConfig config;
    config.functional = p.functional;
    config.seed = p.dataSeed;
    for (AppId app : allApps) {
        out["dag." + appName(app) + ".build_us"] =
            medianNs(reps, [&] { buildApp(app, config); }) / 1e3;
    }
    out["core.soc_build_us"] =
        medianNs(reps, [&] { Soc soc(p.soc); }) / 1e3;
}

// IntervalUnion::add of back-to-back, partly overlapping intervals.
void
rungUnion(LadderResult &out)
{
    IntervalUnion u;
    Lcg lcg;
    Tick t = 0;
    out["stats.union_add_ns"] = nsPerCall([&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) {
            Tick len = fromNs(100.0) + Tick(lcg.next() % 1000000);
            u.add(t, t + len);
            t += len - len / 8;
        }
    });
    if (u.covered() == 0)
        panic("ladder: empty interval union");
}

// Request span tree: beginRequestTrace + addCriticalPathSpans over a
// real critical path (one Canny DAG on the workload's platform).
void
rungSpans(const LadderParams &p, LadderResult &out)
{
    Soc soc(p.soc);
    DagPtr dag = buildApp(AppId::Canny);
    soc.submit(dag);
    soc.run();
    DagLatencyRecord record = CriticalPath::analyze(*dag);
    std::vector<SpanSource> path;
    for (auto it = record.path.rbegin(); it != record.path.rend(); ++it)
        path.push_back({(*it)->label, (*it)->lifecycle});
    std::uint64_t id = 0;
    std::size_t spans = 0;
    out["trace.span_build_ns"] = nsPerCall([&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k, ++id) {
            RequestTrace trace = beginRequestTrace(
                id, id + 1, "interactive", "canny", RequestOutcome::Ok,
                record.arrival, record.finish, dag->absoluteDeadline());
            addCriticalPathSpans(trace, path);
            spans += trace.spans.size();
        }
    });
    if (spans == 0)
        panic("ladder: no spans built");
}

} // namespace

LadderResult
runLadder(const LadderParams &params)
{
    LadderResult out;
    rungEvents(params, out);
    rungClaims(params, out);
    rungFabric(params, out);
    rungDma(params, out);
    rungPolicies(params, out);
    rungKernels(params, out);
    rungBuilds(params, out);
    rungUnion(out);
    rungSpans(params, out);
    return out;
}

} // namespace relbench
