"""Metric math for the repository benchmark.

Turns the raw measurements printed by relbench_driver (one JSON object
per invocation) into the named metrics of BENCHMARK.json. Pure
functions only, so test_relbench.py can check the arithmetic without
building anything.
"""

import math
import re


def median(values):
    """Median of a non-empty sequence (mean of the middle pair)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]: the smallest value with
    at least q% of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def ratio(num, den):
    """num / den, or 0.0 when den is 0 (a layer that did no work)."""
    return float(num) / float(den) if den else 0.0


def explained_frac(predicted_ns, self_ns):
    """Share of a layer's HostProf self time that the ladder explains:
    predicted_ns is the sum of ladder ns/op x traced-run op count over
    the layer's rungs (0 without self time)."""
    return ratio(predicted_ns, self_ns)


def _runs(doc, kind):
    return [r for r in doc["runs"] if r["kind"] == kind]


def best_slice_rate(horizon_ms, runs):
    """Simulated ms per host second of the horizon, each slice timed at
    its fastest repetition over @p runs.

    Every run of one invocation simulates the same slices (same seed),
    so a slice's fastest repetition is its cost under the least machine
    interference. Summing those is best-of-N timing applied slice by
    slice, which stays steady on a shared host whose speed swings by 2x
    for seconds at a time. The driver makes a fixed number of runs for
    a (workload, --seconds) pair, so N, and with it the order
    statistic, is the same for every build. Taking the best slice drops
    costs that only some runs pay, such as the first run faulting in
    its heap.
    """
    slices = [r["slice_ns"] for r in runs]
    if not slices or any(len(s) != len(slices[0]) for s in slices):
        raise ValueError("runs must share one slicing")
    best_ns = sum(min(s[k] for s in slices) for k in range(len(slices[0])))
    return ratio(horizon_ms, best_ns / 1e9)


def end_to_end(doc):
    """End-to-end metrics of an e2e-mode driver document."""
    timed = _runs(doc, "timed")
    model = doc["model"]
    return {
        "setup_s": (median(doc["setup_ns"]) / 1e9, "s"),
        "sim_ms_per_host_s": (best_slice_rate(doc["horizon_ms"], timed),
                              "ms/s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "model.dag_deadline_frac": (model["dag_deadline_frac"], "fraction"),
        "model.forward_coloc_frac": (model["forward_coloc_frac"], "fraction"),
        "model.dram_traffic_frac": (model["dram_traffic_frac"], "fraction"),
        "model.goodput_rps": (model["goodput_rps"], "1/sim_s"),
        "model.p99_latency_ms": (percentile(model["latencies_ms"], 99),
                                 "sim_ms"),
        "model.admitted_frac": (model["admitted_frac"], "fraction"),
    }


def layer_table(doc):
    """Per-layer reconciliation rows of a traced-mode driver document:
    name -> (ns_per_op, count, predicted_ns, self_ns, self_of). Counts,
    predicted and self times are per profiled run; self_ns is 0 where
    the workload leaves the layer's self time empty."""
    c = doc["counts"]
    runs = c["runs"]
    prof = doc["hostprof_ns"]
    spans = doc["spans_ns"]
    lad = doc["ladder"]

    def per_run(v):
        return ratio(v, runs)

    union_adds = c["claims"] + c["fabric_transfers"] + c["tasks"]
    # Only functional DAGs run kernels; elsewhere HostProf's "kernels"
    # time is compute-done bookkeeping and stays unexplained.
    kernel_ns = sum(n * lad["kernels.%s.iter_ns" % app]
                    for app, n in c["app_runs"].items()) \
        if doc["functional"] else 0.0
    builds = sum(c["app_builds"].values())
    build_ns = sum(n * lad["dag.%s.build_us" % app] * 1e3
                   for app, n in c["app_builds"].items())
    # Closed loops build their DAGs in set-up, timed by the benchmark's
    # own span; serve builds one per arrival inside the run, where
    # HostProf charges it to "serve".
    setup_builds = spans["build"] > 0
    push_select = lad["sched.%s.push_select_ns_mean" % doc["policy"]]
    rows = {
        # The event queue has no category of its own: dispatch overhead
        # is gap-charged into every category, so sim reconciles against
        # the whole run.
        "sim": (lad["sim.dispatch_ns"], c["events"],
                lad["sim.dispatch_ns"] * c["events"], prof["total"], "total"),
        "sched": (push_select, c["decisions"], push_select * c["decisions"],
                  prof["sched"], "sched"),
        "mem": (lad["mem.claim_ledger_ns"], c["claims"],
                lad["mem.claim_ledger_ns"] * c["claims"], prof["mem"], "mem"),
        "interconnect": (lad["interconnect.path_ns"], c["fabric_transfers"],
                         lad["interconnect.path_ns"] * c["fabric_transfers"],
                         prof["interconnect"], "interconnect"),
        # A ladder DMA transfer includes its claims and route, which
        # HostProf charges to mem and interconnect.
        "dma": (lad["dma.transfer_ns"], c["dma_transfers"],
                lad["dma.transfer_ns"] * c["dma_transfers"],
                prof["dma"] + prof["mem"] + prof["interconnect"],
                "dma+mem+interconnect"),
        "kernels": (ratio(kernel_ns, c["tasks"]), c["tasks"], kernel_ns,
                    prof["kernels"], "kernels"),
        "dag": (ratio(build_ns, builds), builds,
                build_ns if setup_builds else 0.0, spans["build"],
                "setup span"),
        "core": (lad["core.soc_build_us"] * 1e3, runs,
                 lad["core.soc_build_us"] * 1e3 * runs, spans["construct"],
                 "construct span"),
        "stats": (lad["stats.union_add_ns"], union_adds,
                  lad["stats.union_add_ns"] * union_adds, prof["stats"],
                  "stats"),
        "serve": (lad["trace.span_build_ns"], c["kept_traces"],
                  (0.0 if setup_builds else build_ns)
                  + lad["trace.span_build_ns"] * c["kept_traces"],
                  prof["serve"], "serve"),
    }
    return {name: (ns, per_run(count), per_run(pred), per_run(self_ns), of)
            for name, (ns, count, pred, self_ns, of) in rows.items()}


def _ladder(lad, pattern):
    """(name, value) of the ladder figures whose name matches."""
    return [(k, v) for k, v in sorted(lad.items()) if re.fullmatch(pattern, k)]


def per_layer(doc):
    """Per-layer figures of a traced-mode driver document, as two
    name -> (value, unit) maps: the metrics every workload defines, and
    the figures only this workload defines (0 by construction on the
    others, so they are printed but not reported as metrics)."""
    c = doc["counts"]
    runs = c["runs"]
    lad = doc["ladder"]
    prof = doc["hostprof_ns"]
    spans = doc["spans_ns"]
    probe = doc["probe"]
    timed = _runs(doc, "timed")
    profiled = _runs(doc, "profiled")
    rate = best_slice_rate(doc["horizon_ms"], timed)

    def per_run(v):
        return ratio(v, runs)

    table = layer_table(doc)
    m = {}
    scoped = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # Layers whose self time is filled on every workload reconcile as
    # metrics; the others only where their self time is.
    for layer in ("sim", "sched", "mem", "interconnect", "dma"):
        _, _, pred, self_ns, _ = table[layer]
        put(layer + ".explained_frac", explained_frac(pred, self_ns),
            "fraction")
    for layer in ("kernels", "dag", "core", "stats", "serve"):
        _, _, pred, self_ns, _ = table[layer]
        if self_ns:
            scoped[layer + ".explained_frac"] = (
                explained_frac(pred, self_ns), "fraction")
    for layer, cat in (("sim", "other"), ("sched", "sched"), ("mem", "mem"),
                       ("interconnect", "interconnect"), ("dma", "dma"),
                       ("kernels", "kernels")):
        put(layer + ".self_s", per_run(prof[cat]) / 1e9, "s")
    for layer, ns in (("stats", prof["stats"]), ("serve", prof["serve"]),
                      ("dag", spans["build"])):
        if ns:
            scoped[layer + ".self_s"] = (per_run(ns) / 1e9, "s")
    put("core.self_s", per_run(spans["construct"]) / 1e9, "s")

    put("sim.events", per_run(c["events"]), "count")
    put("sim.events_per_host_s",
        ratio(per_run(c["events"]) * rate, doc["horizon_ms"]), "1/s")
    put("sim.dispatch_ns", lad["sim.dispatch_ns"], "ns")
    # Should stay 0: every event callable fits its slot inline.
    scoped["sim.event_heap_callables"] = (per_run(c["heap_callables"]),
                                          "count")

    put("sched.decisions", per_run(c["decisions"]), "count")
    put("sched.queue_depth_mean", c["queue_depth_mean"], "count")
    put("sched.queue_peak_depth", c["queue_peak_depth"], "count")
    for name, v in _ladder(lad, r"sched\..+\.push_select_ns_(mean|peak)"):
        put(name, v, "ns")
    if c["fwd_candidates"]:
        scoped["sched.forward_share"] = (
            ratio(c["fwd_candidates"], c["decisions"]), "fraction")
        scoped["sched.ladder_forward_share"] = (lad["sched.forward_share"],
                                                "fraction")

    put("mem.claim_ns", lad["mem.claim_ns"], "ns")
    put("mem.claim_ledger_ns", lad["mem.claim_ledger_ns"], "ns")
    put("mem.claims", per_run(c["claims"]), "count")
    put("mem.dram_transfers", per_run(c["dram_transfers"]), "count")
    put("mem.rss_mb_per_sim_s",
        ratio(probe["long_rss_mb"] - probe["short_rss_mb"],
              (probe["long_ms"] - probe["short_ms"]) / 1e3), "MB/s")

    put("interconnect.path_ns", lad["interconnect.path_ns"], "ns")
    put("interconnect.path_claim_ns", lad["interconnect.path_claim_ns"], "ns")
    put("interconnect.transfers", per_run(c["fabric_transfers"]), "count")

    put("dma.transfer_ns", lad["dma.transfer_ns"], "ns")
    put("dma.transfers", per_run(c["dma_transfers"]), "count")

    put("kernels.tasks", per_run(c["tasks"]), "count")
    for name, v in _ladder(lad, r"kernels\..+\.mpix_per_s"):
        put(name, v, "Mpix/s")
    # The DAG kernels do not draw on the scratch pool (only the fused
    # reference pipelines do), so this is 0 wherever they are all that
    # runs.
    pooled = c["scratch_reuses"] + c["scratch_allocs"]
    if pooled:
        scoped["kernels.scratch_reuse_frac"] = (
            ratio(c["scratch_reuses"], pooled), "fraction")

    put("dag.builds", per_run(sum(c["app_builds"].values())), "count")
    for name, v in _ladder(lad, r"dag\..+\.build_us"):
        put(name, v, "us")
    put("core.soc_build_us", lad["core.soc_build_us"], "us")

    put("stats.union_add_ns", lad["stats.union_add_ns"], "ns")
    put("stats.union_adds", table["stats"][1], "count")
    put("stats.report_s", per_run(spans["report"]) / 1e9, "s")

    if c["arrivals"]:
        scoped["serve.arrivals"] = (per_run(c["arrivals"]), "count")
        scoped["trace.kept_frac"] = (ratio(c["kept_traces"], c["arrivals"]),
                                     "fraction")
    put("trace.span_build_ns", lad["trace.span_build_ns"], "ns")

    # Traced run time over untraced run time.
    overhead = ratio(rate, best_slice_rate(doc["horizon_ms"], profiled))
    put("trace_overhead_ratio", overhead, "ratio")
    scoped["trace_overhead_frac"] = (overhead - 1.0, "fraction")
    put("hostprof.coverage",
        ratio(sum(v for k, v in prof.items() if k != "total"), prof["total"]),
        "fraction")
    return m, scoped
