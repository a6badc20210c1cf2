#!/usr/bin/env python3
"""Validate a relief JSON artifact.

Dispatches on the document's "schema" field and validates the formats
the tools and benches emit:

  - relief-serve-v1  (bench/serve_load_sweep, tools/relief_serve) —
    documented in docs/serving.md
  - relief-trace-v1  (relief_serve --trace-json: tail-sampled request
    span trees) — documented in docs/serving.md
  - relief-pressure-v1 (relief_sim --pressure-report: the memory-
    pressure attribution ledger) — documented in docs/observability.md
  - relief-hostprof-v1 (relief_sim --host-profile: host wall-time
    attribution by category) — documented in docs/observability.md §10
  - relief-kernels-v1 (tools/relief_kernel_bench: per-kernel scalar
    vs SIMD throughput and bit-identity) — documented in
    docs/performance.md

Every top-level document carries a "build_info" provenance object
(git sha, compiler, build type, flags).

Dependency-free (Python standard library only) so CI and developers can
run it anywhere:

    scripts/check_bench_schema.py HOSTPROF_CDL.json
    scripts/check_bench_schema.py BENCH_serve.json
    scripts/check_bench_schema.py --self-test

Exits 0 when the document is schema-valid, 1 with a diagnostic per
violation otherwise. --self-test validates the checker itself against
embedded good and broken documents (run from ctest as
schema_checker_self_test).
"""

import json
import sys

BUCKETS = ("queue_wait", "manager", "dma_in", "compute", "dma_out",
           "dep_stall", "total")

BUILD_INFO_FIELDS = ("git_sha", "compiler_id", "compiler_version",
                     "build_type", "cxx_flags")

HOST_CATS = ("other", "sched", "dma", "mem", "interconnect", "kernels",
             "stats", "serve")

HOSTPROF_NS_BUCKETS = 40

# Coverage is emitted with ~6 significant digits; allow rounding slack
# when cross-checking it against the raw nanosecond counters.
COVERAGE_TOLERANCE = 1e-4


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def check_build_info(where, info, errors):
    """Validate the provenance stamp every v5 document carries."""
    if not isinstance(info, dict):
        errors.append("%s: expected a build_info object" % where)
        return
    for field in BUILD_INFO_FIELDS:
        value = info.get(field)
        if not isinstance(value, str) or not value:
            errors.append("%s.%s: expected a non-empty string, got %r"
                          % (where, field, value))
    extra = set(info) - set(BUILD_INFO_FIELDS)
    if extra:
        errors.append("%s: unknown keys %s" % (where, sorted(extra)))


def check_hostprof(hp):
    errors = []
    where = "hostprof"

    def err(msg):
        errors.append(msg)

    check_build_info("build_info", hp.get("build_info"), errors)
    for field in ("total_wall_ns", "attributed_wall_ns"):
        if not is_count(hp.get(field)):
            err("%s.%s: expected a non-negative integer, got %r"
                % (where, field, hp.get(field)))
    coverage = hp.get("coverage")
    if not is_number(coverage) or not 0.0 <= coverage <= 1.0:
        err("%s.coverage: expected a number in [0, 1], got %r"
            % (where, coverage))

    cats = hp.get("categories")
    if not isinstance(cats, dict):
        err("%s.categories: expected an object" % where)
        return errors
    if tuple(cats) != HOST_CATS:
        err("%s.categories: expected exactly %s in order, got %s"
            % (where, list(HOST_CATS), list(cats)))
        return errors
    wall_sum = 0
    for name, cat in cats.items():
        cwhere = "%s.categories.%s" % (where, name)
        if not isinstance(cat, dict):
            err("%s: expected an object" % cwhere)
            continue
        for field in ("wall_ns", "events", "heap_allocs"):
            if not is_count(cat.get(field)):
                err("%s.%s: expected a non-negative integer, got %r"
                    % (cwhere, field, cat.get(field)))
        hist = cat.get("ns_hist")
        if not isinstance(hist, list) \
                or len(hist) != HOSTPROF_NS_BUCKETS \
                or not all(is_count(b) for b in hist):
            err("%s.ns_hist: expected %d non-negative integers"
                % (cwhere, HOSTPROF_NS_BUCKETS))
        elif is_count(cat.get("events")) and sum(hist) != cat["events"]:
            err("%s: ns_hist sums to %d but events is %d"
                % (cwhere, sum(hist), cat["events"]))
        if is_count(cat.get("wall_ns")):
            wall_sum += cat["wall_ns"]

    # Category consistency: the attributed total is exactly the sum of
    # per-category wall time, and coverage is its (clamped) share of
    # the total window.
    if is_count(hp.get("attributed_wall_ns")) \
            and hp["attributed_wall_ns"] != wall_sum:
        err("%s: attributed_wall_ns %d != per-category sum %d"
            % (where, hp["attributed_wall_ns"], wall_sum))
    if is_count(hp.get("total_wall_ns")) and hp["total_wall_ns"] > 0 \
            and is_count(hp.get("attributed_wall_ns")) \
            and is_number(coverage):
        expected = min(1.0, hp["attributed_wall_ns"]
                       / hp["total_wall_ns"])
        if abs(coverage - expected) > COVERAGE_TOLERANCE:
            err("%s.coverage: %r inconsistent with "
                "attributed/total (%r)" % (where, coverage, expected))
    return errors


SLO_COUNTERS = ("offered", "admitted", "shed", "rejected", "completed",
                "missed", "in_flight")

SLO_RATES = ("miss_rate", "shed_rate")

QUANTILES = ("mean", "p50", "p95", "p99", "max")


def check_slo(where, slo, errors):
    """Validate one per-class SLO object of a relief-serve-v1 run."""

    def err(msg):
        errors.append(msg)

    if not isinstance(slo, dict):
        err("%s: expected an object" % where)
        return
    if not isinstance(slo.get("name"), str) or not slo.get("name"):
        err("%s.name: expected a non-empty string" % where)
    for field in SLO_COUNTERS:
        if not is_count(slo.get(field)):
            err("%s.%s: expected a non-negative integer, got %r"
                % (where, field, slo.get(field)))
    if all(is_count(slo.get(f)) for f in SLO_COUNTERS):
        if slo["offered"] != slo["admitted"] + slo["shed"] \
                + slo["rejected"]:
            err("%s: offered != admitted + shed + rejected" % where)
        if slo["admitted"] != slo["completed"] + slo["in_flight"]:
            err("%s: admitted != completed + in_flight" % where)
        if slo["missed"] > slo["completed"]:
            err("%s: missed > completed" % where)
    if not is_number(slo.get("goodput_rps")) or slo["goodput_rps"] < 0:
        err("%s.goodput_rps: expected a non-negative number" % where)
    for field in SLO_RATES:
        value = slo.get(field)
        if not is_number(value) or not 0.0 <= value <= 1.0:
            err("%s.%s: expected a number in [0, 1], got %r"
                % (where, field, value))
    for field in ("latency_ms", "time_in_system_ms"):
        dist = slo.get(field)
        if not isinstance(dist, dict):
            err("%s.%s: expected an object" % (where, field))
            continue
        for q in QUANTILES:
            value = dist.get(q)
            if not is_number(value) or value < 0:
                err("%s.%s.%s: expected a non-negative number, got %r"
                    % (where, field, q, value))
        if all(is_number(dist.get(q)) for q in QUANTILES) \
                and not (dist["p50"] <= dist["p95"] <= dist["p99"]
                         <= dist["max"]):
            err("%s.%s: quantiles are not monotonic" % (where, field))


def check_alerts(where, alerts, errors):
    """Validate one run's burn-rate "alerts" array (serve/alerts.hh)."""

    def err(msg):
        errors.append(msg)

    if not isinstance(alerts, list):
        err("%s: expected an array" % where)
        return
    for i, entry in enumerate(alerts):
        ewhere = "%s[%d]" % (where, i)
        if not isinstance(entry, dict):
            err("%s: expected an object" % ewhere)
            continue
        if not isinstance(entry.get("class"), str) \
                or not entry.get("class"):
            err("%s.class: expected a non-empty string" % ewhere)
        for field in ("opens", "closes"):
            if not is_count(entry.get(field)):
                err("%s.%s: expected a non-negative integer, got %r"
                    % (ewhere, field, entry.get(field)))
        if not isinstance(entry.get("active"), bool):
            err("%s.active: expected a boolean" % ewhere)
        elif is_count(entry.get("opens")) and is_count(entry.get("closes")):
            # An alert is a strict open/close alternation starting with
            # an open, so it is still active iff opens == closes + 1.
            expected = entry["closes"] + (1 if entry["active"] else 0)
            if entry["opens"] != expected:
                err("%s: opens/closes inconsistent with active" % ewhere)
        for field in ("active_ms", "final_fast_burn", "final_slow_burn"):
            value = entry.get(field)
            if not is_number(value) or value < 0:
                err("%s.%s: expected a non-negative number, got %r"
                    % (ewhere, field, value))
        events = entry.get("events")
        if not isinstance(events, list):
            err("%s.events: expected an array" % ewhere)
            continue
        for j, event in enumerate(events):
            vwhere = "%s.events[%d]" % (ewhere, j)
            if not isinstance(event, dict):
                err("%s: expected an object" % vwhere)
                continue
            if not is_number(event.get("t_ms")) or event["t_ms"] < 0:
                err("%s.t_ms: expected a non-negative number" % vwhere)
            if not isinstance(event.get("open"), bool):
                err("%s.open: expected a boolean" % vwhere)
            for field in ("fast_burn", "slow_burn"):
                value = event.get(field)
                if not is_number(value) or value < 0:
                    err("%s.%s: expected a non-negative number, got %r"
                        % (vwhere, field, value))


def check_serve(doc):
    errors = []

    def err(msg):
        errors.append(msg)

    check_build_info("build_info", doc.get("build_info"), errors)
    if not is_count(doc.get("seed")):
        err("seed: expected a non-negative integer")
    if not is_number(doc.get("horizon_ms")) or doc.get("horizon_ms") <= 0:
        err("horizon_ms: expected a positive number")
    if not isinstance(doc.get("smoke"), bool):
        err("smoke: expected a boolean")
    capacity = doc.get("capacity_rps", None)
    if capacity is not None and (not is_number(capacity)
                                 or capacity <= 0):
        err("capacity_rps: expected a positive number or null")

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        err("runs: expected a non-empty array")
        return errors

    for i, run in enumerate(runs):
        where = "runs[%d]" % i
        if not isinstance(run, dict):
            err("%s: expected an object" % where)
            continue
        for field in ("policy", "admission", "arrival"):
            if not isinstance(run.get(field), str) or not run.get(field):
                err("%s.%s: expected a non-empty string" % (where, field))
        # offered_load 0 marks an absolute-rate run (tools/relief_serve).
        if not is_number(run.get("offered_load")) \
                or run["offered_load"] < 0:
            err("%s.offered_load: expected a non-negative number"
                % where)
        if not is_number(run.get("rate_rps")) or run["rate_rps"] <= 0:
            err("%s.rate_rps: expected a positive number" % where)
        check_slo("%s.total" % where, run.get("total"), errors)
        classes = run.get("classes")
        if not isinstance(classes, list) or not classes:
            err("%s.classes: expected a non-empty array" % where)
            continue
        for j, slo in enumerate(classes):
            check_slo("%s.classes[%d]" % (where, j), slo, errors)
        # "alerts" arrived with the burn-rate evaluator; tolerate its
        # absence so older documents stay valid.
        if "alerts" in run:
            check_alerts("%s.alerts" % where, run["alerts"], errors)
        # "pressure" arrived with the attribution ledger; likewise
        # optional for older documents.
        if "pressure" in run:
            pressure = run["pressure"]
            if not isinstance(pressure, list) or not pressure:
                err("%s.pressure: expected a non-empty array" % where)
                continue
            for j, entry in enumerate(pressure):
                pwhere = "%s.pressure[%d]" % (where, j)
                if not isinstance(entry, dict):
                    err("%s: expected an object" % pwhere)
                    continue
                if not isinstance(entry.get("class"), str) \
                        or not entry.get("class"):
                    err("%s.class: expected a non-empty string" % pwhere)
                check_pressure_slot(pwhere, entry, errors)
            if pressure and isinstance(pressure[0], dict) \
                    and pressure[0].get("class") != "default":
                err("%s.pressure[0]: expected the ledger's implicit "
                    "'default' class" % where)

    saturation = doc.get("saturation")
    if not isinstance(saturation, list):
        err("saturation: expected an array")
        return errors
    for i, entry in enumerate(saturation):
        where = "saturation[%d]" % i
        if not isinstance(entry, dict):
            err("%s: expected an object" % where)
            continue
        if not isinstance(entry.get("policy"), str):
            err("%s.policy: expected a string" % where)
        knee = entry.get("knee_load", None)
        if knee is not None and (not is_number(knee) or knee <= 0):
            err("%s.knee_load: expected a positive number or null"
                % where)
    return errors


SAMPLING_COUNTERS = ("offered", "admitted", "kept_ok", "kept_miss",
                     "kept_shed", "kept_rejected", "dropped")

OUTCOMES = ("ok", "miss", "shed", "rejected", "in_flight")

SPAN_KINDS = ("request", "admission", "node", "queue_wait", "dispatch",
              "dma_in", "compute", "dma_out")

# One sim tick is 1 ps = 1e-6 us; timestamps are rounded to ~9
# significant digits on export, so allow a loose microsecond slack.
SPAN_TOLERANCE_US = 0.001


def check_request_trace(where, req, errors):
    """Validate one request record of a relief-trace-v1 document."""

    def err(msg):
        errors.append(msg)

    if not isinstance(req, dict):
        err("%s: expected an object" % where)
        return
    if not is_count(req.get("id")):
        err("%s.id: expected a non-negative integer" % where)
    for field in ("class", "app"):
        if not isinstance(req.get(field), str) or not req.get(field):
            err("%s.%s: expected a non-empty string" % (where, field))
    outcome = req.get("outcome")
    if outcome not in OUTCOMES:
        err("%s.outcome: expected one of %s, got %r"
            % (where, OUTCOMES, outcome))
    for field in ("arrival_us", "finish_us", "deadline_us",
                  "latency_us"):
        value = req.get(field)
        if not is_number(value) or value < 0:
            err("%s.%s: expected a non-negative number, got %r"
                % (where, field, value))
    if is_number(req.get("arrival_us")) and is_number(req.get("finish_us")) \
            and req["finish_us"] < req["arrival_us"]:
        err("%s: finish_us before arrival_us" % where)

    buckets = req.get("buckets_us")
    if not isinstance(buckets, dict):
        err("%s.buckets_us: expected an object" % where)
    else:
        for bucket in BUCKETS:
            value = buckets.get(bucket)
            if not is_number(value) or value < 0:
                err("%s.buckets_us.%s: expected a non-negative number, "
                    "got %r" % (where, bucket, value))

    spans = req.get("spans")
    if not isinstance(spans, list) or not spans:
        err("%s.spans: expected a non-empty array" % where)
        return
    for j, span in enumerate(spans):
        swhere = "%s.spans[%d]" % (where, j)
        if not isinstance(span, dict):
            err("%s: expected an object" % swhere)
            return
        if span.get("kind") not in SPAN_KINDS:
            err("%s.kind: expected one of %s, got %r"
                % (swhere, SPAN_KINDS, span.get("kind")))
        parent = span.get("parent")
        if not isinstance(parent, int) or isinstance(parent, bool):
            err("%s.parent: expected an integer" % swhere)
            return
        if j == 0:
            if span.get("kind") != "request" or parent != -1:
                err("%s: spans[0] must be the 'request' root with "
                    "parent -1" % where)
        elif not 0 <= parent < j:
            err("%s.parent: %d not an earlier span index" % (swhere,
                                                             parent))
        for field in ("start_us", "end_us"):
            if not is_number(span.get(field)):
                err("%s.%s: expected a number" % (swhere, field))
                return
        if span["end_us"] < span["start_us"]:
            err("%s: end_us before start_us" % swhere)
        if j > 0 and 0 <= parent < j:
            outer = spans[parent]
            if is_number(outer.get("start_us")) \
                    and is_number(outer.get("end_us")) \
                    and (span["start_us"]
                         < outer["start_us"] - SPAN_TOLERANCE_US
                         or span["end_us"]
                         > outer["end_us"] + SPAN_TOLERANCE_US):
                err("%s: does not nest within its parent" % swhere)

    # The root's synchronous children (everything but the overlapping
    # asynchronous dma_out write-backs) are disjoint: their durations
    # sum to at most the root duration.
    root = spans[0]
    if is_number(root.get("start_us")) and is_number(root.get("end_us")):
        sync_sum = sum(
            s["end_us"] - s["start_us"] for s in spans[1:]
            if isinstance(s, dict) and s.get("parent") == 0
            and s.get("kind") != "dma_out"
            and is_number(s.get("start_us")) and is_number(s.get("end_us")))
        if sync_sum > (root["end_us"] - root["start_us"]
                       + SPAN_TOLERANCE_US):
            err("%s: synchronous child spans exceed the root span"
                % where)


def check_trace(doc):
    errors = []

    def err(msg):
        errors.append(msg)

    check_build_info("build_info", doc.get("build_info"), errors)
    if not is_count(doc.get("seed")):
        err("seed: expected a non-negative integer")
    if not is_number(doc.get("horizon_ms")) or doc.get("horizon_ms") <= 0:
        err("horizon_ms: expected a positive number")
    fraction = doc.get("ok_fraction")
    if not is_number(fraction) or not 0.0 <= fraction <= 1.0:
        err("ok_fraction: expected a number in [0, 1], got %r"
            % (fraction,))

    sampling = doc.get("sampling")
    if not isinstance(sampling, dict):
        err("sampling: expected an object")
        return errors
    for field in SAMPLING_COUNTERS:
        if not is_count(sampling.get(field)):
            err("sampling.%s: expected a non-negative integer, got %r"
                % (field, sampling.get(field)))
    requests = doc.get("requests")
    if not isinstance(requests, list):
        err("requests: expected an array")
        return errors

    if all(is_count(sampling.get(f)) for f in SAMPLING_COUNTERS):
        # Tail-sampling conservation (trace/sampler.hh): every admitted
        # request is kept-ok, kept-anomalous, or dropped; every offered
        # request is admitted or a kept shed/reject.
        if sampling["kept_ok"] + sampling["kept_miss"] \
                + sampling["dropped"] != sampling["admitted"]:
            err("sampling: kept_ok + kept_miss + dropped != admitted")
        if sampling["admitted"] + sampling["kept_shed"] \
                + sampling["kept_rejected"] != sampling["offered"]:
            err("sampling: admitted + kept_shed + kept_rejected "
                "!= offered")
        kept = sampling["kept_ok"] + sampling["kept_miss"] \
            + sampling["kept_shed"] + sampling["kept_rejected"]
        if len(requests) != kept:
            err("requests: %d records but sampling says %d kept"
                % (len(requests), kept))

    for i, req in enumerate(requests):
        check_request_trace("requests[%d]" % i, req, errors)
    return errors


TRAFFIC_TYPES = ("dram_fetch", "writeback", "forward", "spm_spill")

SLOT_COUNTS = ("bytes", "transfers")

SLOT_TIMES = ("service_us", "wait_suffered_us", "wait_caused_us")

# Float slack for microsecond sums rounded independently on export.
PRESSURE_TOLERANCE_US = 0.01


def check_pressure_slot(where, slot, errors):
    """Validate the accounting fields shared by qos rollups and
    contender rows of a relief-pressure-v1 document."""

    def err(msg):
        errors.append(msg)

    for field in SLOT_COUNTS:
        if not is_count(slot.get(field)):
            err("%s.%s: expected a non-negative integer, got %r"
                % (where, field, slot.get(field)))
    for field in SLOT_TIMES:
        value = slot.get(field)
        if not is_number(value) or value < 0:
            err("%s.%s: expected a non-negative number, got %r"
                % (where, field, value))


def check_pressure(doc):
    errors = []

    def err(msg):
        errors.append(msg)

    check_build_info("build_info", doc.get("build_info"), errors)
    end_us = doc.get("end_us")
    if not is_number(end_us) or end_us < 0:
        err("end_us: expected a non-negative number")

    classes = doc.get("qos_classes")
    if not isinstance(classes, list) or not classes \
            or not all(isinstance(c, str) and c for c in classes):
        err("qos_classes: expected a non-empty array of names")
        classes = []
    elif classes[0] != "default":
        err("qos_classes[0]: expected the implicit 'default' class")

    if tuple(doc.get("traffic", ())) != TRAFFIC_TYPES:
        err("traffic: expected %s" % (list(TRAFFIC_TYPES),))

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        err("totals: expected an object")
        totals = {}
    for field in ("bytes", "transfers", "dram_bytes", "fabric_bytes",
                  "bytes_spared_colocation", "bytes_spared_forwarding"):
        if not is_count(totals.get(field)):
            err("totals.%s: expected a non-negative integer, got %r"
                % (field, totals.get(field)))
    for field in ("service_us", "wait_us"):
        value = totals.get(field)
        if not is_number(value) or value < 0:
            err("totals.%s: expected a non-negative number, got %r"
                % (field, value))

    qos = doc.get("qos")
    if not isinstance(qos, list) or len(qos) != len(classes):
        err("qos: expected one rollup per qos class")
        qos = []
    suffered = 0.0
    caused = 0.0
    for i, entry in enumerate(qos):
        where = "qos[%d]" % i
        if not isinstance(entry, dict):
            err("%s: expected an object" % where)
            continue
        if entry.get("name") != classes[i]:
            err("%s.name: %r does not match qos_classes[%d]"
                % (where, entry.get("name"), i))
        check_pressure_slot(where, entry, errors)
        if is_number(entry.get("wait_suffered_us")):
            suffered += entry["wait_suffered_us"]
        if is_number(entry.get("wait_caused_us")):
            caused += entry["wait_caused_us"]
    # The attribution invariant: every microsecond of queueing delay
    # suffered is charged to some contender, so the rollups balance.
    if qos and abs(suffered - caused) > PRESSURE_TOLERANCE_US:
        err("qos: wait_suffered_us and wait_caused_us do not balance "
            "(%.3f vs %.3f)" % (suffered, caused))
    if qos and is_number(totals.get("wait_us")) \
            and abs(suffered - totals["wait_us"]) > PRESSURE_TOLERANCE_US:
        err("qos: per-class wait does not sum to totals.wait_us")

    resources = doc.get("resources")
    if not isinstance(resources, list) or not resources:
        err("resources: expected a non-empty array")
        return errors
    total_bytes = 0
    for i, res in enumerate(resources):
        where = "resources[%d]" % i
        if not isinstance(res, dict):
            err("%s: expected an object" % where)
            continue
        if not isinstance(res.get("name"), str) or not res.get("name"):
            err("%s.name: expected a non-empty string" % where)
        if not is_number(res.get("peak_gbs")) or res["peak_gbs"] <= 0:
            err("%s.peak_gbs: expected a positive number" % where)
        for field in ("bytes", "transfers"):
            if not is_count(res.get(field)):
                err("%s.%s: expected a non-negative integer, got %r"
                    % (where, field, res.get(field)))
        for field in ("service_us", "wait_us", "busy_us"):
            value = res.get(field)
            if not is_number(value) or value < 0:
                err("%s.%s: expected a non-negative number, got %r"
                    % (where, field, value))
        occupancy = res.get("occupancy")
        if not is_number(occupancy) or not 0.0 <= occupancy <= 1.0:
            err("%s.occupancy: expected a number in [0, 1], got %r"
                % (where, occupancy))
        if is_count(res.get("bytes")):
            total_bytes += res["bytes"]

        contenders = res.get("contenders")
        if not isinstance(contenders, list):
            err("%s.contenders: expected an array" % where)
            continue
        contender_bytes = 0
        for j, row in enumerate(contenders):
            rwhere = "%s.contenders[%d]" % (where, j)
            if not isinstance(row, dict):
                err("%s: expected an object" % rwhere)
                continue
            if not isinstance(row.get("source"), str) \
                    or not row.get("source"):
                err("%s.source: expected a non-empty string" % rwhere)
            if classes and row.get("qos") not in classes:
                err("%s.qos: %r not in qos_classes"
                    % (rwhere, row.get("qos")))
            if row.get("traffic") not in TRAFFIC_TYPES + ("untagged",):
                err("%s.traffic: %r not a traffic type"
                    % (rwhere, row.get("traffic")))
            check_pressure_slot(rwhere, row, errors)
            if is_count(row.get("bytes")):
                contender_bytes += row["bytes"]
        # Contender tables are top-K truncated, so they bound the
        # resource's counters from below but never exceed them.
        if is_count(res.get("bytes")) and contender_bytes > res["bytes"]:
            err("%s: contender bytes exceed the resource total" % where)
    if is_count(totals.get("bytes")) and total_bytes != totals["bytes"]:
        err("totals.bytes: %d does not equal the per-resource sum %d"
            % (totals["bytes"], total_bytes))
    return errors


KERNEL_ISAS = ("scalar", "sse4.2", "avx2", "neon")

KERNEL_UNITS = ("MPix/s", "Melem/s")

# Throughput ratios are emitted with ~6 significant digits; allow
# rounding slack when cross-checking speedup against scalar/simd.
SPEEDUP_TOLERANCE = 1e-3


def check_kernels(doc):
    """Validate a relief-kernels-v1 kernel microbenchmark document."""
    errors = []

    def err(msg):
        errors.append(msg)

    check_build_info("build_info", doc.get("build_info"), errors)
    if doc.get("isa") not in KERNEL_ISAS:
        err("isa: expected one of %s, got %r"
            % (list(KERNEL_ISAS), doc.get("isa")))
    lane_width = doc.get("lane_width")
    if not is_count(lane_width) or lane_width < 1:
        err("lane_width: expected a positive integer, got %r"
            % (lane_width,))
    if not isinstance(doc.get("smoke"), bool):
        err("smoke: expected a boolean")
    for field in ("width", "height"):
        value = doc.get(field)
        if not is_count(value) or value < 1:
            err("%s: expected a positive integer, got %r"
                % (field, value))

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        err("runs: expected a non-empty array")
        return errors

    speedups = []
    for i, run in enumerate(runs):
        where = "runs[%d]" % i
        if not isinstance(run, dict):
            err("%s: expected an object" % where)
            continue
        if not isinstance(run.get("kernel"), str) or not run.get("kernel"):
            err("%s.kernel: expected a non-empty string" % where)
        if run.get("unit") not in KERNEL_UNITS:
            err("%s.unit: expected one of %s, got %r"
                % (where, list(KERNEL_UNITS), run.get("unit")))
        if not is_count(run.get("reps")) or run.get("reps") < 1:
            err("%s.reps: expected a positive integer, got %r"
                % (where, run.get("reps")))
        for field in ("scalar", "simd", "speedup"):
            value = run.get(field)
            if not is_number(value) or value < 0:
                err("%s.%s: expected a non-negative number, got %r"
                    % (where, field, value))
        if not isinstance(run.get("identical"), bool):
            err("%s.identical: expected a boolean" % where)
        # Speedup consistency: speedup is simd/scalar of this run.
        if all(is_number(run.get(f)) for f in ("scalar", "simd",
                                               "speedup")) \
                and run["scalar"] > 0:
            expected = run["simd"] / run["scalar"]
            if abs(run["speedup"] - expected) \
                    > SPEEDUP_TOLERANCE * max(expected, 1.0):
                err("%s.speedup: %r inconsistent with simd/scalar (%r)"
                    % (where, run["speedup"], expected))
            speedups.append(run["speedup"])

    geomean = doc.get("geomean_speedup")
    if not is_number(geomean) or geomean < 0:
        err("geomean_speedup: expected a non-negative number, got %r"
            % (geomean,))
    elif speedups and len(speedups) == len(runs):
        product = 1.0
        for s in speedups:
            product *= max(s, 1e-12)
        expected = product ** (1.0 / len(speedups))
        if abs(geomean - expected) > SPEEDUP_TOLERANCE * max(expected,
                                                            1.0):
            err("geomean_speedup: %r inconsistent with per-run "
                "speedups (%r)" % (geomean, expected))
    return errors


CHECKERS = {
    "relief-serve-v1": check_serve,
    "relief-trace-v1": check_trace,
    "relief-pressure-v1": check_pressure,
    "relief-hostprof-v1": check_hostprof,
    "relief-kernels-v1": check_kernels,
}


def check(doc):
    if not isinstance(doc, dict):
        return ["top level: expected an object"]
    schema = doc.get("schema")
    checker = CHECKERS.get(schema)
    if checker is None:
        return ["schema: expected one of %s, got %r"
                % (sorted(CHECKERS), schema)]
    return checker(doc)


# --- self test -----------------------------------------------------------

GOOD_BUILD_INFO = {
    "git_sha": "0123456789ab",
    "compiler_id": "GNU",
    "compiler_version": "12.2.0",
    "build_type": "Release",
    "cxx_flags": "-O3 -DNDEBUG",
}


def good_hostprof_category(wall_ns=0, events=0, heap_allocs=0):
    hist = [0] * HOSTPROF_NS_BUCKETS
    if events:
        hist[5] = events
    return {"wall_ns": wall_ns, "events": events,
            "heap_allocs": heap_allocs, "ns_hist": hist}


GOOD_HOSTPROF = {
    "schema": "relief-hostprof-v1",
    "build_info": GOOD_BUILD_INFO,
    "total_wall_ns": 1000000,
    "attributed_wall_ns": 950000,
    "coverage": 0.95,
    "categories": {
        "other": good_hostprof_category(wall_ns=150000),
        "sched": good_hostprof_category(wall_ns=300000, events=40,
                                        heap_allocs=2),
        "dma": good_hostprof_category(wall_ns=250000, events=80),
        "mem": good_hostprof_category(wall_ns=100000),
        "interconnect": good_hostprof_category(wall_ns=50000),
        "kernels": good_hostprof_category(wall_ns=60000, events=30),
        "stats": good_hostprof_category(wall_ns=40000, events=5),
        "serve": good_hostprof_category(),
    },
}

GOOD_SLO = {
    "name": "realtime",
    "offered": 10,
    "admitted": 8,
    "shed": 1,
    "rejected": 1,
    "completed": 6,
    "missed": 1,
    "in_flight": 2,
    "goodput_rps": 100.0,
    "miss_rate": 0.1667,
    "shed_rate": 0.2,
    "latency_ms": {"mean": 2.0, "p50": 1.5, "p95": 4.0, "p99": 5.0,
                   "max": 6.0},
    "time_in_system_ms": {"mean": 2.5, "p50": 2.0, "p95": 5.0,
                          "p99": 6.0, "max": 7.0},
}

GOOD_ALERTS = [{
    "class": "realtime",
    "opens": 2,
    "closes": 1,
    "active": True,
    "active_ms": 8.5,
    "final_fast_burn": 10.0,
    "final_slow_burn": 6.7,
    "events": [
        {"t_ms": 4.0, "open": True, "fast_burn": 3.0, "slow_burn": 2.1},
        {"t_ms": 9.0, "open": False, "fast_burn": 0.5, "slow_burn": 0.9},
        {"t_ms": 12.0, "open": True, "fast_burn": 10.0,
         "slow_burn": 6.7},
    ],
}]

GOOD_SERVE_PRESSURE = [
    {"class": "default", "bytes": 4096, "transfers": 2,
     "service_us": 1.0, "wait_suffered_us": 0.5,
     "wait_caused_us": 0.7},
    {"class": "realtime", "bytes": 65536, "transfers": 10,
     "service_us": 9.0, "wait_suffered_us": 2.5,
     "wait_caused_us": 2.3},
]

GOOD_SERVE = {
    "schema": "relief-serve-v1",
    "build_info": GOOD_BUILD_INFO,
    "seed": 1,
    "horizon_ms": 50.0,
    "smoke": False,
    "capacity_rps": 340.0,
    "runs": [{
        "policy": "RELIEF",
        "admission": "laxity",
        "arrival": "poisson",
        "offered_load": 1.0,
        "rate_rps": 340.0,
        "total": GOOD_SLO,
        "classes": [GOOD_SLO],
        "alerts": GOOD_ALERTS,
        "pressure": GOOD_SERVE_PRESSURE,
    }],
    "saturation": [{"policy": "RELIEF", "knee_load": 1.2},
                   {"policy": "FCFS", "knee_load": None}],
}

GOOD_PRESSURE_SLOT = {
    "bytes": 1024,
    "transfers": 2,
    "service_us": 1.5,
    "wait_suffered_us": 2.0,
    "wait_caused_us": 2.0,
}

GOOD_PRESSURE = {
    "schema": "relief-pressure-v1",
    "build_info": GOOD_BUILD_INFO,
    "end_us": 1000.0,
    "qos_classes": ["default", "realtime"],
    "traffic": list(TRAFFIC_TYPES),
    "totals": {
        "bytes": 3072,
        "transfers": 4,
        "service_us": 3.0,
        "wait_us": 2.0,
        "dram_bytes": 2048,
        "fabric_bytes": 1024,
        "bytes_spared_colocation": 512,
        "bytes_spared_forwarding": 256,
    },
    "qos": [
        dict(GOOD_PRESSURE_SLOT, name="default"),
        {"name": "realtime", "bytes": 2048, "transfers": 2,
         "service_us": 1.5, "wait_suffered_us": 0.0,
         "wait_caused_us": 0.0},
    ],
    "resources": [
        {
            "name": "soc.dram.channel",
            "peak_gbs": 12.8,
            "bytes": 2048,
            "transfers": 3,
            "service_us": 2.0,
            "wait_us": 2.0,
            "busy_us": 2.0,
            "occupancy": 0.002,
            "contenders": [
                dict(GOOD_PRESSURE_SLOT, source="soc.elem-matrix0",
                     qos="default", traffic="dram_fetch"),
                {"source": "soc.conv0", "qos": "realtime",
                 "traffic": "writeback", "bytes": 1024,
                 "transfers": 1, "service_us": 0.5,
                 "wait_suffered_us": 0.0, "wait_caused_us": 0.0},
            ],
        },
        {
            "name": "soc.bus.channel",
            "peak_gbs": 32.0,
            "bytes": 1024,
            "transfers": 1,
            "service_us": 1.0,
            "wait_us": 0.0,
            "busy_us": 1.0,
            "occupancy": 0.001,
            "contenders": [],
        },
    ],
}

GOOD_KERNELS = {
    "schema": "relief-kernels-v1",
    "build_info": GOOD_BUILD_INFO,
    "isa": "avx2",
    "lane_width": 8,
    "smoke": True,
    "width": 96,
    "height": 64,
    "runs": [
        {"kernel": "conv5x5", "unit": "MPix/s", "reps": 16,
         "scalar": 100.0, "simd": 500.0, "speedup": 5.0,
         "identical": True},
        {"kernel": "elem_add", "unit": "Melem/s", "reps": 32,
         "scalar": 1000.0, "simd": 4000.0, "speedup": 4.0,
         "identical": True},
    ],
    # geomean of 5.0 and 4.0
    "geomean_speedup": 4.47213595499958,
}

GOOD_TRACE = {
    "schema": "relief-trace-v1",
    "build_info": GOOD_BUILD_INFO,
    "seed": 1,
    "horizon_ms": 20.0,
    "ok_fraction": 0.25,
    "sampling": {
        "offered": 5,
        "admitted": 3,
        "kept_ok": 1,
        "kept_miss": 1,
        "kept_shed": 1,
        "kept_rejected": 1,
        "dropped": 1,
    },
    "requests": [
        {
            # A completed miss with a full span tree: root, admission,
            # one node with its four phases, one async write-back.
            "id": 0,
            "class": "realtime",
            "app": "canny",
            "outcome": "miss",
            "arrival_us": 100.0,
            "finish_us": 300.0,
            "deadline_us": 250.0,
            "latency_us": 200.0,
            "buckets_us": {"queue_wait": 80.0, "manager": 10.0,
                           "dma_in": 40.0, "compute": 60.0,
                           "dma_out": 0.0, "dep_stall": 10.0,
                           "total": 200.0},
            "spans": [
                {"kind": "request", "parent": -1, "label": "",
                 "start_us": 100.0, "end_us": 300.0},
                {"kind": "admission", "parent": 0, "label": "",
                 "start_us": 100.0, "end_us": 110.0},
                {"kind": "node", "parent": 0, "label": "canny.gauss",
                 "start_us": 110.0, "end_us": 300.0},
                {"kind": "queue_wait", "parent": 2, "label": "",
                 "start_us": 110.0, "end_us": 190.0},
                {"kind": "dispatch", "parent": 2, "label": "",
                 "start_us": 190.0, "end_us": 200.0},
                {"kind": "dma_in", "parent": 2, "label": "",
                 "start_us": 200.0, "end_us": 240.0},
                {"kind": "compute", "parent": 2, "label": "",
                 "start_us": 240.0, "end_us": 300.0},
                {"kind": "dma_out", "parent": 0,
                 "label": "canny.gauss", "start_us": 250.0,
                 "end_us": 300.0},
            ],
        },
        {
            # A sampled-in OK request, root-only for brevity.
            "id": 1,
            "class": "batch",
            "app": "lstm",
            "outcome": "ok",
            "arrival_us": 120.0,
            "finish_us": 180.0,
            "deadline_us": 500.0,
            "latency_us": 60.0,
            "buckets_us": {"queue_wait": 10.0, "manager": 5.0,
                           "dma_in": 15.0, "compute": 25.0,
                           "dma_out": 0.0, "dep_stall": 5.0,
                           "total": 60.0},
            "spans": [{"kind": "request", "parent": -1, "label": "",
                       "start_us": 120.0, "end_us": 180.0}],
        },
        {
            # A shed request: root-only, finish == arrival.
            "id": 2,
            "class": "interactive",
            "app": "gru",
            "outcome": "shed",
            "arrival_us": 130.0,
            "finish_us": 130.0,
            "deadline_us": 400.0,
            "latency_us": 0.0,
            "buckets_us": {bucket: 0.0 for bucket in BUCKETS},
            "spans": [{"kind": "request", "parent": -1, "label": "",
                       "start_us": 130.0, "end_us": 130.0}],
        },
        {
            # A rejected request: root-only, finish == arrival.
            "id": 3,
            "class": "realtime",
            "app": "deblur",
            "outcome": "rejected",
            "arrival_us": 140.0,
            "finish_us": 140.0,
            "deadline_us": 300.0,
            "latency_us": 0.0,
            "buckets_us": {bucket: 0.0 for bucket in BUCKETS},
            "spans": [{"kind": "request", "parent": -1, "label": "",
                       "start_us": 140.0, "end_us": 140.0}],
        },
    ],
}


def mutate(doc, path, value):
    """Deep-copy @p doc and set the field at @p path to @p value."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    if value is Ellipsis:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return copy


def self_test():
    failures = []

    def expect(doc, valid, label):
        errors = check(doc)
        if valid and errors:
            failures.append("%s: expected valid, got %s" % (label, errors))
        if not valid and not errors:
            failures.append("%s: expected a violation, got none" % label)

    expect(GOOD_SERVE, True, "good serve doc")
    expect([], False, "non-object top level")
    expect({"schema": "relief-nope-v9", "runs": []}, False,
           "unknown schema")

    expect(GOOD_HOSTPROF, True, "good hostprof doc")
    expect(mutate(GOOD_HOSTPROF, ["build_info"], Ellipsis), False,
           "hostprof missing build_info")
    expect(mutate(GOOD_HOSTPROF, ["build_info", "git_sha"], ""), False,
           "hostprof empty git sha")
    expect(mutate(GOOD_HOSTPROF, ["coverage"], -0.1), False,
           "hostprof coverage below zero")
    expect(mutate(GOOD_HOSTPROF, ["attributed_wall_ns"], 900000),
           False, "hostprof attributed != per-category sum")
    expect(mutate(GOOD_HOSTPROF, ["coverage"], 0.5), False,
           "hostprof coverage inconsistent with counters")
    expect(mutate(GOOD_HOSTPROF, ["categories", "dma"], Ellipsis),
           False, "hostprof missing category")
    expect(mutate(GOOD_HOSTPROF, ["categories", "serve", "wall_ns"],
                  -1), False, "hostprof negative category wall")
    expect(mutate(GOOD_HOSTPROF,
                  ["categories", "sched", "ns_hist"], [0] * 10),
           False, "hostprof wrong histogram length")
    expect(mutate(GOOD_HOSTPROF,
                  ["categories", "sched", "events"], 99),
           False, "hostprof events != histogram sum")

    expect(mutate(GOOD_SERVE, ["seed"], -1), False, "serve negative seed")
    expect(mutate(GOOD_SERVE, ["build_info"], Ellipsis), False,
           "serve missing build_info")
    expect(mutate(GOOD_SERVE, ["horizon_ms"], 0), False,
           "serve zero horizon")
    expect(mutate(GOOD_SERVE, ["capacity_rps"], None), True,
           "serve null capacity (absolute-rate doc)")
    expect(mutate(GOOD_SERVE, ["runs"], []), False, "serve empty runs")
    expect(mutate(GOOD_SERVE, ["runs", 0, "rate_rps"], 0), False,
           "serve zero rate")
    expect(mutate(GOOD_SERVE, ["runs", 0, "total", "offered"], 99), False,
           "serve counter conservation violated")
    expect(mutate(GOOD_SERVE, ["runs", 0, "total", "miss_rate"], 1.5),
           False, "serve rate outside [0, 1]")
    expect(mutate(GOOD_SERVE,
                  ["runs", 0, "total", "latency_ms", "p95"], 9.0),
           False, "serve non-monotonic quantiles")
    expect(mutate(GOOD_SERVE, ["runs", 0, "classes"], []), False,
           "serve empty classes")
    expect(mutate(GOOD_SERVE, ["saturation", 0, "knee_load"], -2), False,
           "serve negative knee")
    expect(mutate(GOOD_SERVE, ["saturation"], Ellipsis), False,
           "serve missing saturation")
    expect(mutate(GOOD_SERVE, ["runs", 0, "alerts"], Ellipsis), True,
           "serve doc without alerts (pre-telemetry)")
    expect(mutate(GOOD_SERVE, ["runs", 0, "alerts", 0, "active"], False),
           False, "serve alert active inconsistent with opens/closes")
    expect(mutate(GOOD_SERVE,
                  ["runs", 0, "alerts", 0, "events", 0, "fast_burn"],
                  -1.0),
           False, "serve alert negative burn")

    expect(mutate(GOOD_SERVE, ["runs", 0, "pressure"], Ellipsis), True,
           "serve doc without pressure (pre-ledger)")
    expect(mutate(GOOD_SERVE, ["runs", 0, "pressure"], []), False,
           "serve empty pressure array")
    expect(mutate(GOOD_SERVE, ["runs", 0, "pressure", 0, "class"],
                  "realtime"),
           False, "serve pressure without the default class first")
    expect(mutate(GOOD_SERVE,
                  ["runs", 0, "pressure", 1, "wait_caused_us"], -1.0),
           False, "serve pressure negative wait")

    expect(GOOD_PRESSURE, True, "good pressure doc")
    expect(mutate(GOOD_PRESSURE, ["build_info", "compiler_id"], ""),
           False, "pressure empty compiler id")
    expect(mutate(GOOD_PRESSURE, ["end_us"], -1), False,
           "pressure negative end_us")
    expect(mutate(GOOD_PRESSURE, ["qos_classes"], ["realtime"]), False,
           "pressure missing default class")
    expect(mutate(GOOD_PRESSURE, ["traffic"], ["dram_fetch"]), False,
           "pressure wrong traffic list")
    expect(mutate(GOOD_PRESSURE, ["totals", "bytes"], 999), False,
           "pressure totals do not match per-resource sum")
    expect(mutate(GOOD_PRESSURE, ["qos", 1, "wait_caused_us"], 9.0),
           False, "pressure suffered/caused books unbalanced")
    expect(mutate(GOOD_PRESSURE, ["qos", 1, "name"], "batch"), False,
           "pressure qos rollup name mismatch")
    expect(mutate(GOOD_PRESSURE, ["resources"], []), False,
           "pressure empty resources")
    expect(mutate(GOOD_PRESSURE, ["resources", 0, "occupancy"], 1.5),
           False, "pressure occupancy outside [0, 1]")
    expect(mutate(GOOD_PRESSURE, ["resources", 0, "peak_gbs"], 0),
           False, "pressure non-positive peak bandwidth")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 0, "qos"], "batch"),
           False, "pressure contender with unknown qos class")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 0, "traffic"], "dma"),
           False, "pressure contender with unknown traffic type")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 0, "bytes"], 999999),
           False, "pressure contender bytes exceed the resource")
    expect(mutate(GOOD_PRESSURE,
                  ["resources", 0, "contenders", 1, "transfers"], -1),
           False, "pressure negative transfer count")

    expect(GOOD_KERNELS, True, "good kernels doc")
    expect(mutate(GOOD_KERNELS, ["build_info"], Ellipsis), False,
           "kernels missing build_info")
    expect(mutate(GOOD_KERNELS, ["isa"], "avx512"), False,
           "kernels unknown isa")
    expect(mutate(GOOD_KERNELS, ["lane_width"], 0), False,
           "kernels zero lane width")
    expect(mutate(GOOD_KERNELS, ["width"], -1), False,
           "kernels negative image width")
    expect(mutate(GOOD_KERNELS, ["runs"], []), False,
           "kernels empty runs")
    expect(mutate(GOOD_KERNELS, ["runs", 0, "kernel"], ""), False,
           "kernels empty kernel name")
    expect(mutate(GOOD_KERNELS, ["runs", 0, "unit"], "GB/s"), False,
           "kernels unknown unit")
    expect(mutate(GOOD_KERNELS, ["runs", 0, "scalar"], -1.0), False,
           "kernels negative throughput")
    expect(mutate(GOOD_KERNELS, ["runs", 0, "speedup"], 9.0), False,
           "kernels speedup inconsistent with simd/scalar")
    expect(mutate(GOOD_KERNELS, ["runs", 1, "identical"], "yes"),
           False, "kernels non-boolean identical")
    expect(mutate(GOOD_KERNELS, ["geomean_speedup"], 2.0), False,
           "kernels geomean inconsistent with per-run speedups")

    expect(GOOD_TRACE, True, "good trace doc")
    expect(mutate(GOOD_TRACE, ["build_info"], None), False,
           "trace null build_info")
    expect(mutate(GOOD_TRACE, ["ok_fraction"], 1.5), False,
           "trace ok_fraction outside [0, 1]")
    expect(mutate(GOOD_TRACE, ["sampling", "dropped"], 7), False,
           "trace sampling conservation violated")
    expect(mutate(GOOD_TRACE, ["sampling", "kept_shed"], 2), False,
           "trace offered conservation violated")
    expect(mutate(GOOD_TRACE, ["requests", 1], Ellipsis), False,
           "trace kept count mismatch")
    expect(mutate(GOOD_TRACE, ["requests", 0, "outcome"], "late"),
           False, "trace unknown outcome")
    expect(mutate(GOOD_TRACE, ["requests", 0, "finish_us"], 50.0),
           False, "trace finish before arrival")
    expect(mutate(GOOD_TRACE, ["requests", 0, "spans", 0, "kind"],
                  "node"),
           False, "trace non-request root span")
    expect(mutate(GOOD_TRACE, ["requests", 0, "spans", 3, "parent"], 5),
           False, "trace forward parent reference")
    expect(mutate(GOOD_TRACE,
                  ["requests", 0, "spans", 3, "end_us"], 400.0),
           False, "trace child escapes its parent window")
    expect(mutate(GOOD_TRACE,
                  ["requests", 0, "spans", 1, "end_us"], 290.0),
           False, "trace synchronous children exceed root")
    expect(mutate(GOOD_TRACE,
                  ["requests", 0, "buckets_us", "compute"], Ellipsis),
           False, "trace missing bucket")

    for failure in failures:
        print("self-test failure: %s" % failure, file=sys.stderr)
    if not failures:
        print("self-test passed")
    return 1 if failures else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print("usage: check_bench_schema.py (BENCH_FILE | --self-test)",
              file=sys.stderr)
        return 1
    try:
        with open(argv[1]) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print("error: cannot parse %s: %s" % (argv[1], exc),
              file=sys.stderr)
        return 1
    errors = check(doc)
    for error in errors:
        print("schema violation: %s" % error, file=sys.stderr)
    if errors:
        return 1
    for unit in ("runs", "requests", "resources", "categories"):
        if unit in doc:
            break
    print("%s: schema-valid %s (%d %s)"
          % (argv[1], doc["schema"], len(doc.get(unit, [])), unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
