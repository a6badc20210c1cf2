/**
 * @file
 * serve_load_sweep — open-loop load sweep across the saturation knee.
 *
 * The first apples-to-apples comparison of RELIEF against the baseline
 * policies under serving-style traffic: for each scheduling policy,
 * sweep the offered load across multiples of the platform's measured
 * capacity (default 0.2x-1.4x), run one seeded open-loop serving
 * experiment per (policy, load) point, and emit one relief-serve-v1
 * JSON document with per-class p50/p95/p99 latency, goodput, miss
 * rate, and shed rate per point, plus the saturation knee per policy
 * (the lowest load whose miss + shed rate exceeds 10%).
 *
 * Capacity is measured once with a closed-loop continuous run under
 * FCFS (policy-neutral), so every policy sees identical absolute
 * request rates. Arrival schedules are derived from (seed, load
 * index) only — every policy at a given load serves the exact same
 * request stream.
 *
 * Determinism: the document contains no host timing; the same seed
 * produces a bit-identical file for any --jobs value (CI diffs
 * --jobs 1 against --jobs 2).
 *
 * Examples:
 *
 *   serve_load_sweep                        # full sweep -> BENCH_serve.json
 *   serve_load_sweep --smoke --jobs 2       # CI: 5 loads, 2 policies, 10 ms
 *   serve_load_sweep --policies RELIEF,LAX --loads 0.5,1.0,1.5
 *
 * Flags:
 *   --out FILE       output path (default BENCH_serve.json)
 *   --policies LIST  comma-separated policy names (default the six
 *                    headline policies)
 *   --loads LIST     offered-load multipliers (default
 *                    0.2,0.4,0.6,0.8,1.0,1.2,1.4)
 *   --horizon-ms X   per-run measurement window (default 50)
 *   --arrival KIND   poisson | bursty (default poisson)
 *   --admission KIND admit-all | queue-cap | laxity (default laxity)
 *   --queue-cap N    queue-cap: in-system cap (default 64)
 *   --seed N         master seed (default 1)
 *   --jobs N         sweep points on N worker threads (0 = one per
 *                    hardware thread, at most 256); results are
 *                    jobs-invariant
 *   --smoke          tiny sweep for CI: FCFS+RELIEF, 5 loads, 30 ms
 */

#include <climits>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"
#include "core/rng.hh"
#include "serve/server.hh"
#include "sim/build_info.hh"
#include "stats/json.hh"

using namespace relief;

namespace
{

std::vector<std::string>
splitCsv(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream in(list);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** Upper bound of --jobs: worker threads started at once. */
constexpr std::uint64_t maxJobs = 256;

/** Miss + shed rate past which a point counts as saturated. */
constexpr double kneeThreshold = 0.10;

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_serve.json";
    std::vector<std::string> policies;
    for (PolicyKind kind : mainPolicies)
        policies.push_back(policyName(kind));
    std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4};
    double horizon_ms = toMs(continuousWindow);
    ArrivalKind arrival = ArrivalKind::Poisson;
    AdmissionConfig admission;
    admission.kind = AdmissionKind::Laxity;
    std::uint64_t seed = 1;
    int jobs = 1;
    bool smoke = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto need_value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("flag ", arg, " needs a value");
                return argv[++i];
            };
            if (arg == "--out") {
                out_path = need_value();
            } else if (arg == "--policies") {
                policies = splitCsv(need_value());
            } else if (arg == "--loads") {
                loads.clear();
                for (const std::string &item : splitCsv(need_value())) {
                    double load = parseNumberFlag(arg, item);
                    if (load <= 0.0)
                        fatal("--loads needs positive multipliers");
                    loads.push_back(load);
                }
            } else if (arg == "--horizon-ms") {
                horizon_ms = parseNumberFlag(arg, need_value());
                if (horizon_ms <= 0.0)
                    fatal("--horizon-ms needs a positive value");
            } else if (arg == "--arrival") {
                arrival = arrivalFromName(need_value());
                if (arrival == ArrivalKind::Trace)
                    fatal("the sweep needs a stochastic arrival "
                          "process (poisson | bursty)");
            } else if (arg == "--admission") {
                admission.kind = admissionFromName(need_value());
            } else if (arg == "--queue-cap") {
                admission.queueCap =
                    int(parseCountFlag(arg, need_value(), INT_MAX));
            } else if (arg == "--seed") {
                seed = parseCountFlag(arg, need_value());
            } else if (arg == "--jobs") {
                // Bounded before any worker starts: each job is a
                // thread.
                jobs = int(parseCountFlag(arg, need_value(), maxJobs));
                if (jobs == 0)
                    jobs = defaultParallelJobs();
            } else if (arg == "--smoke") {
                smoke = true;
                policies = {policyName(PolicyKind::Fcfs),
                            policyName(PolicyKind::Relief)};
                loads = {0.25, 0.5, 0.75, 1.0, 1.25};
                horizon_ms = 30.0;
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "usage: serve_load_sweep [--out FILE] "
                             "[--policies LIST] [--loads LIST] "
                             "[--horizon-ms X] [--arrival KIND] "
                             "[--admission KIND] [--queue-cap N] "
                             "[--seed N] [--jobs N] [--smoke]\n";
                return 0;
            } else {
                fatal("unknown flag '", arg, "'");
            }
        }

        std::vector<PolicyKind> policy_kinds;
        for (const std::string &name : policies)
            policy_kinds.push_back(policyFromName(name));
        if (policy_kinds.empty() || loads.empty())
            fatal("need at least one policy and one load point");

        // Calibrate once; every sweep point shares the result.
        SocConfig base_soc;
        AppConfig base_app;
        double capacity_rps = measureCapacityRps(base_soc, base_app);
        std::cout << "measured capacity: "
                  << Table::num(capacity_rps, 1)
                  << " requests/s (closed-loop FCFS, all five apps)\n";

        // The sweep matrix: loads major, policies minor. Arrival seeds
        // derive from the load index only, so every policy at a load
        // serves the identical request stream.
        struct Point
        {
            std::size_t load = 0;
            std::size_t policy = 0;
        };
        std::vector<Point> points;
        for (std::size_t l = 0; l < loads.size(); ++l)
            for (std::size_t p = 0; p < policy_kinds.size(); ++p)
                points.push_back({l, p});

        std::vector<ServeReport> reports(points.size());
        parallelFor(points.size(), jobs, [&](std::size_t i) {
            ServeConfig config;
            config.soc = base_soc;
            config.app = base_app;
            config.soc.policy = policy_kinds[points[i].policy];
            config.arrival.kind = arrival;
            config.arrival.ratePerSec =
                loads[points[i].load] * capacity_rps;
            config.admission = admission;
            config.horizon = fromMs(horizon_ms);
            config.seed = deriveSeed(seed, points[i].load);
            ServeDriver driver(config);
            reports[i] = driver.run();
        });

        for (std::size_t i = 0; i < points.size(); ++i) {
            const ServeReport &report = reports[i];
            std::cout << "serve "
                      << policyName(policy_kinds[points[i].policy])
                      << " @ " << Table::num(loads[points[i].load], 2)
                      << "x: goodput "
                      << Table::num(report.total.goodputRps(
                                        report.horizon), 1)
                      << " rps, p99 "
                      << Table::num(
                             report.total.latencyMs.quantile(0.99), 2)
                      << " ms, miss "
                      << Table::num(report.total.missRate() * 100, 1)
                      << "%, shed "
                      << Table::num(report.total.shedRate() * 100, 1)
                      << "%\n";
        }

        // Saturation knee per policy: the lowest swept load whose
        // miss + shed rate crosses the threshold.
        std::vector<double> knees(policy_kinds.size(), 0.0);
        std::vector<bool> saturated(policy_kinds.size(), false);
        for (std::size_t p = 0; p < policy_kinds.size(); ++p) {
            for (std::size_t l = 0; l < loads.size(); ++l) {
                const ServeReport &report =
                    reports[l * policy_kinds.size() + p];
                double lost = report.total.missRate() +
                              report.total.shedRate();
                if (lost > kneeThreshold) {
                    knees[p] = loads[l];
                    saturated[p] = true;
                    break;
                }
            }
        }

        std::ofstream out(out_path);
        if (!out)
            fatal("cannot write ", out_path);
        // No --jobs or host timing in the document: the same seed must
        // produce a bit-identical file for any worker count.
        out << "{\n  \"schema\": \"relief-serve-v1\",\n"
            << "  \"build_info\": ";
        writeBuildInfoJson(out, 2);
        out << ",\n"
            << "  \"seed\": " << seed << ",\n"
            << "  \"horizon_ms\": " << jsonNumber(horizon_ms) << ",\n"
            << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
            << "  \"capacity_rps\": " << jsonNumber(capacity_rps)
            << ",\n  \"runs\": [";
        for (std::size_t i = 0; i < points.size(); ++i) {
            out << (i ? ",\n    " : "\n    ");
            writeServeRunJson(
                out, reports[i],
                policyName(policy_kinds[points[i].policy]),
                admissionKindName(admission.kind),
                arrivalKindName(arrival), loads[points[i].load],
                loads[points[i].load] * capacity_rps, 4);
        }
        out << "\n  ],\n  \"saturation\": [";
        for (std::size_t p = 0; p < policy_kinds.size(); ++p) {
            out << (p ? ",\n    " : "\n    ") << "{\"policy\": \""
                << jsonEscape(policyName(policy_kinds[p]))
                << "\", \"knee_load\": ";
            if (saturated[p])
                out << jsonNumber(knees[p]);
            else
                out << "null";
            out << "}";
        }
        out << "\n  ]\n}\n";
        std::cout << "serve JSON written to " << out_path << "\n";
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }
    return 0;
}
