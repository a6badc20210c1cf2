/**
 * @file
 * relief_sim — the command-line simulation driver.
 *
 * Configure the platform and workload entirely from flags, run one
 * simulation, and print the full metrics report (plus an optional
 * schedule trace). Examples:
 *
 *   relief_sim --mix GHL --policy LAX
 *   relief_sim --mix CDG --policy RELIEF --continuous --limit-ms 50
 *   relief_sim --mix CG --instances EM=2 --fabric xbar --trace out.json
 *   relief_sim --mix CDL --stats-json stats.json --debug-flags Sched
 *
 * --trace FILE writes a Chrome trace (spans, counter tracks, and
 * dependency-edge flow arrows; load in Perfetto), --stats FILE the
 * gem5-style text dump, --stats-json FILE the stable-schema JSON
 * stats, --latency-breakdown prints the per-DAG critical-path
 * attribution table, and --debug-flags LIST enables sim-time-stamped
 * category logging (e.g. Sched,Dma,Mem).
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/relief.hh"
#include "dag/workload_file.hh"
#include "sim/hostprof.hh"

using namespace relief;

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string stats_path;
    std::string dot_dir;
    std::string workload_path;
    std::string pressure_path;
    std::string hostprof_path;
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--stats" && i + 1 < argc) {
            stats_path = argv[++i];
        } else if (arg == "--dot" && i + 1 < argc) {
            dot_dir = argv[++i];
        } else if (arg == "--workload" && i + 1 < argc) {
            workload_path = argv[++i];
        } else if (arg == "--pressure-report" && i + 1 < argc) {
            pressure_path = argv[++i];
        } else if (arg == "--host-profile" && i + 1 < argc) {
            hostprof_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout << cliUsage()
                      << " [--workload FILE] [--trace FILE] [--stats FILE] [--dot DIR]"
                         " [--pressure-report FILE] [--host-profile FILE]\n";
            return 0;
        } else {
            args.push_back(arg);
        }
    }

    ExperimentConfig config;
    try {
        config = parseCliOptions(args);
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }

    // Start the host-time meter before the platform exists so model
    // construction and workload building are inside the measured
    // window (attributed to "other" via the scope below).
    if (!hostprof_path.empty())
        setHostProfEnabled(true);
    HostProfScope buildProf(HostCat::Other);

    Soc soc(config.soc);
    if (!trace_path.empty())
        soc.enableTracing();

    std::vector<DagPtr> dags;
    try {
        if (!workload_path.empty()) {
            // A workload file replaces the built-in mix.
            dags = loadWorkloadFile(workload_path);
        } else {
            for (AppId app : parseMix(config.mix))
                dags.push_back(buildApp(app, config.app));
        }
    } catch (const FatalError &) {
        return 1; // fatal() already printed the message
    }
    for (DagPtr &dag : dags) {
        if (!dot_dir.empty()) {
            std::string path = dot_dir + "/" + dag->name() + ".dot";
            std::ofstream out(path);
            if (!out) {
                std::cerr << "cannot write " << path << "\n";
                return 1;
            }
            dag->writeDot(out);
            std::cout << "DAG written to " << path << "\n";
        }
        soc.submit(dag, 0, config.continuous);
    }
    soc.run(config.timeLimit);
    MetricsReport report = soc.report();

    std::string workload_label = workload_path.empty()
                                     ? "mix " + config.mix
                                     : "workload " + workload_path;
    Table summary("relief_sim — " + workload_label + " under " +
                  policyName(config.soc.policy));
    summary.setHeader({"metric", "value"});
    summary.addRow({"execution time (ms)", Table::num(toMs(report.execTime), 3)});
    summary.addRow({"edges consumed", std::to_string(report.run.edgesConsumed)});
    summary.addRow({"forwards", std::to_string(report.run.forwards)});
    summary.addRow({"colocations", std::to_string(report.run.colocations)});
    summary.addRow({"forward+coloc share (%)",
                    Table::pct(report.forwardFraction())});
    summary.addRow({"DRAM traffic (KiB)",
                    std::to_string(report.dramBytes / 1024)});
    summary.addRow({"DRAM traffic vs all-DRAM (%)",
                    Table::pct(report.dramTrafficFraction())});
    summary.addRow({"SPM-to-SPM traffic (KiB)",
                    std::to_string(report.spmForwardBytes / 1024)});
    summary.addRow({"DRAM energy (uJ)",
                    Table::num(report.dramEnergyPJ / 1e6, 2)});
    summary.addRow({"SPM energy (uJ)",
                    Table::num(report.spmEnergyPJ / 1e6, 2)});
    summary.addRow({"node deadlines met (%)",
                    Table::pct(report.run.nodeDeadlineFraction())});
    summary.addRow({"DAG deadlines met",
                    std::to_string(report.run.dagDeadlinesMet) + "/" +
                        std::to_string(report.run.dagsFinished)});
    summary.addRow({"accelerator occupancy",
                    Table::num(report.accOccupancy, 3)});
    summary.addRow({"interconnect occupancy (%)",
                    Table::pct(report.fabricOccupancy)});
    summary.addRow({"manager busy (us)",
                    Table::num(toUs(report.run.managerBusyTime), 1)});
    summary.print(std::cout);

    Table apps("per application");
    apps.setHeader({"app", "iterations", "deadlines met", "gmean slowdown",
                    "max slowdown"});
    for (const AppOutcome &app : report.apps) {
        apps.addRow({app.name, std::to_string(app.iterations),
                     std::to_string(app.deadlinesMet),
                     app.starved() ? "inf" : Table::num(app.meanSlowdown(), 2),
                     app.starved() ? "inf" : Table::num(app.maxSlowdown(), 2)});
    }
    std::cout << "\n";
    apps.print(std::cout);

    if (config.latencyBreakdown) {
        std::cout << "\n";
        soc.printLatencyBreakdown(std::cout);
    }

    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            std::cerr << "cannot write trace to " << trace_path << "\n";
            return 1;
        }
        soc.trace()->writeChromeJson(out);
        std::cout << "\ntrace written to " << trace_path << "\n";
    }
    if (!stats_path.empty()) {
        std::ofstream out(stats_path);
        if (!out) {
            std::cerr << "cannot write stats to " << stats_path << "\n";
            return 1;
        }
        soc.dumpStats(out);
        std::cout << "stats written to " << stats_path << "\n";
    }
    if (!config.statsJsonPath.empty()) {
        std::ofstream out(config.statsJsonPath);
        if (!out) {
            std::cerr << "cannot write stats to " << config.statsJsonPath
                      << "\n";
            return 1;
        }
        soc.writeStatsJson(out);
        std::cout << "JSON stats written to " << config.statsJsonPath
                  << "\n";
    }
    if (!pressure_path.empty()) {
        std::ofstream out(pressure_path);
        if (!out) {
            std::cerr << "cannot write pressure report to "
                      << pressure_path << "\n";
            return 1;
        }
        soc.writePressureJson(out);
        std::cout << "pressure report written to " << pressure_path
                  << "\n";

        // Console digest: the busiest resources and who pressures them.
        const PressureLedger &ledger = soc.pressureLedger();
        Table pressure("memory pressure — top contenders per resource");
        pressure.setHeader({"resource", "source", "qos", "traffic",
                            "KiB", "wait (us)", "caused (us)"});
        for (int res = 0; res < ledger.numResources(); ++res) {
            auto rows = ledger.topContenders(res, 3);
            if (rows.empty())
                continue;
            for (const auto &row : rows) {
                int src = ledger.keySource(row.key);
                pressure.addRow(
                    {ledger.resource(res).name(),
                     src < 0 ? "untagged" : ledger.sourceName(src),
                     ledger.qosClassName(ledger.keyQos(row.key)),
                     row.key == 0 ? "untagged"
                                  : pressureTrafficName(
                                        ledger.keyTraffic(row.key)),
                     std::to_string(row.slot.bytes / 1024),
                     Table::num(toUs(row.slot.waitSuffered), 1),
                     Table::num(toUs(row.slot.waitCaused), 1)});
            }
        }
        std::cout << "\n";
        pressure.print(std::cout);
    }
    if (!hostprof_path.empty()) {
        // Freeze the meter (charging the open root scope up to now),
        // then export the standalone relief-hostprof-v1 document.
        setHostProfEnabled(false);
        HostProfSnapshot snap = hostProfSnapshot();
        std::ofstream out(hostprof_path);
        if (!out) {
            std::cerr << "cannot write host profile to " << hostprof_path
                      << "\n";
            return 1;
        }
        snap.writeJson(out);
        out << "\n";
        std::cout << "host profile written to " << hostprof_path
                  << " (coverage "
                  << Table::pct(snap.coverage()) << "%)\n";
    }
    return 0;
}
