/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--git-sha SHA]
 *
 * Workloads: wire_flood, routed_sharded, lanes_paced, compile_tc (see
 * README.md beside this program). Prints a "# provenance" line, "#"
 * note lines, and, last, one JSON result line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with every end-to-end metric (--trace 0) or every per-layer metric
 * (--trace 1). Exits 1 when an output or the accounting is wrong, 2 on
 * bad arguments.
 */
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> metrics = {
        {"rows_per_s", "1/s"}, {"compile_s", "s"},   {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return metrics;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> metrics = {
        // net
        {"net.parse_ns", "ns"},
        {"net.extract_ns", "ns"},
        {"net.malformed", "count"},
        {"scaler.transform_ns", "ns"},
        // server: submit + batcher glue
        {"server.rows_per_s", "1/s"},
        {"server.submit_ns.p50", "ns"},
        {"server.submit_ns.p99", "ns"},
        {"server.submit_self_ns", "ns"},
        {"server.glue_ns_per_row", "ns"},
        {"server.request_us.p50", "us"},
        {"server.request_us.p99", "us"},
        {"cpu.producer_ratio", "ratio"},
        {"cpu.other_ratio", "ratio"},
        // request_queue
        {"queue.push_ns", "ns"},
        {"queue.pop_ns", "ns"},
        {"queue.batch_rows_mean", "rows"},
        {"queue.size_flushes", "count"},
        {"queue.deadline_flushes", "count"},
        {"queue.aged_flushes", "count"},
        {"queue.shed", "count"},
        {"queue.block_timeouts", "count"},
        // inference_engine / kernels
        {"engine.batch_us.p50", "us"},
        {"engine.batch_us.p99", "us"},
        {"engine.ns_per_row", "ns"},
        {"engine.batches", "count"},
        // router / model_registry
        {"router.batch_us.p50", "us"},
        {"router.ns_per_row", "ns"},
        {"router.hops_per_row", "ratio"},
        {"registry.swap_us.p50", "us"},
        {"registry.swaps", "count"},
        {"registry.snapshot_ns", "ns"},
        // sharded_server
        {"shard.skew", "ratio"},
        {"shard.route_ns", "ns"},
        // telemetry
        {"trace.overhead_ratio", "ratio"},
        {"telemetry.snapshot_us", "us"},
        // core/compiler + opt + ml
        {"compile.load_data_s", "s"},
        {"compile.select_families_s", "s"},
        {"compile.search_families_s", "s"},
        {"compile.pick_winner_s", "s"},
        {"compile.emit_s", "s"},
        {"bo.evals", "count"},
        {"bo.feasible_ratio", "ratio"},
        {"bo.eval_ms.p50", "ms"},
        {"bo.eval_ms.p99", "ms"},
        {"bo.family_s.dnn", "s"},
        {"bo.family_s.svm", "s"},
        {"bo.family_s.kmeans", "s"},
        {"bo.family_s.decision_tree", "s"},
        {"bo.family_imbalance", "ratio"},
        // lanes and load generator
        {"probe_p50_us", "us"},
        {"probe_p99_us", "us"},
        {"probe_samples", "count"},
        {"bulk_p50_us", "us"},
        {"bulk_p99_us", "us"},
        {"bulk_samples", "count"},
        {"latency_p50_us", "us"},
        {"latency_p99_us", "us"},
        {"latency_samples", "count"},
        {"gen.late_us.p99", "us"},
        {"gen.late_us.max", "us"},
        {"host.spin_ns", "ns"},
        {"fail_ratio", "ratio"},
    };
    return metrics;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/** All-core spin before anything is set up or measured. */
constexpr double kWarmHostSeconds = 2.0;

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "wire_flood|routed_sharded|lanes_paced|compile_tc "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n";
    return 2;
}

/** Keep exactly the catalog's metrics, in catalog order; a per-layer
 *  metric the workload does not produce reads 0, a missing end-to-end
 *  metric is an error. */
bool
normalize(const std::vector<MetricSpec> &catalog, bool missing_is_zero,
          MetricSet &metrics, std::ostream &err)
{
    MetricSet out;
    bool ok = true;
    for (const MetricSpec &spec : catalog) {
        bool found = false;
        for (const Metric &metric : metrics.all())
            found = found || metric.name == spec.name;
        if (!found && !missing_is_zero) {
            err << "perfbench: workload did not produce " << spec.name << "\n";
            ok = false;
        }
        out.set(spec.name, metrics.get(spec.name), spec.unit);
    }
    metrics = out;
    return ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string git_sha;
    bool have_workload = false, have_seed = false, have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                config.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                config.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                config.seconds = std::stod(value);
                have_seconds = config.seconds > 0.0 && config.seconds <= 120.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                config.trace = value == "1";
                have_trace = true;
            } else if (arg == "--git-sha") {
                git_sha = value;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (0, 120] and --trace "
                     "are required");

    RunResult (*run)(const RunConfig &) = nullptr;
    if (config.workload == "wire_flood")
        run = runWireFlood;
    else if (config.workload == "routed_sharded")
        run = runRoutedSharded;
    else if (config.workload == "lanes_paced")
        run = runLanesPaced;
    else if (config.workload == "compile_tc")
        run = runCompileTc;
    else
        return usage(("unknown workload " + config.workload).c_str());

    if (!runSelfTests(std::cerr))
        return 1;
    warmHost(kWarmHostSeconds);
    Provenance provenance = collectProvenance(git_sha);
    writeProvenance(std::cout, provenance, config.workload, config.seed);

    RunResult result;
    try {
        result = run(config);
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << config.workload << ": " << error.what()
                  << "\n";
        return 1;
    }
    bool complete;
    if (config.trace) {
        result.metrics.set("host.spin_ns", provenance.hostSpinNs, "ns");
        complete = normalize(perLayerMetrics(), true, result.metrics,
                             std::cerr);
    } else {
        complete = normalize(endToEndMetrics(), false, result.metrics,
                             std::cerr);
    }
    for (const std::string &error : result.errors)
        std::cerr << "perfbench: " << config.workload << ": " << error << "\n";
    for (const std::string &note : result.notes)
        std::cout << note << "\n";
    if (result.attempted == 0)
        result.fail("no attempts");
    writeResult(std::cout, result.correct && complete, result.attempted,
                result.failed, result.metrics);
    return result.correct && complete ? 0 : 1;
}
