/**
 * @file
 * The benchmark's workloads and the catalog of the metrics they print.
 *
 * Each workload drives the library only through its public entry points
 * and returns one RunResult. With trace off it fills every end-to-end
 * metric; with trace on it reruns on the same inputs with the program's
 * TraceSink bound, per-submit timestamps, per-thread CPU time and a
 * layer replay, and fills the per-layer metrics (a layer the workload
 * does not use reads 0).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct RunResult
{
    /** Every output checked equal to its reference, and every ticket's
     *  accounting balanced. */
    bool correct = true;
    std::uint64_t attempted = 0;
    /** Attempts without a verdict or result (sheds, timeouts, malformed
     *  frames, failures, early drops, failed compiles). */
    std::uint64_t failed = 0;
    MetricSet metrics;
    /** Why correct is false (one line each). */
    std::vector<std::string> errors;
    /** Free-form "# ..." lines printed before the result (sample counts). */
    std::vector<std::string> notes;

    void fail(const std::string &why)
    {
        correct = false;
        errors.push_back(why);
    }
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every workload with trace off. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Per-layer metrics, printed by every workload with trace on. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Size of the packet pool the serving workloads cycle through. */
constexpr std::size_t kPoolSize = 8192;

RunResult runWireFlood(const RunConfig &config);
RunResult runRoutedSharded(const RunConfig &config);
RunResult runLanesPaced(const RunConfig &config);
RunResult runCompileTc(const RunConfig &config);

}  // namespace perfbench
