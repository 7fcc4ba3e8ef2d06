/**
 * @file
 * compile_tc: the paper's own pipeline. A CompileSession on the TC app
 * with all four families, the default budget, seed bench::kBenchSeed,
 * four family searches in parallel and inline candidate scoring,
 * repeated until the run's time is spent (at least three compiles).
 * The compile seed is fixed, so the winner is checked against the F1
 * it reaches at that seed; --seed does not change the inputs.
 */
#include <cmath>
#include <iomanip>
#include <sstream>

#include "bench_common.hpp"
#include "models.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/** Winner F1 of the TC compile at bench::kBenchSeed, six decimals. */
constexpr double kExpectedTcF1 = 0.699157;
constexpr int kMinCompiles = 3;

}  // namespace

RunResult
runCompileTc(const RunConfig &config)
{
    RunResult result;
    const double test_rows = static_cast<double>(
        homunculus::bench::loadTc().test.x.rows());

    std::vector<CompileTiming> timings;
    std::vector<double> setup_s, compile_s, eval_us;
    double scored_rows = 0.0, search_s = 0.0;
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
    while (static_cast<int>(result.attempted) < kMinCompiles ||
           nowNs() < end) {
        CompiledModel compiled = compileTc(
            homunculus::core::allAlgorithms(), /*jobs=*/4);
        ++result.attempted;
        if (!compiled.ok) {
            ++result.failed;
            result.fail("compile failed: " + compiled.error);
            break;
        }
        if (std::fabs(compiled.objective - kExpectedTcF1) >= 5e-7) {
            std::ostringstream why;
            why << "winner F1 " << std::setprecision(9) << compiled.objective
                << " != " << kExpectedTcF1;
            result.fail(why.str());
        }
        if (compiled.codeBytes == 0)
            result.fail("emit produced no code");
        const CompileTiming &t = compiled.timing;
        timings.push_back(t);
        setup_s.push_back(t.setupS());
        compile_s.push_back(t.compileS());
        for (double ms : t.evalMs)
            eval_us.push_back(ms * 1e3);
        scored_rows += static_cast<double>(t.evals) * test_rows;
        search_s += t.searchFamiliesS;
    }

    MetricSet &m = result.metrics;
    std::uint64_t attempted = result.attempted;
    if (!config.trace) {
        m.set("rows_per_s", search_s > 0.0 ? scored_rows / search_s : 0.0,
              "1/s");
        m.set("compile_s", median(compile_s), "s");
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        std::ostringstream note;
        note << "# latency_samples " << eval_us.size() << " compiles "
             << attempted << " compile_s_by_compile";
        for (double seconds : compile_s)
            note << " " << seconds;
        result.notes.push_back(note.str());
        return result;
    }
    reportCompileLayers(timings, m);
    m.set("latency_p50_us", percentile(eval_us, 50.0), "us");
    m.set("latency_p99_us", percentile(eval_us, 99.0), "us");
    m.set("latency_samples", static_cast<double>(eval_us.size()), "count");
    m.set("fail_ratio",
          static_cast<double>(result.failed) / static_cast<double>(attempted),
          "ratio");
    return result;
}

}  // namespace perfbench
