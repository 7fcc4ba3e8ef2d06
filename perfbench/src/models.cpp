#include "models.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "bench_common.hpp"
#include "measure.hpp"

namespace perfbench {

namespace hc = homunculus::core;

namespace {

/** Evaluation timestamps of one compile. Every family search runs on one
 *  pool thread, so a candidate's wall time is the gap to the previous
 *  evaluation that thread finished (or to the search start). */
struct EvalClock
{
    std::uint64_t compileId = 0;
    std::int64_t searchStartNs = 0;
    std::mutex mutex;
    std::vector<double> evalMs;
    std::map<std::string, std::int64_t> familyLastNs;
};

struct ThreadEvalStamp
{
    std::uint64_t compileId = 0;
    std::int64_t lastNs = 0;
};

thread_local ThreadEvalStamp t_stamp;
std::atomic<std::uint64_t> g_nextCompileId{1};

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

}  // namespace

CompiledModel
compileTc(const std::vector<hc::Algorithm> &families, std::size_t jobs)
{
    CompiledModel out;
    hc::PlatformHandle platform = homunculus::bench::paperTaurus();
    hc::ModelSpec spec =
        homunculus::bench::appSpec(homunculus::bench::App::kTc);
    spec.algorithms = families;
    platform.schedule(spec);

    auto clock = std::make_shared<EvalClock>();
    clock->compileId = g_nextCompileId.fetch_add(1);

    hc::CompileOptions options;  // default budget: 5 init + 15 iterations
    options.seed = homunculus::bench::kBenchSeed;
    options.jobs = jobs;
    options.inferJobs = 1;
    options.bo.onEvaluation = [clock](std::size_t, std::size_t) {
        std::int64_t now = nowNs();
        if (t_stamp.compileId != clock->compileId)
            t_stamp = {clock->compileId, clock->searchStartNs};
        double ms = static_cast<double>(now - t_stamp.lastNs) * 1e-6;
        t_stamp.lastNs = now;
        std::lock_guard<std::mutex> lock(clock->mutex);
        clock->evalMs.push_back(ms);
    };
    options.observer = [clock](const hc::ProgressEvent &event) {
        if (event.stage != hc::Stage::kSearchFamilies || event.family.empty())
            return;
        std::lock_guard<std::mutex> lock(clock->mutex);
        clock->familyLastNs[event.family] = nowNs();
    };

    hc::CompileSession session(platform, options);
    CompileTiming &t = out.timing;
    auto stage = [&](auto &&call, double &seconds) {
        std::int64_t start = nowNs();
        hc::Status status = call();
        seconds = secondsSince(start);
        if (!status && out.error.empty())
            out.error = status.toString();
        return static_cast<bool>(status);
    };
    bool ok = stage([&] { return session.loadData(); }, t.loadDataS) &&
              stage([&] { return session.selectFamilies(); },
                    t.selectFamiliesS);
    if (ok) {
        clock->searchStartNs = nowNs();
        ok = stage([&] { return session.searchFamilies(); },
                   t.searchFamiliesS) &&
             stage([&] { return session.pickWinner(); }, t.pickWinnerS) &&
             stage([&] { return session.emit(); }, t.emitS);
    }
    {
        std::lock_guard<std::mutex> lock(clock->mutex);
        t.evalMs = clock->evalMs;
        for (const auto &[family, last_ns] : clock->familyLastNs)
            t.familyS[family] =
                static_cast<double>(last_ns - clock->searchStartNs) * 1e-9;
    }
    if (!ok)
        return out;

    if (const auto *searches = session.searchesFor(spec.name)) {
        for (const hc::FamilySearch &family : *searches) {
            for (const auto &record : family.search.history) {
                ++t.evals;
                t.feasible += record.result.feasible ? 1 : 0;
            }
        }
    }
    const hc::CompileReport &report = session.report();
    if (report.models.empty()) {
        out.error = "compile produced no model";
        return out;
    }
    const hc::GeneratedModel &winner = report.models.front();
    out.ok = true;
    out.algorithm = hc::algorithmName(winner.algorithm);
    out.objective = winner.objective;
    out.codeBytes = winner.code.size();
    out.model = winner.model;
    return out;
}

CompileTiming
combine(const CompileTiming &a, const CompileTiming &b)
{
    CompileTiming out = a;
    out.loadDataS += b.loadDataS;
    out.selectFamiliesS += b.selectFamiliesS;
    out.searchFamiliesS += b.searchFamiliesS;
    out.pickWinnerS += b.pickWinnerS;
    out.emitS += b.emitS;
    out.evalMs.insert(out.evalMs.end(), b.evalMs.begin(), b.evalMs.end());
    for (const auto &[family, seconds] : b.familyS)
        out.familyS[family] += seconds;
    out.evals += b.evals;
    out.feasible += b.feasible;
    return out;
}

void
reportCompileLayers(const std::vector<CompileTiming> &timings,
                    MetricSet &metrics)
{
    auto stage_median = [&](double CompileTiming::*field) {
        std::vector<double> values;
        for (const CompileTiming &t : timings)
            values.push_back(t.*field);
        return median(values);
    };
    metrics.set("compile.load_data_s", stage_median(&CompileTiming::loadDataS),
                "s");
    metrics.set("compile.select_families_s",
                stage_median(&CompileTiming::selectFamiliesS), "s");
    metrics.set("compile.search_families_s",
                stage_median(&CompileTiming::searchFamiliesS), "s");
    metrics.set("compile.pick_winner_s",
                stage_median(&CompileTiming::pickWinnerS), "s");
    metrics.set("compile.emit_s", stage_median(&CompileTiming::emitS), "s");

    std::vector<double> evals, eval_ms, imbalance;
    double feasible = 0.0, total = 0.0;
    std::map<std::string, std::vector<double>> family_s;
    for (const CompileTiming &t : timings) {
        evals.push_back(static_cast<double>(t.evals));
        feasible += static_cast<double>(t.feasible);
        total += static_cast<double>(t.evals);
        eval_ms.insert(eval_ms.end(), t.evalMs.begin(), t.evalMs.end());
        double slowest = 0.0, sum = 0.0;
        for (const auto &[family, seconds] : t.familyS) {
            family_s[family].push_back(seconds);
            slowest = std::max(slowest, seconds);
            sum += seconds;
        }
        if (!t.familyS.empty() && sum > 0.0)
            imbalance.push_back(slowest * static_cast<double>(t.familyS.size()) /
                                sum);
    }
    metrics.set("bo.evals", median(evals), "count");
    metrics.set("bo.feasible_ratio", total > 0.0 ? feasible / total : 0.0,
                "ratio");
    metrics.set("bo.eval_ms.p50", percentile(eval_ms, 50.0), "ms");
    metrics.set("bo.eval_ms.p99", percentile(eval_ms, 99.0), "ms");
    for (const char *family : {"dnn", "svm", "kmeans", "decision_tree"}) {
        auto it = family_s.find(family);
        metrics.set(std::string("bo.family_s.") + family,
                    it == family_s.end() ? 0.0 : median(it->second), "s");
    }
    metrics.set("bo.family_imbalance", median(imbalance), "ratio");
}

}  // namespace perfbench
