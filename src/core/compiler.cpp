#include "core/compiler.hpp"

#include <utility>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "core/design_space.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/quant_cache.hpp"

namespace homunculus::core {

std::string
stageName(Stage stage)
{
    switch (stage) {
      case Stage::kIdle: return "idle";
      case Stage::kLoadData: return "loadData";
      case Stage::kSelectFamilies: return "selectFamilies";
      case Stage::kSearchFamilies: return "searchFamilies";
      case Stage::kPickWinner: return "pickWinner";
      case Stage::kEmit: return "emit";
    }
    return "?";
}

const GeneratedModel *
CompileReport::find(const std::string &spec_name) const
{
    for (const auto &model : models)
        if (model.specName == spec_name)
            return &model;
    return nullptr;
}

namespace {

/**
 * One family's full constrained-BO search. Self-contained: every mutable
 * object (search space, surrogate, best-evaluation cache) is local, the
 * RNG seed derives only from (session seed, family), and the platform is
 * used through its const interface — which is what makes the parallel
 * session bit-identical for a fixed seed at any pool width.
 */
FamilySearch
searchOneFamily(Algorithm algorithm, const ModelSpec &spec,
                const backends::Platform &target, const ml::DataSplit &split,
                const CompileOptions &options,
                const backends::EvalOptions &eval,
                const std::function<bool()> &should_stop,
                const std::function<void(std::size_t, std::size_t)>
                    &on_evaluation)
{
    FamilySearch out;
    out.algorithm = algorithm;
    try {
        opt::SearchSpace space = buildDesignSpace(algorithm, spec, target);

        // Cache the best evaluation per family so the winner's IR does
        // not need retraining after the search.
        opt::ObjectiveFn objective =
            [&](const opt::Configuration &config) -> opt::EvalResult {
            CandidateEvaluation evaluation = evaluateCandidate(
                algorithm, config, spec, split, target, options.seed,
                eval);
            bool better =
                evaluation.report.feasible &&
                (!out.hasBest || evaluation.objective > out.best.objective);
            if (better) {
                out.best = evaluation;
                out.hasBest = true;
            }
            return toEvalResult(evaluation);
        };

        opt::BoConfig bo_config = options.bo;
        bo_config.seed = options.seed ^
                         (0x9E37ull * (static_cast<std::uint64_t>(
                                           algorithmKind(algorithm)) + 1));
        // Chain rather than clobber hooks the caller set on options.bo.
        if (std::function<bool()> user_stop = bo_config.shouldStop) {
            bo_config.shouldStop = [user_stop, should_stop] {
                return user_stop() || (should_stop && should_stop());
            };
        } else {
            bo_config.shouldStop = should_stop;
        }
        if (std::function<void(std::size_t, std::size_t)> user_eval =
                bo_config.onEvaluation) {
            bo_config.onEvaluation = [user_eval, on_evaluation](
                                         std::size_t done,
                                         std::size_t total) {
                user_eval(done, total);
                if (on_evaluation)
                    on_evaluation(done, total);
            };
        } else {
            bo_config.onEvaluation = on_evaluation;
        }
        opt::BayesianOptimizer optimizer(space, bo_config);
        out.search = optimizer.optimize(objective);
    } catch (const std::exception &error) {
        out.failed = true;
        out.error = error.what();
    } catch (...) {
        out.failed = true;
        out.error = "unknown exception";
    }
    return out;
}

/** One (spec, family) unit of search work, writing into @p slot. */
struct FamilyWork
{
    const ModelSpec *spec = nullptr;
    const ml::DataSplit *split = nullptr;
    Algorithm algorithm = Algorithm::kDnn;
    FamilySearch *slot = nullptr;
    /** The spec's shared test-partition quantization cache (optional). */
    const runtime::QuantCache *quantCache = nullptr;
};

/**
 * Fan a list of family searches out over the options' pool, wiring
 * cancellation and per-family progress events. CompileSession::
 * searchFamilies and searchSpec() both orchestrate through this one
 * helper, which keeps their behavior — and the determinism guarantee —
 * identical. @p notify must already be serialized (or empty).
 */
void
runFamilySearches(const std::vector<FamilyWork> &work,
                  const backends::Platform &target,
                  const CompileOptions &options,
                  const std::function<void(const ProgressEvent &)> &notify)
{
    CancellationToken token = options.cancelToken;
    auto should_stop = [token] { return token.cancelRequested(); };
    runtime::Executor &pool =
        options.executor != nullptr ? *options.executor
                                    : runtime::Executor::processDefault();
    pool.run(
        options.jobs, work.size(),
        [&](std::size_t index, std::size_t) {
            const FamilyWork &item = work[index];
            auto progress = [&notify, &item](std::size_t done,
                                             std::size_t total) {
                if (!notify)
                    return;
                ProgressEvent event;
                event.stage = Stage::kSearchFamilies;
                event.specName = item.spec->name;
                event.family = algorithmName(item.algorithm);
                event.evalsDone = done;
                event.evalsTotal = total;
                notify(event);
            };
            backends::EvalOptions eval;
            eval.jobs = options.inferJobs;
            eval.quantCache = item.quantCache;
            eval.executor = options.executor;
            *item.slot = searchOneFamily(item.algorithm, *item.spec,
                                         target, *item.split, options,
                                         eval, should_stop, progress);
        });
}

void
logFamilyOutcome(const ModelSpec &spec, const FamilySearch &family)
{
    HOM_LOG(kInfo, "compiler")
        << spec.name << "/" << algorithmName(family.algorithm)
        << (family.search.foundFeasible
                ? common::format(": best %s=%.4f",
                                 metricName(spec.optimizationMetric)
                                     .c_str(),
                                 family.search.bestResult.objective)
                : std::string(": no feasible configuration"));
}

/**
 * Fold one spec's search outcomes into a Status: worker-side exceptions
 * become one INTERNAL status with per-family context, a cancelled search
 * reports CANCELLED, and surviving families get their log line.
 */
Status
foldSearchOutcomes(const ModelSpec &spec,
                   const std::vector<FamilySearch> &searches)
{
    Status internal_error = Status::internal("family search failed");
    bool any_error = false;
    bool any_cancelled = false;
    for (const FamilySearch &family : searches) {
        if (family.failed) {
            any_error = true;
            internal_error.withContext(
                "spec '" + spec.name + "' family " +
                algorithmName(family.algorithm) + ": " +
                (family.error.empty() ? std::string("unknown error")
                                      : family.error));
            continue;
        }
        any_cancelled |= family.search.cancelled;
        logFamilyOutcome(spec, family);
    }
    if (any_error)
        return internal_error;
    if (any_cancelled)
        return Status::cancelled("compilation cancelled during family "
                                 "search");
    return Status::ok();
}

/**
 * Run the emit-stage IR pass pipeline on a winning model and refresh its
 * resource report (passes only ever shrink the artifact, so a feasible
 * model stays feasible). Predictions — and therefore the reported
 * objective — are bit-identical across every registered pass.
 */
Status
runEmitPasses(const CompileOptions &options,
              const backends::Platform &target, GeneratedModel &model)
{
    try {
        ir::PassManager passes;
        if (options.emitPasses.empty()) {
            passes = ir::PassManager::optimizationPipeline();
        } else {
            for (const std::string &name : options.emitPasses)
                passes.append(name);  // throws naming the known passes.
        }
        if (options.passDump)
            passes.setDumpHook(options.passDump);
        if (passes.run(model.model))
            model.report = target.estimate(model.model);
    } catch (const std::exception &error) {
        Status status = Status::invalidArgument(
            "emit passes failed for spec '" + model.specName + "'");
        status.withContext(error.what());
        return status;
    }
    return Status::ok();
}

/** Backend codegen with exceptions converted to an INTERNAL Status. */
Status
emitModelCode(const backends::Platform &target, GeneratedModel &model)
{
    try {
        model.code = target.generateCode(model.model);
    } catch (const std::exception &error) {
        Status status = Status::internal(
            "code generation failed for spec '" + model.specName + "'");
        status.withContext(error.what());
        return status;
    }
    return Status::ok();
}

/** Best feasible family, iterated in candidate order (deterministic). */
Result<GeneratedModel>
pickWinnerFromSearches(const ModelSpec &spec,
                       const std::vector<FamilySearch> &searches)
{
    GeneratedModel winner;
    winner.specName = spec.name;
    bool have_winner = false;

    for (const FamilySearch &family : searches) {
        winner.perAlgorithm[algorithmName(family.algorithm)] =
            family.search;
        if (family.search.foundFeasible && family.hasBest &&
            (!have_winner ||
             family.best.objective > winner.objective)) {
            winner.algorithm = family.algorithm;
            winner.model = family.best.model;
            winner.report = family.best.report;
            winner.objective = family.best.objective;
            winner.searchHistory = family.search;
            have_winner = true;
        }
    }

    if (!have_winner) {
        Status status = Status::infeasible(
            "no feasible model found for spec '" + spec.name + "'");
        for (const FamilySearch &family : searches) {
            status.withContext(
                "family " + algorithmName(family.algorithm) +
                (family.search.history.empty()
                     ? ": no evaluations"
                     : ": no feasible configuration"));
        }
        return status;
    }
    return winner;
}

}  // namespace

// --------------------------------------------------------- CompileSession

CompileSession::CompileSession(PlatformHandle &platform,
                               CompileOptions options)
    : platform_(platform), options_(std::move(options)),
      observerMutex_(std::make_shared<std::mutex>())
{
}

Status
CompileSession::requireStage(Stage expected, const char *stage_name) const
{
    if (completed_ != expected)
        return Status::failedPrecondition(
            std::string(stage_name) + " cannot run now (last completed "
            "stage: " + stageName(completed_) + ")");
    return Status::ok();
}

Status
CompileSession::checkCancelled(const char *stage_name) const
{
    if (options_.cancelToken.cancelRequested())
        return Status::cancelled(std::string("compilation cancelled before ")
                                 + stage_name);
    return Status::ok();
}

void
CompileSession::notify(ProgressEvent event)
{
    if (!options_.observer)
        return;
    std::lock_guard<std::mutex> lock(*observerMutex_);
    options_.observer(event);
}

CompileSession::SpecState *
CompileSession::findSpec(const std::string &spec_name)
{
    for (auto &state : specs_)
        if (state.spec->name == spec_name)
            return &state;
    return nullptr;
}

const CompileSession::SpecState *
CompileSession::findSpec(const std::string &spec_name) const
{
    for (const auto &state : specs_)
        if (state.spec->name == spec_name)
            return &state;
    return nullptr;
}

std::vector<std::string>
CompileSession::specNames() const
{
    std::vector<std::string> names;
    names.reserve(specs_.size());
    for (const auto &state : specs_)
        names.push_back(state.spec->name);
    return names;
}

const std::vector<Algorithm> *
CompileSession::familiesFor(const std::string &spec_name) const
{
    const SpecState *state = findSpec(spec_name);
    return state ? &state->candidates : nullptr;
}

const std::vector<FamilySearch> *
CompileSession::searchesFor(const std::string &spec_name) const
{
    const SpecState *state = findSpec(spec_name);
    return state ? &state->searches : nullptr;
}

Status
CompileSession::loadData()
{
    if (Status status = requireStage(Stage::kIdle, "loadData"); !status)
        return status;
    if (Status status = checkCancelled("loadData"); !status)
        return status;

    Status bad = Status::invalidArgument(
        "scheduled spec lacks a data loader");
    bool any_bad = false;
    for (const ScheduleNode &schedule : platform_.schedules()) {
        for (const ModelSpec *spec : schedule.leafSpecs()) {
            if (!spec) {
                any_bad = true;
                bad.withContext("schedule contains an empty spec node");
                continue;
            }
            if (findSpec(spec->name) != nullptr)
                continue;  // identical spec reused across the DAG.
            if (!spec->dataLoader) {
                any_bad = true;
                bad.withContext("spec '" + spec->name + "'");
                continue;
            }
            SpecState state;
            state.spec = spec;
            specs_.push_back(std::move(state));
        }
    }
    if (any_bad) {
        specs_.clear();
        return bad;
    }

    for (auto &state : specs_) {
        try {
            state.split = state.spec->dataLoader();
        } catch (const std::exception &error) {
            Status status = Status::internal(
                "data loader raised for spec '" + state.spec->name + "'");
            status.withContext(error.what());
            specs_.clear();
            return status;
        }
        ProgressEvent event;
        event.stage = Stage::kLoadData;
        event.specName = state.spec->name;
        event.message = common::format(
            "%zu train / %zu test rows", state.split.train.numSamples(),
            state.split.test.numSamples());
        notify(event);
    }

    completed_ = Stage::kLoadData;
    return Status::ok();
}

Status
CompileSession::selectFamilies()
{
    if (Status status = requireStage(Stage::kLoadData, "selectFamilies");
        !status)
        return status;
    if (Status status = checkCancelled("selectFamilies"); !status)
        return status;

    const backends::Platform &target = platform_.platform();
    Status bad = Status::infeasible("no feasible algorithm family");
    bool any_bad = false;
    for (auto &state : specs_) {
        state.candidates = selectCandidates(
            *state.spec, target, state.split.train.numFeatures(),
            state.split.train.numClasses);
        if (state.candidates.empty()) {
            any_bad = true;
            bad.withContext("spec '" + state.spec->name + "' on " +
                            target.name());
            continue;
        }
        ProgressEvent event;
        event.stage = Stage::kSelectFamilies;
        event.specName = state.spec->name;
        std::string families;
        for (Algorithm algorithm : state.candidates) {
            if (!families.empty())
                families += ", ";
            families += algorithmName(algorithm);
        }
        event.message = families;
        notify(event);
    }
    if (any_bad)
        return bad;

    completed_ = Stage::kSelectFamilies;
    return Status::ok();
}

Status
CompileSession::searchFamilies()
{
    if (Status status =
            requireStage(Stage::kSelectFamilies, "searchFamilies");
        !status)
        return status;
    if (Status status = checkCancelled("searchFamilies"); !status)
        return status;
    // Injected search failure (global injector only): surfaces as a
    // Status like every other stage error, never as a throw — the
    // session API's contract.
    if (runtime::faults::FaultInjector::global().shouldFail(
            runtime::faults::kSiteCompileSearch))
        return Status::internal("fault-injected: compile.search");

    std::vector<FamilyWork> work;
    for (auto &state : specs_) {
        // Value-initialized in place: assign(n, {}) copies from a
        // temporary whose map member g++ 12 flags -Wmaybe-uninitialized.
        state.searches = std::vector<FamilySearch>(state.candidates.size());
        // One quantization cache per spec, shared across its family
        // searches: candidates with the same FixedPointFormat reuse one
        // quantized view of the test partition (thread-safe; see
        // runtime::QuantCache).
        state.quantCache =
            std::make_shared<runtime::QuantCache>(state.split.test.x);
        for (std::size_t f = 0; f < state.candidates.size(); ++f)
            work.push_back({state.spec, &state.split,
                            state.candidates[f], &state.searches[f],
                            state.quantCache.get()});
    }
    runFamilySearches(work, platform_.platform(), options_,
                      [this](const ProgressEvent &event) {
                          notify(event);
                      });

    // Report outcomes sequentially (deterministic log order) and fold
    // worker-side failures / cancellation into a diagnostic Status.
    for (const auto &state : specs_)
        if (Status status = foldSearchOutcomes(*state.spec, state.searches);
            !status)
            return status;
    if (options_.cancelToken.cancelRequested())
        return Status::cancelled("compilation cancelled during family "
                                 "search");

    completed_ = Stage::kSearchFamilies;
    return Status::ok();
}

Status
CompileSession::pickWinner()
{
    if (Status status = requireStage(Stage::kSearchFamilies, "pickWinner");
        !status)
        return status;
    if (Status status = checkCancelled("pickWinner"); !status)
        return status;

    std::map<std::string, backends::ResourceReport> reports;
    for (const auto &state : specs_) {
        Result<GeneratedModel> winner =
            pickWinnerFromSearches(*state.spec, state.searches);
        if (!winner.isOk()) {
            report_ = CompileReport{};
            return winner.status();
        }
        reports[winner->specName] = winner->report;
        ProgressEvent event;
        event.stage = Stage::kPickWinner;
        event.specName = winner->specName;
        event.message = algorithmName(winner->algorithm) + " " +
                        common::format("%s=%.4f",
                                       metricName(state.spec
                                                      ->optimizationMetric)
                                           .c_str(),
                                       winner->objective);
        notify(event);
        report_.models.push_back(std::move(winner.value()));
    }

    for (const ScheduleNode &schedule : platform_.schedules())
        report_.scheduleResources.push_back(
            composeResources(schedule, reports));

    completed_ = Stage::kPickWinner;
    return Status::ok();
}

Status
CompileSession::emit()
{
    if (Status status = requireStage(Stage::kPickWinner, "emit"); !status)
        return status;
    if (Status status = checkCancelled("emit"); !status)
        return status;

    const backends::Platform &target = platform_.platform();
    for (GeneratedModel &model : report_.models) {
        if (Status status = runEmitPasses(options_, target, model); !status)
            return status;
        if (Status status = emitModelCode(target, model); !status)
            return status;
        ProgressEvent event;
        event.stage = Stage::kEmit;
        event.specName = model.specName;
        event.message = common::format("%zu passes, %zu bytes",
                                       model.model.passes.size(),
                                       model.code.size());
        notify(event);
    }

    completed_ = Stage::kEmit;
    return Status::ok();
}

Status
CompileSession::run()
{
    if (completed_ == Stage::kIdle)
        if (Status status = loadData(); !status)
            return status;
    if (completed_ == Stage::kLoadData)
        if (Status status = selectFamilies(); !status)
            return status;
    if (completed_ == Stage::kSelectFamilies)
        if (Status status = searchFamilies(); !status)
            return status;
    if (completed_ == Stage::kSearchFamilies)
        if (Status status = pickWinner(); !status)
            return status;
    if (completed_ == Stage::kPickWinner)
        if (Status status = emit(); !status)
            return status;
    return Status::ok();
}

// --------------------------------------------------------------- Compiler

Compiler::Compiler(CompileOptions options) : options_(std::move(options))
{
}

CompileSession
Compiler::openSession(PlatformHandle &platform) const
{
    return CompileSession(platform, options_);
}

Result<CompileReport>
Compiler::compile(PlatformHandle &platform) const
{
    CompileSession session(platform, options_);
    if (Status status = session.run(); !status)
        return status;
    return session.takeReport();
}

// ------------------------------------------------------------- searchSpec

Result<GeneratedModel>
searchSpec(const ModelSpec &spec, PlatformHandle &platform,
           const CompileOptions &options, const ml::DataSplit &split)
{
    const backends::Platform &target = platform.platform();
    std::vector<Algorithm> candidates = selectCandidates(
        spec, target, split.train.numFeatures(), split.train.numClasses);
    if (candidates.empty())
        return Status::infeasible("no feasible algorithm family for spec '" +
                                  spec.name + "' on " + target.name());

    std::mutex observer_mutex;
    std::function<void(const ProgressEvent &)> notify;
    if (options.observer)
        notify = [&options, &observer_mutex](const ProgressEvent &event) {
            std::lock_guard<std::mutex> lock(observer_mutex);
            options.observer(event);
        };

    runtime::QuantCache quant_cache(split.test.x);
    std::vector<FamilySearch> searches(candidates.size());
    std::vector<FamilyWork> work;
    work.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        work.push_back({&spec, &split, candidates[i], &searches[i],
                        &quant_cache});
    runFamilySearches(work, target, options, notify);

    if (Status status = foldSearchOutcomes(spec, searches); !status)
        return status;
    if (options.cancelToken.cancelRequested())
        return Status::cancelled(
            "compilation cancelled during family search");

    Result<GeneratedModel> winner = pickWinnerFromSearches(spec, searches);
    if (winner.isOk()) {
        // Same emit contract as CompileSession::emit(): pass pipeline,
        // refreshed report, then codegen.
        if (Status status = runEmitPasses(options, target, winner.value());
            !status)
            return status;
        if (Status status = emitModelCode(target, winner.value());
            !status)
            return status;
    }
    return winner;
}

}  // namespace homunculus::core
