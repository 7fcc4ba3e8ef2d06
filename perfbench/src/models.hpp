/**
 * @file
 * Compiling the traffic-classification (TC) models every workload uses,
 * through the staged CompileSession API, with each stage and every
 * candidate evaluation timed from outside.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "measure.hpp"

namespace perfbench {

/** Where one compile spent its time. */
struct CompileTiming
{
    double loadDataS = 0.0;
    double selectFamiliesS = 0.0;
    double searchFamiliesS = 0.0;
    double pickWinnerS = 0.0;
    double emitS = 0.0;
    /** Wall time of each candidate evaluation (bo.onEvaluation hook). */
    std::vector<double> evalMs;
    /** Search start -> a family's last evaluation, by family name. */
    std::map<std::string, double> familyS;
    std::size_t evals = 0;     ///< BO evaluations over every family.
    std::size_t feasible = 0;  ///< of which the backend accepted.

    /** The session's set-up stages: loadData + selectFamilies. */
    double setupS() const { return loadDataS + selectFamiliesS; }
    /** searchFamilies through emit. */
    double compileS() const { return searchFamiliesS + pickWinnerS + emitS; }
};

/** The winner of one compile. */
struct CompiledModel
{
    bool ok = false;
    std::string error;       ///< why !ok.
    std::string algorithm;   ///< winning family.
    double objective = 0.0;  ///< F1 on the TC test partition.
    std::size_t codeBytes = 0;
    homunculus::ir::ModelIr model;
    CompileTiming timing;
};

/**
 * Compile the TC app for the paper's Taurus target at the benchmark
 * seed (bench::kBenchSeed) over @p families, with the session's default
 * budget (5 init + 15 iterations per family), @p jobs family searches in
 * parallel and inline candidate scoring.
 */
CompiledModel compileTc(const std::vector<homunculus::core::Algorithm> &families,
                        std::size_t jobs);

/** One timing of two compiles run back to back (stages add up,
 *  evaluations and families pool). */
CompileTiming combine(const CompileTiming &a, const CompileTiming &b);

/** Fill the compile.* and bo.* per-layer metrics from @p timings, one
 *  entry per compile: stage times and family times as medians over the
 *  compiles, evaluation latencies pooled. */
void reportCompileLayers(const std::vector<CompileTiming> &timings,
                         MetricSet &metrics);

}  // namespace perfbench
