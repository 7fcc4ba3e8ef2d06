/**
 * @file
 * Integration tests: the full Compiler::compile() pipeline on all three
 * backends.
 *
 * Budgets are kept small so the suite stays fast; the benches exercise
 * the paper-scale budgets.
 */
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "ml/metrics.hpp"
#include "data/anomaly_generator.hpp"
#include "data/iot_traffic_generator.hpp"

namespace hcore = homunculus::core;
namespace hd = homunculus::data;

namespace {

hcore::ModelSpec
adSpec(std::size_t samples = 1200)
{
    hcore::ModelSpec spec;
    spec.name = "ad";
    spec.optimizationMetric = hcore::Metric::kF1;
    spec.algorithms = {hcore::Algorithm::kDnn};
    spec.dataLoader = [samples] {
        hd::AnomalyConfig config;
        config.numSamples = samples;
        return hd::generateAnomalySplit(config);
    };
    return spec;
}

hcore::CompileOptions
tinyBudget()
{
    hcore::CompileOptions options;
    options.bo.numInitSamples = 3;
    options.bo.numIterations = 4;
    return options;
}

}  // namespace

TEST(Generate, EndToEndOnTaurusProducesFeasibleDnn)
{
    auto platform = hcore::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16, {}});
    platform.schedule(adSpec());

    auto result = hcore::Compiler(tinyBudget()).compile(platform);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const auto *model = result->find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->algorithm, hcore::Algorithm::kDnn);
    EXPECT_TRUE(model->report.feasible);
    EXPECT_GT(model->objective, 0.5);
    EXPECT_FALSE(model->code.empty());
    EXPECT_NE(model->code.find("@spatial"), std::string::npos);
}

TEST(Generate, EndToEndOnMatPrunesDnnAndStillSucceeds)
{
    auto platform = hcore::Platforms::tofino();
    hcore::ModelSpec spec;
    spec.name = "tc";
    spec.optimizationMetric = hcore::Metric::kF1;
    // Empty pool: let candidate selection do the pruning.
    spec.dataLoader = [] {
        hd::IotTrafficConfig config;
        config.numSamples = 1000;
        return hd::generateIotTrafficSplit(config);
    };
    platform.schedule(spec);

    auto result = hcore::Compiler(tinyBudget()).compile(platform);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const auto *model = result->find("tc");
    ASSERT_NE(model, nullptr);
    EXPECT_NE(model->algorithm, hcore::Algorithm::kDnn);
    EXPECT_TRUE(model->report.feasible);
    EXPECT_GT(model->report.matTables, 0u);
    EXPECT_NE(model->code.find("control MlIngress"), std::string::npos);
}

TEST(Generate, EndToEndOnFpga)
{
    auto platform = hcore::Platforms::fpga();
    platform.schedule(adSpec(800));
    auto result = hcore::Compiler(tinyBudget()).compile(platform);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const auto *model = result->find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_GT(model->report.powerWatts, 15.131);
    EXPECT_GT(model->report.lutPercent, 5.36);
}

TEST(Generate, ScheduleResourcesAccountForAllLeaves)
{
    auto platform = hcore::Platforms::taurus();
    auto a = adSpec(600);
    a.name = "ad_a";
    auto b = adSpec(600);
    b.name = "ad_b";
    platform.schedule(a > b);

    auto result = hcore::Compiler(tinyBudget()).compile(platform);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_EQ(result->models.size(), 2u);
    ASSERT_EQ(result->scheduleResources.size(), 1u);
    const auto &total = result->scheduleResources[0];
    EXPECT_EQ(total.computeUnits,
              result->models[0].report.computeUnits +
                  result->models[1].report.computeUnits);
}

TEST(Generate, SearchHistoryIsUsableForRegretPlots)
{
    auto platform = hcore::Platforms::taurus();
    platform.schedule(adSpec(800));
    auto options = tinyBudget();
    auto result = hcore::Compiler(options).compile(platform);
    const auto *model = result->find("ad");
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->searchHistory.history.size(),
              options.bo.numInitSamples + options.bo.numIterations);
    auto series = model->searchHistory.bestSoFarSeries();
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GE(series[i], series[i - 1] - 1e-12);
}

TEST(Generate, MissingDataLoaderThrows)
{
    auto platform = hcore::Platforms::taurus();
    hcore::ModelSpec broken;
    broken.name = "no_loader";
    platform.schedule(broken);
    auto result = hcore::Compiler(tinyBudget()).compile(platform);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), hcore::StatusCode::kInvalidArgument);
    EXPECT_THROW(result.value(), std::runtime_error);
}

TEST(Generate, ObjectiveComesFromQuantizedBackendEvaluation)
{
    // The reported objective must equal re-running the winner's IR
    // through the platform simulator — not the float model.
    auto platform = hcore::Platforms::taurus();
    auto spec = adSpec(1000);
    platform.schedule(spec);
    auto result = hcore::Compiler(tinyBudget()).compile(platform);
    const auto *model = result->find("ad");
    ASSERT_NE(model, nullptr);

    auto split = spec.dataLoader();
    auto predictions =
        platform.platform().evaluate(model->model, split.test.x);
    double f1 = homunculus::ml::f1ForTask(split.test.y, predictions,
                                          split.test.numClasses);
    EXPECT_NEAR(f1, model->objective, 1e-12);
}
