/**
 * @file
 * Tests for the Alchemy DSL constructs: schedule composition, platform
 * handles, design-space creation, candidate selection, fusion.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/design_space.hpp"
#include "core/fusion.hpp"
#include "core/schedule.hpp"
#include "data/anomaly_generator.hpp"
#include "data/iot_traffic_generator.hpp"

namespace hcore = homunculus::core;
namespace hb = homunculus::backends;
namespace ml = homunculus::ml;

namespace {

hcore::ModelSpec
spec(const std::string &name)
{
    hcore::ModelSpec s;
    s.name = name;
    return s;
}

}  // namespace

TEST(Schedule, OperatorsBuildExpectedShapes)
{
    auto a = spec("a"), b = spec("b"), c = spec("c"), d = spec("d");

    auto seq = a > b > c > d;
    EXPECT_EQ(seq.kind, hcore::ScheduleNode::Kind::kSequential);
    EXPECT_EQ(seq.modelCount(), 4u);
    EXPECT_EQ(seq.children.size(), 4u);  // flattened chain.

    auto par = a | b | c | d;
    EXPECT_EQ(par.kind, hcore::ScheduleNode::Kind::kParallel);
    EXPECT_EQ(par.children.size(), 4u);

    auto diamond = hcore::leaf(a) > (b | c) > hcore::leaf(d);
    EXPECT_EQ(diamond.modelCount(), 4u);
    EXPECT_EQ(diamond.kind, hcore::ScheduleNode::Kind::kSequential);
}

TEST(Schedule, NotationMatchesPaperSyntax)
{
    auto a = spec("a"), b = spec("b"), c = spec("c");
    auto node = hcore::leaf(a) > (b | c);
    EXPECT_EQ(node.notation(), "(a > (b | c))");
}

TEST(Schedule, LeafSpecsInOrder)
{
    auto a = spec("a"), b = spec("b"), c = spec("c");
    auto node = (a | b) > hcore::leaf(c);
    auto leaves = node.leafSpecs();
    ASSERT_EQ(leaves.size(), 3u);
    EXPECT_EQ(leaves[0]->name, "a");
    EXPECT_EQ(leaves[2]->name, "c");
}

TEST(Schedule, ComposeResourcesSumsAndStrategiesAgree)
{
    auto a = spec("a"), b = spec("b"), c = spec("c"), d = spec("d");
    std::map<std::string, hb::ResourceReport> reports;
    for (const auto &name : {"a", "b", "c", "d"}) {
        hb::ResourceReport report;
        report.computeUnits = 6;
        report.memoryUnits = 6;
        report.latencyNs = 40.0;
        report.throughputGpps = 1.0;
        reports[name] = report;
    }

    auto seq = hcore::composeResources(a > b > c > d, reports);
    auto par = hcore::composeResources(a | b | c | d, reports);
    auto mix =
        hcore::composeResources(hcore::leaf(a) > (b | c) > hcore::leaf(d),
                                reports);

    // Table 3's claim: resource totals are strategy-independent.
    EXPECT_EQ(seq.computeUnits, 24u);
    EXPECT_EQ(par.computeUnits, 24u);
    EXPECT_EQ(mix.computeUnits, 24u);
    EXPECT_EQ(seq.memoryUnits, par.memoryUnits);
    EXPECT_EQ(par.memoryUnits, mix.memoryUnits);

    // Latency composes additively / max-wise.
    EXPECT_DOUBLE_EQ(seq.latencyNs, 160.0);
    EXPECT_DOUBLE_EQ(par.latencyNs, 40.0);
    EXPECT_DOUBLE_EQ(mix.latencyNs, 120.0);

    // Throughput is min across members (paper §3.2.1).
    EXPECT_DOUBLE_EQ(seq.throughputGpps, 1.0);
}

TEST(Schedule, ComposeMissingReportThrows)
{
    auto a = spec("a"), b = spec("b");
    std::map<std::string, hb::ResourceReport> reports;
    reports["a"] = {};
    EXPECT_THROW(hcore::composeResources(a > b, reports),
                 std::runtime_error);
}

TEST(Alchemy, IoMapVariants)
{
    auto identity = hcore::IoMap::identity();
    std::vector<double> features = {1.0, 2.0};
    EXPECT_EQ(identity.mapper(features, 1), features);

    auto append = hcore::IoMap::appendLabel();
    auto mapped = append.mapper(features, 3);
    ASSERT_EQ(mapped.size(), 3u);
    EXPECT_DOUBLE_EQ(mapped[2], 3.0);
}

TEST(Alchemy, PlatformHandleConstrainReshapesTaurus)
{
    auto handle = hcore::Platforms::taurus();
    handle.constrain({2.0, 300.0}, {8, 8, {}});
    const auto *taurus = dynamic_cast<const hb::TaurusPlatform *>(
        &handle.platform());
    ASSERT_NE(taurus, nullptr);
    EXPECT_EQ(taurus->config().gridRows, 8u);
    EXPECT_DOUBLE_EQ(handle.platform().constraints().minThroughputGpps, 2.0);
    EXPECT_DOUBLE_EQ(handle.platform().constraints().maxLatencyNs, 300.0);
}

TEST(Alchemy, PlatformHandleConstrainReshapesMat)
{
    auto handle = hcore::Platforms::tofino();
    handle.constrain({1.0, 600.0}, {{}, {}, 5});
    const auto *mat =
        dynamic_cast<const hb::MatPlatform *>(&handle.platform());
    ASSERT_NE(mat, nullptr);
    EXPECT_EQ(mat->config().numTables, 5u);
}

TEST(Alchemy, ConstrainCapsMatEntriesBudget)
{
    auto handle = hcore::Platforms::tofino();
    hcore::ResourceBudget budget;
    budget.matTables = 6;
    budget.matEntriesPerTable = 128;
    handle.constrain({1.0, 600.0}, budget);
    const auto *mat =
        dynamic_cast<const hb::MatPlatform *>(&handle.platform());
    ASSERT_NE(mat, nullptr);
    EXPECT_EQ(mat->config().numTables, 6u);
    EXPECT_EQ(mat->config().entriesPerTable, 128u);
    EXPECT_DOUBLE_EQ(handle.platform().constraints().maxLatencyNs, 600.0);
}

TEST(Alchemy, ConstrainCapsFpgaBudgets)
{
    // Regression: budgets used to reshape only Taurus grids and MAT
    // tables; FPGA caps were silently dropped.
    auto handle = hcore::Platforms::fpga();
    hcore::ResourceBudget budget;
    budget.fpgaLutPercent = 6.0;
    budget.fpgaFfPercent = 8.0;
    budget.fpgaPowerWatts = 40.0;
    handle.constrain(handle.platform().constraints(), budget);

    const auto *fpga =
        dynamic_cast<const hb::FpgaPlatform *>(&handle.platform());
    ASSERT_NE(fpga, nullptr);
    EXPECT_DOUBLE_EQ(fpga->config().lutBudgetPercent, 6.0);
    EXPECT_DOUBLE_EQ(fpga->config().ffBudgetPercent, 8.0);
    EXPECT_DOUBLE_EQ(fpga->config().powerBudgetWatts, 40.0);

    // A model whose LUT usage exceeds the 6% cap must now be rejected
    // even though it fits the physical device with room to spare.
    homunculus::ir::ModelIr ir;
    ir.kind = homunculus::ir::ModelKind::kMlp;
    ir.inputDim = 20;
    homunculus::ir::QuantizedLayer layer;
    layer.inputDim = 20;
    layer.outputDim = 20;
    layer.weights.assign(400, 1);
    layer.biases.assign(20, 1);
    ir.layers.push_back(layer);

    auto capped = fpga->estimate(ir);
    EXPECT_FALSE(capped.feasible);
    EXPECT_NE(capped.infeasibleReason.find("budget"), std::string::npos);

    auto uncapped = hcore::Platforms::fpga();
    auto report = uncapped.platform().estimate(ir);
    EXPECT_TRUE(report.feasible);
}

TEST(Alchemy, ConstrainIgnoresIrrelevantBudgetFields)
{
    // A MAT/FPGA budget on a Taurus handle leaves the platform instance
    // untouched (no rebuild) while still applying the perf envelope.
    auto handle = hcore::Platforms::taurus();
    const auto *before = &handle.platform();
    hcore::ResourceBudget budget;
    budget.matTables = 4;
    budget.fpgaLutPercent = 10.0;
    handle.constrain({2.0, 250.0}, budget);
    EXPECT_EQ(&handle.platform(), before);
    EXPECT_DOUBLE_EQ(handle.platform().constraints().minThroughputGpps,
                     2.0);
}

TEST(Alchemy, NamesRoundTrip)
{
    for (auto algorithm : hcore::allAlgorithms())
        EXPECT_FALSE(hcore::algorithmName(algorithm).empty());
    EXPECT_EQ(hcore::metricName(hcore::Metric::kVMeasure), "v_measure");
}

TEST(DesignSpace, DnnSpaceScalesWithSpecBounds)
{
    auto handle = hcore::Platforms::taurus();
    hcore::ModelSpec s = spec("m");
    s.maxHiddenLayers = 3;
    s.maxNeuronsPerLayer = 16;
    auto space = hcore::buildDesignSpace(hcore::Algorithm::kDnn, s,
                                         handle.platform());
    // num_layers + 3 widths + lr + batch + activation.
    EXPECT_EQ(space.size(), 1u + 3u + 3u);
    EXPECT_NE(space.find("width_2"), nullptr);
    EXPECT_EQ(space.find("width_3"), nullptr);
}

TEST(DesignSpace, KMeansClusterBoundCappedByMatBudget)
{
    hb::MatConfig config;
    config.numTables = 3;
    auto handle = hcore::Platforms::tofino(config);
    auto space = hcore::buildDesignSpace(hcore::Algorithm::kKMeans,
                                         spec("m"), handle.platform());
    const auto *param = space.find("num_clusters");
    ASSERT_NE(param, nullptr);
    const auto &domain = std::get<homunculus::opt::IntDomain>(param->domain);
    EXPECT_EQ(domain.hi, 3);
}

TEST(Candidates, MatTargetPrunesDnn)
{
    auto handle = hcore::Platforms::tofino();
    auto candidates =
        hcore::selectCandidates(spec("m"), handle.platform(), 7, 2);
    for (auto algorithm : candidates)
        EXPECT_NE(algorithm, hcore::Algorithm::kDnn);
    EXPECT_FALSE(candidates.empty());
}

TEST(Candidates, TaurusKeepsEveryFamily)
{
    auto handle = hcore::Platforms::taurus();
    auto candidates =
        hcore::selectCandidates(spec("m"), handle.platform(), 7, 2);
    EXPECT_EQ(candidates.size(), hcore::allAlgorithms().size());
}

TEST(Candidates, SpecPoolIsRespected)
{
    auto handle = hcore::Platforms::taurus();
    hcore::ModelSpec s = spec("m");
    s.algorithms = {hcore::Algorithm::kSvm};
    auto candidates =
        hcore::selectCandidates(s, handle.platform(), 7, 2);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], hcore::Algorithm::kSvm);
}

TEST(Fusion, OverlapAssessment)
{
    ml::Dataset a, b;
    a.featureNames = {"x", "y", "z"};
    b.featureNames = {"y", "z", "w"};
    auto overlap = hcore::assessFeatureOverlap(a, b);
    EXPECT_EQ(overlap.shared.size(), 2u);
    EXPECT_NEAR(overlap.fraction, 0.5, 1e-12);
    EXPECT_FALSE(hcore::shouldFuse(a, b));

    b.featureNames = {"x", "y", "z"};
    EXPECT_TRUE(hcore::shouldFuse(a, b));
}

TEST(Fusion, HalveAndFuseRoundTrip)
{
    homunculus::data::AnomalyConfig config;
    config.numSamples = 400;
    auto full = homunculus::data::generateAnomalySplit(config);
    auto [part1, part2] = hcore::halveSplit(full, 5);
    EXPECT_NEAR(static_cast<double>(part1.train.numSamples()),
                static_cast<double>(part2.train.numSamples()), 1.0);

    auto fused = hcore::fuseSplits(part1, part2);
    EXPECT_EQ(fused.train.numSamples(), full.train.numSamples());
    EXPECT_EQ(fused.test.numSamples(), full.test.numSamples());
}

TEST(Fusion, HalveAndFuseKeepScalerMoments)
{
    homunculus::data::IotTrafficConfig config;
    config.numSamples = 400;
    auto full = homunculus::data::generateIotTrafficSplit(config);
    ASSERT_FALSE(full.scalerMeans.empty());
    ASSERT_EQ(full.scalerStds.size(), full.scalerMeans.size());

    // Both halves stay in the full split's standardized space.
    auto [part1, part2] = hcore::halveSplit(full, 5);
    EXPECT_EQ(part1.scalerMeans, full.scalerMeans);
    EXPECT_EQ(part1.scalerStds, full.scalerStds);
    EXPECT_EQ(part2.scalerMeans, full.scalerMeans);
    EXPECT_EQ(part2.scalerStds, full.scalerStds);

    // Identical moments fuse through.
    auto fused = hcore::fuseSplits(part1, part2);
    EXPECT_EQ(fused.scalerMeans, full.scalerMeans);
    EXPECT_EQ(fused.scalerStds, full.scalerStds);

    // One artifact cannot record two transforms.
    auto shifted = part2;
    shifted.scalerMeans[0] += 1.0;
    EXPECT_THROW(hcore::fuseSplits(part1, shifted), std::invalid_argument);
    auto raw = part2;
    raw.scalerMeans.clear();
    raw.scalerStds.clear();
    EXPECT_THROW(hcore::fuseSplits(part1, raw), std::invalid_argument);
}
