#include "core/fusion.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"

namespace homunculus::core {

FeatureOverlap
assessFeatureOverlap(const ml::Dataset &a, const ml::Dataset &b)
{
    FeatureOverlap overlap;
    std::set<std::string> names_a(a.featureNames.begin(),
                                  a.featureNames.end());
    std::set<std::string> names_b(b.featureNames.begin(),
                                  b.featureNames.end());
    std::set<std::string> unioned = names_a;
    unioned.insert(names_b.begin(), names_b.end());
    for (const auto &name : names_a)
        if (names_b.count(name))
            overlap.shared.push_back(name);
    overlap.fraction =
        unioned.empty()
            ? 0.0
            : static_cast<double>(overlap.shared.size()) /
                  static_cast<double>(unioned.size());
    return overlap;
}

bool
shouldFuse(const ml::Dataset &a, const ml::Dataset &b)
{
    return assessFeatureOverlap(a, b).fraction >= kFusionOverlapThreshold;
}

ml::DataSplit
fuseSplits(const ml::DataSplit &a, const ml::DataSplit &b)
{
    // One artifact records one input transform, so both halves must
    // have been standardized identically (or both left raw).
    if (a.scalerMeans != b.scalerMeans || a.scalerStds != b.scalerStds)
        throw std::invalid_argument(
            "fuseSplits: splits carry different scaler moments");
    ml::DataSplit fused;
    fused.train = a.train.concat(b.train);
    fused.test = a.test.concat(b.test);
    fused.scalerMeans = a.scalerMeans;
    fused.scalerStds = a.scalerStds;
    return fused;
}

std::pair<ml::DataSplit, ml::DataSplit>
halveSplit(const ml::DataSplit &full, std::uint64_t seed)
{
    common::Rng rng(seed);

    auto halve = [&rng](const ml::Dataset &data) {
        std::vector<std::size_t> perm = rng.permutation(data.numSamples());
        std::size_t mid = perm.size() / 2;
        std::vector<std::size_t> first(perm.begin(),
                                       perm.begin() +
                                           static_cast<std::ptrdiff_t>(mid));
        std::vector<std::size_t> second(
            perm.begin() + static_cast<std::ptrdiff_t>(mid), perm.end());
        return std::make_pair(data.selectSamples(first),
                              data.selectSamples(second));
    };

    auto [train_a, train_b] = halve(full.train);
    auto [test_a, test_b] = halve(full.test);

    // Both halves keep the full split's scaler moments: their rows are
    // still in the space that transform produced.
    ml::DataSplit part1;
    part1.train = std::move(train_a);
    part1.test = std::move(test_a);
    part1.scalerMeans = full.scalerMeans;
    part1.scalerStds = full.scalerStds;
    ml::DataSplit part2;
    part2.train = std::move(train_b);
    part2.test = std::move(test_b);
    part2.scalerMeans = full.scalerMeans;
    part2.scalerStds = full.scalerStds;
    return {part1, part2};
}

}  // namespace homunculus::core
