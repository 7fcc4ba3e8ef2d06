#include "ml/dataset.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace homunculus::ml {

std::size_t
Dataset::countLabel(int label) const
{
    std::size_t count = 0;
    for (int value : y)
        if (value == label)
            ++count;
    return count;
}

std::vector<std::size_t>
Dataset::classCounts() const
{
    std::vector<std::size_t> counts(static_cast<std::size_t>(numClasses), 0);
    for (int value : y)
        if (value >= 0 && value < numClasses)
            ++counts[static_cast<std::size_t>(value)];
    return counts;
}

Dataset
Dataset::selectSamples(const std::vector<std::size_t> &indices) const
{
    Dataset out;
    out.x = x.selectRows(indices);
    out.y.reserve(indices.size());
    for (std::size_t idx : indices)
        out.y.push_back(y.at(idx));
    out.numClasses = numClasses;
    out.featureNames = featureNames;
    return out;
}

Dataset
Dataset::selectFeatures(const std::vector<std::size_t> &indices) const
{
    Dataset out;
    out.x = x.selectCols(indices);
    out.y = y;
    out.numClasses = numClasses;
    if (!featureNames.empty()) {
        out.featureNames.reserve(indices.size());
        for (std::size_t idx : indices)
            out.featureNames.push_back(featureNames.at(idx));
    }
    return out;
}

Dataset
Dataset::concat(const Dataset &other) const
{
    if (numSamples() == 0)
        return other;
    if (other.numSamples() == 0)
        return *this;
    if (numFeatures() != other.numFeatures())
        throw std::runtime_error("Dataset::concat: feature width mismatch");
    Dataset out;
    out.x = x.vstack(other.x);
    out.y = y;
    out.y.insert(out.y.end(), other.y.begin(), other.y.end());
    out.numClasses = std::max(numClasses, other.numClasses);
    out.featureNames = featureNames;
    return out;
}

void
Dataset::validate() const
{
    if (x.rows() != y.size())
        throw std::runtime_error("Dataset: row/label count mismatch");
    if (!featureNames.empty() && featureNames.size() != x.cols())
        throw std::runtime_error("Dataset: feature-name width mismatch");
    for (int label : y) {
        if (label < 0 || label >= numClasses)
            throw std::runtime_error("Dataset: label outside [0, numClasses)");
    }
}

DataSplit
trainTestSplit(const Dataset &data, double test_fraction, std::uint64_t seed)
{
    if (test_fraction <= 0.0 || test_fraction >= 1.0)
        throw std::runtime_error("trainTestSplit: fraction must be in (0,1)");
    common::Rng rng(seed);
    std::vector<std::size_t> perm = rng.permutation(data.numSamples());
    auto test_count = static_cast<std::size_t>(
        test_fraction * static_cast<double>(data.numSamples()));
    std::vector<std::size_t> test_idx(perm.begin(),
                                      perm.begin() +
                                          static_cast<std::ptrdiff_t>(test_count));
    std::vector<std::size_t> train_idx(
        perm.begin() + static_cast<std::ptrdiff_t>(test_count), perm.end());
    DataSplit split;
    split.train = data.selectSamples(train_idx);
    split.test = data.selectSamples(test_idx);
    return split;
}

DataSplit
stratifiedSplit(const Dataset &data, double test_fraction, std::uint64_t seed)
{
    if (test_fraction <= 0.0 || test_fraction >= 1.0)
        throw std::runtime_error("stratifiedSplit: fraction must be in (0,1)");
    common::Rng rng(seed);
    std::vector<std::vector<std::size_t>> by_class(
        static_cast<std::size_t>(std::max(1, data.numClasses)));
    for (std::size_t i = 0; i < data.y.size(); ++i)
        by_class[static_cast<std::size_t>(data.y[i])].push_back(i);

    std::vector<std::size_t> train_idx, test_idx;
    for (auto &bucket : by_class) {
        rng.shuffle(bucket);
        auto test_count = static_cast<std::size_t>(
            test_fraction * static_cast<double>(bucket.size()));
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            if (i < test_count)
                test_idx.push_back(bucket[i]);
            else
                train_idx.push_back(bucket[i]);
        }
    }
    rng.shuffle(train_idx);
    rng.shuffle(test_idx);
    DataSplit split;
    split.train = data.selectSamples(train_idx);
    split.test = data.selectSamples(test_idx);
    return split;
}

}  // namespace homunculus::ml
