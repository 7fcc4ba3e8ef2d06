#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hpp"

namespace homunculus::ml {

namespace {

/** Gini impurity of a label subset from its per-class counts and its
 *  size @p n (0 for an empty subset). */
double
giniImpurity(const std::vector<double> &counts, double n)
{
    if (n == 0.0)
        return 0.0;
    double impurity = 1.0;
    for (double c : counts) {
        double p = c / n;
        impurity -= p * p;
    }
    return impurity;
}

/** Mean of a regression target subset. */
double
subsetMean(const std::vector<double> &y,
           const std::vector<std::size_t> &indices)
{
    if (indices.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t idx : indices)
        total += y[idx];
    return total / static_cast<double>(indices.size());
}

/** Sum of squared deviations of a regression target subset. */
double
subsetSse(const std::vector<double> &y,
          const std::vector<std::size_t> &indices)
{
    double m = subsetMean(y, indices);
    double total = 0.0;
    for (std::size_t idx : indices) {
        double d = y[idx] - m;
        total += d * d;
    }
    return total;
}

/** Candidate feature subset for a split (all when max_features == 0). */
std::vector<std::size_t>
candidateFeatures(std::size_t d, std::size_t max_features, common::Rng &rng)
{
    std::vector<std::size_t> all(d);
    std::iota(all.begin(), all.end(), std::size_t{0});
    if (max_features == 0 || max_features >= d)
        return all;
    rng.shuffle(all);
    all.resize(max_features);
    return all;
}

/** Midpoint thresholds between consecutive distinct sorted values. */
std::vector<double>
candidateThresholds(const math::Matrix &x,
                    const std::vector<std::size_t> &indices,
                    std::size_t feature)
{
    std::vector<double> values;
    values.reserve(indices.size());
    for (std::size_t idx : indices)
        values.push_back(x(idx, feature));
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<double> thresholds;
    for (std::size_t i = 0; i + 1 < values.size(); ++i)
        thresholds.push_back(0.5 * (values[i] + values[i + 1]));
    // Subsample very dense threshold sets to bound split cost.
    constexpr std::size_t kMaxThresholds = 64;
    if (thresholds.size() > kMaxThresholds) {
        std::vector<double> sampled;
        double stride = static_cast<double>(thresholds.size()) /
                        static_cast<double>(kMaxThresholds);
        for (std::size_t i = 0; i < kMaxThresholds; ++i)
            sampled.push_back(
                thresholds[static_cast<std::size_t>(i * stride)]);
        return sampled;
    }
    return thresholds;
}

std::size_t
nodeDepth(const TreeNode *node)
{
    if (!node || node->isLeaf)
        return 0;
    return 1 + std::max(nodeDepth(node->left.get()),
                        nodeDepth(node->right.get()));
}

std::size_t
countNodes(const TreeNode *node)
{
    if (!node)
        return 0;
    return 1 + countNodes(node->left.get()) + countNodes(node->right.get());
}

std::size_t
countLeaves(const TreeNode *node)
{
    if (!node)
        return 0;
    if (node->isLeaf)
        return 1;
    return countLeaves(node->left.get()) + countLeaves(node->right.get());
}

const TreeNode *
descend(const TreeNode *node, const std::vector<double> &point)
{
    while (node && !node->isLeaf) {
        node = point[node->feature] <= node->threshold ? node->left.get()
                                                       : node->right.get();
    }
    return node;
}

}  // namespace

DecisionTreeClassifier::DecisionTreeClassifier(TreeConfig config)
    : config_(config)
{
}

std::unique_ptr<TreeNode>
DecisionTreeClassifier::build(const math::Matrix &x,
                              const std::vector<int> &y,
                              const std::vector<std::size_t> &indices,
                              std::size_t depth, common::Rng &rng) const
{
    auto node = std::make_unique<TreeNode>();

    // Leaf payload: majority class + distribution.
    std::vector<double> counts(static_cast<std::size_t>(numClasses_), 0.0);
    for (std::size_t idx : indices)
        counts[static_cast<std::size_t>(y[idx])] += 1.0;
    std::size_t best_class = 0;
    for (std::size_t c = 1; c < counts.size(); ++c)
        if (counts[c] > counts[best_class])
            best_class = c;
    node->classLabel = static_cast<int>(best_class);
    node->classProbs = counts;
    double n = static_cast<double>(std::max<std::size_t>(1, indices.size()));
    for (double &p : node->classProbs)
        p /= n;

    double impurity =
        giniImpurity(counts, static_cast<double>(indices.size()));
    if (depth >= config_.maxDepth || indices.size() < config_.minSamplesSplit ||
        impurity <= 1e-12) {
        return node;
    }

    // Score each candidate from per-class counts of its left side (the
    // right side is the node's counts minus those); the counts are
    // exact integers, so the Gini values match counting each side's
    // index list. Only the winner is partitioned.
    double best_gain = 1e-9;
    bool found = false;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<double> left_counts(counts.size());
    std::vector<double> right_counts(counts.size());

    for (std::size_t feature :
         candidateFeatures(x.cols(), config_.maxFeatures, rng)) {
        for (double threshold : candidateThresholds(x, indices, feature)) {
            std::fill(left_counts.begin(), left_counts.end(), 0.0);
            std::size_t left_size = 0;
            for (std::size_t idx : indices) {
                if (x(idx, feature) <= threshold) {
                    left_counts[static_cast<std::size_t>(y[idx])] += 1.0;
                    ++left_size;
                }
            }
            std::size_t right_size = indices.size() - left_size;
            if (left_size < config_.minSamplesLeaf ||
                right_size < config_.minSamplesLeaf) {
                continue;
            }
            for (std::size_t c = 0; c < counts.size(); ++c)
                right_counts[c] = counts[c] - left_counts[c];
            double nl = static_cast<double>(left_size);
            double nr = static_cast<double>(right_size);
            double child = (nl * giniImpurity(left_counts, nl) +
                            nr * giniImpurity(right_counts, nr)) /
                           (nl + nr);
            double gain = impurity - child;
            if (gain > best_gain) {
                best_gain = gain;
                found = true;
                best_feature = feature;
                best_threshold = threshold;
            }
        }
    }

    std::vector<std::size_t> best_left, best_right;
    if (found)
        for (std::size_t idx : indices)
            (x(idx, best_feature) <= best_threshold ? best_left
                                                    : best_right)
                .push_back(idx);
    if (best_left.empty() || best_right.empty())
        return node;

    node->isLeaf = false;
    node->feature = best_feature;
    node->threshold = best_threshold;
    node->left = build(x, y, best_left, depth + 1, rng);
    node->right = build(x, y, best_right, depth + 1, rng);
    return node;
}

void
DecisionTreeClassifier::train(const Dataset &data)
{
    if (data.numSamples() == 0)
        common::panic("tree", "train: empty dataset");
    numClasses_ = data.numClasses;
    common::Rng rng(config_.seed);
    std::vector<std::size_t> indices(data.numSamples());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    root_ = build(data.x, data.y, indices, 0, rng);
}

int
DecisionTreeClassifier::predictPoint(const std::vector<double> &point) const
{
    const TreeNode *leaf = descend(root_.get(), point);
    return leaf ? leaf->classLabel : 0;
}

std::vector<double>
DecisionTreeClassifier::predictProbaPoint(
    const std::vector<double> &point) const
{
    const TreeNode *leaf = descend(root_.get(), point);
    if (!leaf)
        return std::vector<double>(static_cast<std::size_t>(numClasses_),
                                   0.0);
    return leaf->classProbs;
}

std::vector<int>
DecisionTreeClassifier::predict(const math::Matrix &x) const
{
    std::vector<int> out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i)
        out[i] = predictPoint(x.row(i));
    return out;
}

std::size_t
DecisionTreeClassifier::depth() const
{
    return nodeDepth(root_.get());
}

std::size_t
DecisionTreeClassifier::nodeCount() const
{
    return countNodes(root_.get());
}

std::size_t
DecisionTreeClassifier::leafCount() const
{
    return countLeaves(root_.get());
}

DecisionTreeRegressor::DecisionTreeRegressor(TreeConfig config)
    : config_(config)
{
}

std::unique_ptr<TreeNode>
DecisionTreeRegressor::build(const math::Matrix &x,
                             const std::vector<double> &y,
                             const std::vector<std::size_t> &indices,
                             std::size_t depth, common::Rng &rng) const
{
    auto node = std::make_unique<TreeNode>();
    node->value = subsetMean(y, indices);

    double sse = subsetSse(y, indices);
    if (depth >= config_.maxDepth || indices.size() < config_.minSamplesSplit ||
        sse <= 1e-12) {
        return node;
    }

    double best_gain = 1e-12;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<std::size_t> best_left, best_right;

    for (std::size_t feature :
         candidateFeatures(x.cols(), config_.maxFeatures, rng)) {
        for (double threshold : candidateThresholds(x, indices, feature)) {
            std::vector<std::size_t> left, right;
            for (std::size_t idx : indices) {
                (x(idx, feature) <= threshold ? left : right).push_back(idx);
            }
            if (left.size() < config_.minSamplesLeaf ||
                right.size() < config_.minSamplesLeaf) {
                continue;
            }
            double gain = sse - subsetSse(y, left) - subsetSse(y, right);
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = feature;
                best_threshold = threshold;
                best_left = std::move(left);
                best_right = std::move(right);
            }
        }
    }

    if (best_left.empty() || best_right.empty())
        return node;

    node->isLeaf = false;
    node->feature = best_feature;
    node->threshold = best_threshold;
    node->left = build(x, y, best_left, depth + 1, rng);
    node->right = build(x, y, best_right, depth + 1, rng);
    return node;
}

void
DecisionTreeRegressor::train(const math::Matrix &x,
                             const std::vector<double> &y)
{
    if (x.rows() == 0 || x.rows() != y.size())
        common::panic("tree", "regressor train: bad input");
    common::Rng rng(config_.seed);
    std::vector<std::size_t> indices(x.rows());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    root_ = build(x, y, indices, 0, rng);
}

double
DecisionTreeRegressor::predictPoint(const std::vector<double> &point) const
{
    const TreeNode *leaf = descend(root_.get(), point);
    return leaf ? leaf->value : 0.0;
}

std::vector<double>
DecisionTreeRegressor::predict(const math::Matrix &x) const
{
    std::vector<double> out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i)
        out[i] = predictPoint(x.row(i));
    return out;
}

std::size_t
DecisionTreeRegressor::depth() const
{
    return nodeDepth(root_.get());
}

std::size_t
DecisionTreeRegressor::nodeCount() const
{
    return countNodes(root_.get());
}

}  // namespace homunculus::ml
