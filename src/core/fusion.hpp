/**
 * @file
 * Model fusion (paper §3.2.5, Table 4).
 *
 * Models trained on datasets with largely overlapping feature sets learn
 * largely overlapping representations; Homunculus fuses such models into
 * one network serving both datasets, eliminating duplicate weights and
 * inter-model plumbing. Fusion here is dataset-level: when the feature
 * overlap clears a threshold, the training partitions are unioned and a
 * single model is searched for the combined task.
 */
#pragma once

#include "core/alchemy.hpp"
#include "ml/dataset.hpp"

namespace homunculus::core {

/** Result of comparing two datasets' feature sets. */
struct FeatureOverlap
{
    double fraction = 0.0;  ///< |shared| / |union| by feature name.
    std::vector<std::string> shared;
};

/** Assess feature-name overlap between two datasets. */
FeatureOverlap assessFeatureOverlap(const ml::Dataset &a,
                                    const ml::Dataset &b);

/** Fusion policy: fuse when overlap clears this fraction. */
constexpr double kFusionOverlapThreshold = 0.75;

/** Whether the framework would fuse these two datasets. */
bool shouldFuse(const ml::Dataset &a, const ml::Dataset &b);

/**
 * Union two splits (same schema) into one fused split that keeps their
 * shared scaler moments.
 * @throws std::invalid_argument when the splits' scaler moments differ.
 */
ml::DataSplit fuseSplits(const ml::DataSplit &a, const ml::DataSplit &b);

/**
 * Split one dataset into two halves by rows — the Table 4 experiment's
 * setup, where one application's data is artificially divided between two
 * "separate" models before fusion recovers the sharing. Both halves
 * keep @p full's scaler moments.
 */
std::pair<ml::DataSplit, ml::DataSplit> halveSplit(const ml::DataSplit &full,
                                                   std::uint64_t seed);

}  // namespace homunculus::core
