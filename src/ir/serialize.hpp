/**
 * @file
 * ModelIr artifact (de)serialization.
 *
 * A compiler needs durable artifacts: the control plane that installs a
 * generated pipeline at 3am is not the process that searched for it.
 * This module round-trips a ModelIr through a line-oriented text format
 * (versioned, self-describing, diff-friendly) so compiled models can be
 * cached, shipped, and re-deployed without re-running the search.
 *
 * Format sketch (v3, the only version that parses):
 *   homunculus-ir v3
 *   kind dnn
 *   name anomaly_detection
 *   input_dim 7
 *   num_classes 2
 *   format 8 8
 *   passes quantize validate
 *   scaler_means <7 doubles...>
 *   scaler_stds <7 doubles...>
 *   activation relu
 *   layer 7 16
 *   weights <112 ints...>
 *   biases <16 ints...>
 *   ...
 *   end
 */
#pragma once

#include <string>

#include "ir/model_ir.hpp"

namespace homunculus::ir {

/** Serialize a validated model to the textual artifact format. */
std::string serializeModel(const ModelIr &model);

/**
 * Parse an artifact back into a ModelIr.
 * @throws std::runtime_error on version mismatch or malformed content;
 *         the returned model is validate()d before being returned.
 */
ModelIr deserializeModel(const std::string &text);

/** Convenience file wrappers. */
void saveModel(const std::string &path, const ModelIr &model);
ModelIr loadModel(const std::string &path);

}  // namespace homunculus::ir
