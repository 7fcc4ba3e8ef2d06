#include "ir/serialize.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/string_util.hpp"

namespace homunculus::ir {

namespace {

constexpr const char *kMagic = "homunculus-ir";
// v3 carries the optional `scaler_means`/`scaler_stds` provenance lines
// (the training-time StandardScaler, so serving stops refitting
// statistics on the trace) and the optional `passes ...` lowering-audit
// line. Only v3 artifacts parse.
constexpr const char *kVersion = "v3";

ModelKind
kindFromName(const std::string &name)
{
    if (name == "dnn")
        return ModelKind::kMlp;
    if (name == "kmeans")
        return ModelKind::kKMeans;
    if (name == "svm")
        return ModelKind::kSvm;
    if (name == "decision_tree")
        return ModelKind::kDecisionTree;
    throw std::runtime_error("ir: unknown model kind '" + name + "'");
}

void
writeInts(std::ostringstream &out, const char *tag,
          const std::vector<std::int32_t> &values)
{
    out << tag;
    for (std::int32_t v : values)
        out << " " << v;
    out << "\n";
}

/**
 * Checked numeric parsing: an artifact is untrusted input, so every
 * number must consume its whole token and stay in range — bare
 * std::sto* would accept "12junk", and its std::invalid_argument
 * leaks a libc++ message instead of an "ir:" diagnostic.
 */
long
parseLong(const std::string &token)
{
    try {
        std::size_t consumed = 0;
        long value = std::stol(token, &consumed);
        if (consumed != token.size() || token.empty())
            throw std::invalid_argument(token);
        return value;
    } catch (const std::exception &) {
        throw std::runtime_error("ir: bad number '" + token + "'");
    }
}

std::size_t
parseSize(const std::string &token)
{
    try {
        if (token.empty() || token.find('-') != std::string::npos)
            throw std::invalid_argument(token);
        std::size_t consumed = 0;
        unsigned long value = std::stoul(token, &consumed);
        if (consumed != token.size())
            throw std::invalid_argument(token);
        return value;
    } catch (const std::exception &) {
        throw std::runtime_error("ir: bad number '" + token + "'");
    }
}

int
parseInt(const std::string &token)
{
    try {
        std::size_t consumed = 0;
        int value = std::stoi(token, &consumed);
        if (consumed != token.size() || token.empty())
            throw std::invalid_argument(token);
        return value;
    } catch (const std::exception &) {
        throw std::runtime_error("ir: bad number '" + token + "'");
    }
}

double
parseDouble(const std::string &token)
{
    try {
        std::size_t consumed = 0;
        double value = std::stod(token, &consumed);
        if (consumed != token.size() || token.empty())
            throw std::invalid_argument(token);
        return value;
    } catch (const std::exception &) {
        throw std::runtime_error("ir: bad number '" + token + "'");
    }
}

std::vector<std::int32_t>
readInts(const std::vector<std::string> &tokens, std::size_t from)
{
    std::vector<std::int32_t> values;
    values.reserve(tokens.size() - from);
    for (std::size_t i = from; i < tokens.size(); ++i)
        values.push_back(static_cast<std::int32_t>(parseLong(tokens[i])));
    return values;
}

void
writeDoubles(std::ostringstream &out, const char *tag,
             const std::vector<double> &values)
{
    out << tag;
    char buffer[40];
    for (double v : values) {
        // %.17g round-trips every IEEE double exactly, so the stored
        // scaler reproduces training-time transforms bit-for-bit.
        std::snprintf(buffer, sizeof(buffer), "%.17g", v);
        out << " " << buffer;
    }
    out << "\n";
}

std::vector<double>
readDoubles(const std::vector<std::string> &tokens, std::size_t from)
{
    std::vector<double> values;
    values.reserve(tokens.size() - from);
    for (std::size_t i = from; i < tokens.size(); ++i)
        values.push_back(parseDouble(tokens[i]));
    return values;
}

}  // namespace

std::string
serializeModel(const ModelIr &model)
{
    model.validate();
    std::ostringstream out;
    out << kMagic << " " << kVersion << "\n"
        << "kind " << modelKindName(model.kind) << "\n"
        << "name " << model.name << "\n"
        << "input_dim " << model.inputDim << "\n"
        << "num_classes " << model.numClasses << "\n"
        << "format " << model.format.integerBits() << " "
        << model.format.fracBits() << "\n";
    if (!model.passes.empty()) {
        out << "passes";
        for (const std::string &pass : model.passes)
            out << " " << pass;
        out << "\n";
    }
    if (model.hasScaler()) {
        writeDoubles(out, "scaler_means", model.scalerMeans);
        writeDoubles(out, "scaler_stds", model.scalerStds);
    } else if (model.scalerRecorded) {
        // Provenance stated either way: this model was trained on raw
        // features, so serving must not invent a scaler for it.
        out << "scaler_none\n";
    }

    switch (model.kind) {
      case ModelKind::kMlp: {
        out << "activation " << ml::activationName(model.activation)
            << "\n";
        for (const auto &layer : model.layers) {
            out << "layer " << layer.inputDim << " " << layer.outputDim
                << "\n";
            writeInts(out, "weights", layer.weights);
            writeInts(out, "biases", layer.biases);
        }
        break;
      }
      case ModelKind::kKMeans:
        for (const auto &centroid : model.centroids)
            writeInts(out, "centroid", centroid);
        break;
      case ModelKind::kSvm:
        for (std::size_t c = 0; c < model.svmWeights.size(); ++c) {
            writeInts(out, "svm_weights", model.svmWeights[c]);
            out << "svm_bias " << model.svmBiases[c] << "\n";
        }
        break;
      case ModelKind::kDecisionTree:
        out << "tree_depth " << model.treeDepth << "\n";
        for (const auto &node : model.treeNodes) {
            out << "node " << (node.isLeaf ? 1 : 0) << " " << node.feature
                << " " << node.threshold << " " << node.classLabel << " "
                << node.left << " " << node.right << "\n";
        }
        break;
    }
    out << "end\n";
    return out.str();
}

ModelIr
deserializeModel(const std::string &text)
{
    std::istringstream in(text);
    std::string line;

    std::string header = std::getline(in, line) ? common::trim(line)
                                                : std::string();
    if (header != std::string(kMagic) + " " + kVersion)
        throw std::runtime_error("ir: bad artifact header");

    ModelIr model;
    bool saw_end = false;
    QuantizedLayer *open_layer = nullptr;
    int format_int = 8, format_frac = 8;

    while (std::getline(in, line)) {
        line = common::trim(line);
        if (line.empty())
            continue;
        std::vector<std::string> tokens = common::split(line, ' ');
        const std::string &tag = tokens[0];

        if (tag == "end") {
            saw_end = true;
            break;
        }
        // Every line parses inside this guard: a corrupt artifact may
        // be missing tokens (tokens.at throws std::out_of_range) or
        // carry garbage numbers, and either way the caller must see an
        // "ir:" diagnostic — never a bare library exception, and never
        // a crash.
        try {
            if (tag == "kind") {
                model.kind = kindFromName(tokens.at(1));
            } else if (tag == "name") {
                model.name = tokens.at(1);
            } else if (tag == "input_dim") {
                model.inputDim = parseSize(tokens.at(1));
            } else if (tag == "num_classes") {
                model.numClasses = parseInt(tokens.at(1));
            } else if (tag == "format") {
                format_int = parseInt(tokens.at(1));
                format_frac = parseInt(tokens.at(2));
                // Pre-validate: the FixedPointFormat constructor treats
                // a bad Q-format as a programming error and aborts the
                // process; from an artifact it is just corrupt input.
                if (format_int < 1 || format_frac < 0 ||
                    format_int + format_frac > 31)
                    throw std::runtime_error(common::format(
                        "ir: invalid fixed-point format Q%d.%d",
                        format_int, format_frac));
                model.format = common::FixedPointFormat(format_int,
                                                        format_frac);
            } else if (tag == "passes") {
                for (std::size_t i = 1; i < tokens.size(); ++i)
                    model.passes.push_back(tokens[i]);
            } else if (tag == "scaler_means") {
                model.scalerMeans = readDoubles(tokens, 1);
                model.scalerRecorded = true;
            } else if (tag == "scaler_stds") {
                model.scalerStds = readDoubles(tokens, 1);
                model.scalerRecorded = true;
            } else if (tag == "scaler_none") {
                model.scalerRecorded = true;
            } else if (tag == "activation") {
                model.activation = ml::activationFromName(tokens.at(1));
            } else if (tag == "layer") {
                QuantizedLayer layer;
                layer.inputDim = parseSize(tokens.at(1));
                layer.outputDim = parseSize(tokens.at(2));
                model.layers.push_back(std::move(layer));
                open_layer = &model.layers.back();
            } else if (tag == "weights") {
                if (!open_layer)
                    throw std::runtime_error("ir: weights before layer");
                open_layer->weights = readInts(tokens, 1);
            } else if (tag == "biases") {
                if (!open_layer)
                    throw std::runtime_error("ir: biases before layer");
                open_layer->biases = readInts(tokens, 1);
            } else if (tag == "centroid") {
                model.centroids.push_back(readInts(tokens, 1));
            } else if (tag == "svm_weights") {
                model.svmWeights.push_back(readInts(tokens, 1));
            } else if (tag == "svm_bias") {
                model.svmBiases.push_back(
                    static_cast<std::int32_t>(parseLong(tokens.at(1))));
            } else if (tag == "tree_depth") {
                model.treeDepth = parseSize(tokens.at(1));
            } else if (tag == "node") {
                IrTreeNode node;
                node.isLeaf = tokens.at(1) == "1";
                node.feature = parseSize(tokens.at(2));
                node.threshold =
                    static_cast<std::int32_t>(parseLong(tokens.at(3)));
                node.classLabel = parseInt(tokens.at(4));
                node.left = parseInt(tokens.at(5));
                node.right = parseInt(tokens.at(6));
                model.treeNodes.push_back(node);
            } else {
                throw std::runtime_error("ir: unknown artifact tag '" +
                                         tag + "'");
            }
        } catch (const std::exception &e) {
            std::string what = e.what();
            if (what.rfind("ir: ", 0) == 0)
                throw;
            throw std::runtime_error("ir: malformed '" + tag +
                                     "' line: " + what);
        }
    }

    if (!saw_end)
        throw std::runtime_error("ir: truncated artifact (no 'end')");
    // The structural validator's "ModelIr: ..." messages are written
    // for in-memory construction bugs; surfaced from an artifact they
    // get the ir: prefix like every other corrupt-input diagnostic.
    try {
        model.validate();
    } catch (const std::exception &e) {
        std::string what = e.what();
        if (what.rfind("ir: ", 0) == 0)
            throw;
        throw std::runtime_error(
            std::string("ir: invalid artifact model: ") + e.what());
    }
    return model;
}

void
saveModel(const std::string &path, const ModelIr &model)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("ir: cannot write '" + path + "'");
    out << serializeModel(model);
}

ModelIr
loadModel(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("ir: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return deserializeModel(buffer.str());
}

}  // namespace homunculus::ir
