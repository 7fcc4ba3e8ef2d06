#include "core/pipeline_harness.hpp"

#include <chrono>
#include <stdexcept>

namespace homunculus::core {

PipelineHarness::PipelineHarness(ir::ModelIr model,
                                 backends::PlatformPtr platform,
                                 ml::StandardScaler scaler,
                                 net::FeatureExtractor extractor)
    : model_(std::move(model)),
      platform_(std::move(platform)),
      scaler_(std::move(scaler)),
      extractor_(std::move(extractor))
{
    if (!platform_)
        throw std::runtime_error("PipelineHarness: null platform");
    model_.validate();
}

ReplayStats
PipelineHarness::classify(math::Matrix features, std::size_t offered) const
{
    auto started = std::chrono::steady_clock::now();
    ReplayStats stats;
    stats.packetsOffered = offered;
    stats.packetsParsed = features.rows();
    if (features.rows() > 0) {
        if (scaler_.fitted())
            features = scaler_.transform(features);
        stats.verdicts = platform_->evaluate(model_, features);
        stats.packetsClassified = stats.verdicts.size();

        backends::ResourceReport report = platform_->estimate(model_);
        stats.modelLatencyNs = report.latencyNs;
        stats.modelThroughputGpps = report.throughputGpps;
    }
    stats.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    return stats;
}

ReplayStats
PipelineHarness::replayWire(
    const std::vector<std::vector<std::uint8_t>> &frames) const
{
    // One row per frame, written in place; malformed frames are skipped
    // and the unused tail trimmed.
    math::Matrix features(frames.size(), net::kNumTcFeatures);
    std::size_t parsed = 0;
    net::PacketHeaders headers;
    for (const auto &frame : frames) {
        std::optional<std::size_t> offset =
            net::parseHeaders(frame.data(), frame.size(), headers);
        if (!offset)
            continue;
        extractor_.extractInto(headers, frame.data() + *offset,
                               frame.size() - *offset,
                               features.rowPtr(parsed++));
    }
    features.resizeRows(parsed);
    return classify(std::move(features), frames.size());
}

ReplayStats
PipelineHarness::replay(const std::vector<net::RawPacket> &packets) const
{
    math::Matrix features(packets.size(), net::kNumTcFeatures);
    for (std::size_t i = 0; i < packets.size(); ++i)
        extractor_.extractInto(packets[i], packets[i].payload.data(),
                               packets[i].payload.size(),
                               features.rowPtr(i));
    return classify(std::move(features), packets.size());
}

}  // namespace homunculus::core
