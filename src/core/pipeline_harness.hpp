/**
 * @file
 * Packet-replay harness: bytes in, verdicts + pipeline statistics out.
 *
 * Composes the full deployed path — wire-format parsing, feature
 * extraction, feature scaling, and the platform's own simulator running
 * the quantized model — over a stream of raw packets. This is the
 * software twin of the paper's end-to-end testbed (§5.2): MoonGen
 * replays traffic through the switch + bump-in-the-wire FPGA; here a
 * packet vector replays through parser + extractor + backend simulator.
 *
 * Classification is a single batched Platform::evaluate per replay: the
 * backend compiles the model once (an ir::ExecutablePlan on plan-backed
 * platforms) and streams the whole feature matrix through it.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "backends/platform.hpp"
#include "ml/preprocess.hpp"
#include "net/feature_extract.hpp"

namespace homunculus::core {

/** Statistics of one replay run. */
struct ReplayStats
{
    std::size_t packetsOffered = 0;
    std::size_t packetsParsed = 0;    ///< malformed packets are dropped.
    std::size_t packetsClassified = 0;
    std::vector<int> verdicts;        ///< one per classified packet.
    double modelLatencyNs = 0.0;      ///< platform-reported per packet.
    double modelThroughputGpps = 0.0;
    double hostSeconds = 0.0;         ///< wall time of the simulation.

    double parseRate() const
    {
        return packetsOffered == 0
                   ? 0.0
                   : static_cast<double>(packetsParsed) /
                         static_cast<double>(packetsOffered);
    }
};

/** The harness: bind a model + platform + preprocessing, then replay. */
class PipelineHarness
{
  public:
    /**
     * @param model the deployed (quantized) model
     * @param platform backend whose simulator executes the model
     * @param scaler fitted feature scaler (same one used in training)
     * @param extractor packet feature extractor
     */
    PipelineHarness(ir::ModelIr model, backends::PlatformPtr platform,
                    ml::StandardScaler scaler,
                    net::FeatureExtractor extractor = {});

    /** Replay serialized packets (wire bytes). */
    ReplayStats replayWire(
        const std::vector<std::vector<std::uint8_t>> &frames) const;

    /** Replay parsed packets (skips the byte-parsing stage). */
    ReplayStats replay(const std::vector<net::RawPacket> &packets) const;

    const ir::ModelIr &model() const { return model_; }

  private:
    /** Scale and evaluate @p features (one extracted row per parsed
     *  packet). */
    ReplayStats classify(math::Matrix features, std::size_t offered) const;

    ir::ModelIr model_;
    backends::PlatformPtr platform_;
    ml::StandardScaler scaler_;
    net::FeatureExtractor extractor_;
};

}  // namespace homunculus::core
