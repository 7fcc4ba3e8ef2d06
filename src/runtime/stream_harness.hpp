/**
 * @file
 * StreamHarness: trace-replay serving loop over the inference engine.
 *
 * The software twin of the deployed line-rate path, built for throughput
 * measurement over a recorded trace rather than live arrivals (those go
 * through runtime::Server): a packet trace is replayed through
 * net::FeatureExtractor into fixed-size micro-batches, and extraction
 * is pipelined against inference with two buffers — while the engine
 * classifies batch b, a producer thread parses/extracts/scales batch
 * b+1. Inference itself shards each micro-batch across cores
 * (runtime::InferenceEngine).
 *
 * Reported per replay: rows/s over the whole trace, p50/p99 per-batch
 * inference latency, and extract-vs-infer second splits (the visible
 * pipeline-overlap win). Verdicts come back in trace order and are
 * bit-identical to running the plan over the whole extracted matrix in
 * one call — end-of-trace drain included (the final partial batch is
 * classified like any other).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ml/preprocess.hpp"
#include "net/feature_extract.hpp"
#include "runtime/inference_engine.hpp"

namespace homunculus::runtime {

/** Replay knobs. */
struct StreamConfig
{
    /** Rows per micro-batch handed to the engine. */
    std::size_t batchRows = 1024;
};

/** Everything one replay produced. */
struct StreamStats
{
    std::size_t packetsOffered = 0;
    std::size_t packetsParsed = 0;   ///< malformed wire frames drop.
    std::size_t rowsClassified = 0;  ///< == packetsParsed after drain.
    std::size_t batches = 0;         ///< micro-batches incl. final partial.
    std::vector<int> verdicts;       ///< one per parsed packet, in order.

    double wallSeconds = 0.0;        ///< extract + infer critical path.
    double extractSeconds = 0.0;     ///< producer-side work (summed).
    double inferSeconds = 0.0;       ///< engine-side work (summed).
    double rowsPerSec = 0.0;         ///< rowsClassified / wallSeconds.
    double p50BatchLatencyUs = 0.0;  ///< per-batch inference latency.
    double p99BatchLatencyUs = 0.0;
};

/** Bind extractor + scaler + engine once, then replay traces. */
class StreamHarness
{
  public:
    /**
     * @param engine compiled model + execution policy (jobs width)
     * @param extractor packet feature extractor; its feature count must
     *        equal the engine plan's inputDim
     * @param scaler optional fitted feature scaler (the one used in
     *        training); nullopt replays raw features
     */
    StreamHarness(InferenceEngine engine, net::FeatureExtractor extractor,
                  std::optional<ml::StandardScaler> scaler = std::nullopt,
                  StreamConfig config = {});

    /** Replay parsed packets. */
    StreamStats replay(const std::vector<net::RawPacket> &packets) const;

    /** Replay wire-format frames (malformed frames are dropped). */
    StreamStats replayWire(
        const std::vector<std::vector<std::uint8_t>> &frames) const;

    const InferenceEngine &engine() const { return engine_; }
    const StreamConfig &config() const { return config_; }

  private:
    StreamStats replayParsed(const std::vector<net::RawPacket> &packets,
                             std::size_t offered) const;

    InferenceEngine engine_;
    net::FeatureExtractor extractor_;
    std::optional<ml::StandardScaler> scaler_;
    StreamConfig config_;
};

}  // namespace homunculus::runtime
