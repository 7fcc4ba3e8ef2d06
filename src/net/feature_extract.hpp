/**
 * @file
 * Packet feature extraction — Figure 5's "Feature Extraction" template.
 *
 * Turns raw packets into the 7-feature row the TC models consume
 * (matching data::IotTrafficConfig's schema): on-wire size, IPv4 TTL,
 * protocol, src/dst port buckets, TOS, and a payload-entropy proxy. Also
 * provides a raw-packet generator for the IoT device archetypes so the
 * whole parse -> extract -> classify path can run from bytes, and a
 * feature-extraction pipeline stage usable in front of any Platform.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "net/packet.hpp"

namespace homunculus::net {

/** Number of features the TC extractor emits. */
constexpr std::size_t kNumTcFeatures = 7;

/** Extraction parameters (port bucketing, entropy sampling). */
struct FeatureExtractorConfig
{
    /** Ports are hashed into this many buckets (switch-friendly).
     *  Must be at least 1. */
    std::size_t portBuckets = 8;
    /** Bytes of payload sampled for the entropy proxy. The extractor
     *  precomputes S(S+1)/2 + S + 1 doubles for S sampled bytes, so its
     *  table grows as O(S^2): ~17 KiB at the default 64, ~350 KiB at
     *  300. */
    std::size_t entropySampleBytes = 64;
};

/**
 * Per-packet feature extraction. Immutable after construction, so one
 * extractor may serve any number of threads.
 *
 * The payload-entropy feature is the normalized Shannon entropy of the
 * first entropySampleBytes payload bytes, h = -sum (c/n) log(c/n) over
 * the byte counts c in ascending byte order, divided by
 * log(min(256, n)). The constructor tabulates every (c/n) log(c/n)
 * term with the expression math::entropy evaluates, so the per-packet
 * sum calls no log, allocates nothing, and is bit-identical to
 * math::entropy over a 256-bin histogram.
 */
class FeatureExtractor
{
  public:
    /** Throws std::invalid_argument when config.portBuckets is 0. */
    explicit FeatureExtractor(FeatureExtractorConfig config = {});

    /**
     * Write the kNumTcFeatures features of one packet into @p out from
     * its header stack and its @p payload_size payload bytes. The one
     * extraction path: allocation-free, and every other entry point
     * wraps it.
     */
    void extractInto(const PacketHeaders &headers,
                     const std::uint8_t *payload,
                     std::size_t payload_size, double *out) const;

    /** Feature vector for one parsed packet (length kNumTcFeatures). */
    std::vector<double> extract(const RawPacket &packet) const;

    /** Parse bytes then extract; nullopt when the packet is malformed. */
    std::optional<std::vector<double>> extractFromWire(
        const std::vector<std::uint8_t> &bytes) const;

    /** The feature names, aligned with the IoT generator's schema. */
    static std::vector<std::string> featureNames();

    const FeatureExtractorConfig &config() const { return config_; }

  private:
    double payloadEntropy(const std::uint8_t *payload,
                          std::size_t size) const;

    FeatureExtractorConfig config_;
    /** (c/n) log(c/n) for 1 <= c <= n <= entropySampleBytes; the terms
     *  of sample size n start at n(n-1)/2, indexed by c - 1. */
    std::vector<double> entropyTerms_;
    /** log(min(256, n)) for 0 <= n <= entropySampleBytes (index 0
     *  unused). */
    std::vector<double> entropyMax_;
};

/** Knobs for the raw IoT packet generator. */
struct IotPacketConfig
{
    std::size_t numPackets = 1000;
    int numDeviceClasses = 5;
    std::uint64_t seed = 99;
};

/** One labeled raw packet. */
struct LabeledPacket
{
    RawPacket packet;
    int deviceClass = 0;
};

/**
 * Generate raw packets for the 5 IoT device archetypes (camera, sensor,
 * speaker, hub, thermostat) — the byte-level counterpart of
 * data::generateIotTrafficDataset.
 */
std::vector<LabeledPacket> generateIotPackets(const IotPacketConfig &config);

/**
 * Full front-end: serialize + parse + extract every packet into a
 * labeled Dataset (rows whose packets fail parsing are dropped).
 */
ml::Dataset datasetFromPackets(const std::vector<LabeledPacket> &packets,
                               const FeatureExtractor &extractor);

}  // namespace homunculus::net
