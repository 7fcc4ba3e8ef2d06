#include "net/feature_extract.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace homunculus::net {

FeatureExtractor::FeatureExtractor(FeatureExtractorConfig config)
    : config_(config)
{
    if (config_.portBuckets == 0)
        throw std::invalid_argument(
            "FeatureExtractor: portBuckets must be at least 1");
    const std::size_t sample = config_.entropySampleBytes;
    entropyTerms_.reserve(sample * (sample + 1) / 2);
    entropyMax_.assign(sample + 1, 0.0);
    for (std::size_t n = 1; n <= sample; ++n) {
        // The same expression math::entropy evaluates per nonzero bin.
        double total = static_cast<double>(n);
        for (std::size_t c = 1; c <= n; ++c) {
            double p = static_cast<double>(c) / total;
            entropyTerms_.push_back(p * std::log(p));
        }
        entropyMax_[n] = std::log(
            static_cast<double>(std::min<std::size_t>(256, n)));
    }
}

std::vector<std::string>
FeatureExtractor::featureNames()
{
    return {"pkt_size", "ipv4_ttl", "ip_proto", "src_port_bkt",
            "dst_port_bkt", "tos_dscp", "payload_entropy"};
}

double
FeatureExtractor::payloadEntropy(const std::uint8_t *payload,
                                 std::size_t size) const
{
    const std::size_t sample = std::min(config_.entropySampleBytes, size);
    if (sample == 0)
        return 0.0;
    // Count the sampled bytes and mark which values occur.
    std::uint32_t counts[256] = {};
    std::uint64_t seen[4] = {};
    for (std::size_t i = 0; i < sample; ++i) {
        std::uint8_t byte = payload[i];
        ++counts[byte];
        seen[byte >> 6] |= std::uint64_t{1} << (byte & 63);
    }
    // Sum the tabulated terms in ascending byte order, as math::entropy
    // walks its histogram.
    const double *terms = entropyTerms_.data() + sample * (sample - 1) / 2;
    double h = 0.0;
    for (std::size_t word = 0; word < 4; ++word)
        for (std::uint64_t bits = seen[word]; bits != 0; bits &= bits - 1) {
            std::size_t byte =
                word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
            h -= terms[counts[byte] - 1];
        }
    // Normalize to [0, 1] against the maximum entropy of the sample.
    double h_max = entropyMax_[sample];
    return h_max > 0.0 ? std::clamp(h / h_max, 0.0, 1.0) : 0.0;
}

void
FeatureExtractor::extractInto(const PacketHeaders &headers,
                              const std::uint8_t *payload,
                              std::size_t payload_size, double *out) const
{
    std::uint16_t src_port = 0, dst_port = 0;
    if (headers.tcp) {
        src_port = headers.tcp->srcPort;
        dst_port = headers.tcp->dstPort;
    } else if (headers.udp) {
        src_port = headers.udp->srcPort;
        dst_port = headers.udp->dstPort;
    }

    out[0] = static_cast<double>(headers.headerSize() + payload_size);
    out[1] = static_cast<double>(headers.ipv4.ttl);
    out[2] = static_cast<double>(headers.ipv4.protocol);
    out[3] = static_cast<double>(src_port % config_.portBuckets);
    out[4] = static_cast<double>(dst_port % config_.portBuckets);
    out[5] = static_cast<double>(headers.ipv4.tos) / 255.0;
    out[6] = payloadEntropy(payload, payload_size);
}

std::vector<double>
FeatureExtractor::extract(const RawPacket &packet) const
{
    std::vector<double> features(kNumTcFeatures);
    extractInto(packet, packet.payload.data(), packet.payload.size(),
                features.data());
    return features;
}

std::optional<std::vector<double>>
FeatureExtractor::extractFromWire(
    const std::vector<std::uint8_t> &bytes) const
{
    PacketHeaders headers;
    std::optional<std::size_t> offset =
        parseHeaders(bytes.data(), bytes.size(), headers);
    if (!offset)
        return std::nullopt;
    std::vector<double> features(kNumTcFeatures);
    extractInto(headers, bytes.data() + *offset, bytes.size() - *offset,
                features.data());
    return features;
}

namespace {

/** Per-archetype wire behavior mirroring data::kProfiles. */
struct DeviceWireProfile
{
    double payloadMean, payloadStddev;
    std::uint8_t ttl;
    std::uint8_t protocol;
    std::uint16_t srcPortBase, dstPortBase;
    std::uint8_t tos;
    double entropyLevel;  ///< 0 = constant bytes, 1 = random bytes.
};

constexpr DeviceWireProfile kWireProfiles[] = {
    // camera: large UDP video with near-random (compressed) payload.
    {1000.0, 120.0, 62, kProtoUdp, 40004, 5005, 0x50, 0.95},
    // sensor: tiny UDP telemetry, highly structured payload.
    {60.0, 16.0, 64, kProtoUdp, 20002, 1883, 0x08, 0.25},
    // speaker: mid-size TCP audio.
    {560.0, 90.0, 58, kProtoTcp, 30003, 4444, 0x88, 0.80},
    // hub: mixed TCP control traffic.
    {280.0, 70.0, 60, kProtoTcp, 50005, 2880, 0x60, 0.55},
    // thermostat: sparse small TCP reports.
    {110.0, 30.0, 63, kProtoTcp, 10001, 2121, 0x10, 0.20},
};

}  // namespace

std::vector<LabeledPacket>
generateIotPackets(const IotPacketConfig &config)
{
    common::Rng rng(config.seed);
    std::vector<LabeledPacket> out;
    out.reserve(config.numPackets);
    int classes = std::clamp(config.numDeviceClasses, 2,
                             static_cast<int>(std::size(kWireProfiles)));

    for (std::size_t i = 0; i < config.numPackets; ++i) {
        int label = static_cast<int>(rng.uniformInt(0, classes - 1));
        const DeviceWireProfile &profile =
            kWireProfiles[static_cast<std::size_t>(label)];

        LabeledPacket labeled;
        labeled.deviceClass = label;
        RawPacket &packet = labeled.packet;

        for (std::size_t b = 0; b < 6; ++b) {
            packet.eth.src[b] = static_cast<std::uint8_t>(
                rng.uniformInt(0, 255));
            packet.eth.dst[b] = static_cast<std::uint8_t>(
                rng.uniformInt(0, 255));
        }
        packet.ipv4.ttl = profile.ttl;
        packet.ipv4.protocol = profile.protocol;
        packet.ipv4.tos = profile.tos;
        packet.ipv4.srcAddr = static_cast<std::uint32_t>(
            rng.uniformInt(0x0A000001, 0x0A00FFFF));
        packet.ipv4.dstAddr = static_cast<std::uint32_t>(
            rng.uniformInt(0x0A010001, 0x0A01FFFF));

        auto src_port = static_cast<std::uint16_t>(
            profile.srcPortBase + rng.uniformInt(0, 15));
        auto dst_port = static_cast<std::uint16_t>(profile.dstPortBase);
        if (profile.protocol == kProtoTcp) {
            TcpHeader tcp;
            tcp.srcPort = src_port;
            tcp.dstPort = dst_port;
            tcp.seq = static_cast<std::uint32_t>(
                rng.uniformInt(0, 0x7FFFFFFF));
            tcp.flags = 0x18;  // PSH|ACK data segment.
            tcp.window = 0xFFFF;
            packet.tcp = tcp;
        } else {
            UdpHeader udp;
            udp.srcPort = src_port;
            udp.dstPort = dst_port;
            packet.udp = udp;
        }

        auto payload_size = static_cast<std::size_t>(std::clamp(
            rng.gaussian(profile.payloadMean, profile.payloadStddev), 8.0,
            1400.0));
        packet.payload.resize(payload_size);
        for (std::size_t b = 0; b < payload_size; ++b) {
            // Entropy control: mix random bytes with a constant filler.
            packet.payload[b] =
                rng.bernoulli(profile.entropyLevel)
                    ? static_cast<std::uint8_t>(rng.uniformInt(0, 255))
                    : static_cast<std::uint8_t>(0x42);
        }
        packet.timestampSec = static_cast<double>(i) * 1e-5;
        out.push_back(std::move(labeled));
    }
    return out;
}

ml::Dataset
datasetFromPackets(const std::vector<LabeledPacket> &packets,
                   const FeatureExtractor &extractor)
{
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    int max_label = 0;
    for (const auto &labeled : packets) {
        // Round-trip through the wire format: what the switch would see.
        auto features =
            extractor.extractFromWire(serialize(labeled.packet));
        if (!features)
            continue;
        rows.push_back(std::move(*features));
        labels.push_back(labeled.deviceClass);
        max_label = std::max(max_label, labeled.deviceClass);
    }
    ml::Dataset out;
    out.x = math::Matrix::fromRows(rows);
    out.y = std::move(labels);
    out.numClasses = max_label + 1;
    out.featureNames = FeatureExtractor::featureNames();
    out.validate();
    return out;
}

}  // namespace homunculus::net
