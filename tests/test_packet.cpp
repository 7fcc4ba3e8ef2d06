/**
 * @file
 * Unit tests for the packet substrate: wire (de)serialization, checksum,
 * feature extraction, and the bytes-to-dataset front-end. The
 * extraction tests pin the tabulated payload entropy bit-for-bit to
 * math::entropy over a 256-bin histogram, and the header-only frame
 * path (parseHeaders + extractInto, as Server::submitFrame and
 * ShardedServer::submitFrame run it) to parse + extract.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "ir/model_ir.hpp"
#include "math/stats.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_server.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hn = homunculus::net;
namespace hr = homunculus::runtime;

namespace {

hn::RawPacket
makeTcpPacket()
{
    hn::RawPacket packet;
    packet.eth.src = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
    packet.eth.dst = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
    packet.ipv4.ttl = 63;
    packet.ipv4.tos = 0x10;
    packet.ipv4.protocol = hn::kProtoTcp;
    packet.ipv4.srcAddr = 0x0A000001;
    packet.ipv4.dstAddr = 0x0A000002;
    hn::TcpHeader tcp;
    tcp.srcPort = 44321;
    tcp.dstPort = 443;
    tcp.seq = 12345;
    tcp.flags = 0x18;
    packet.tcp = tcp;
    packet.payload = {1, 2, 3, 4, 5};
    return packet;
}

hn::RawPacket
makeUdpPacket()
{
    hn::RawPacket packet = makeTcpPacket();
    packet.tcp.reset();
    packet.ipv4.protocol = hn::kProtoUdp;
    hn::UdpHeader udp;
    udp.srcPort = 5004;
    udp.dstPort = 5005;
    packet.udp = udp;
    return packet;
}

/** Recompute the IPv4 header checksum of a serialized frame in place. */
void
resealIpv4(std::vector<std::uint8_t> &bytes)
{
    std::uint8_t *ipv4 = bytes.data() + hn::EthernetHeader::kWireSize;
    ipv4[10] = 0;
    ipv4[11] = 0;
    std::uint16_t checksum =
        hn::ipv4Checksum(ipv4, hn::Ipv4Header::kWireSize);
    ipv4[10] = static_cast<std::uint8_t>(checksum >> 8);
    ipv4[11] = static_cast<std::uint8_t>(checksum & 0xFF);
}

/** One frame for each way parseHeaders rejects a buffer. */
std::vector<std::pair<const char *, std::vector<std::uint8_t>>>
malformedFrames()
{
    std::vector<std::pair<const char *, std::vector<std::uint8_t>>> out;
    auto tcp = serialize(makeTcpPacket());
    out.emplace_back("empty", std::vector<std::uint8_t>{});
    out.emplace_back("truncated",
                     std::vector<std::uint8_t>(tcp.begin(),
                                               tcp.begin() + 20));
    auto non_ipv4 = tcp;
    non_ipv4[12] = 0x86;
    non_ipv4[13] = 0xDD;
    out.emplace_back("non-ipv4", non_ipv4);
    auto corrupt = tcp;
    corrupt[hn::EthernetHeader::kWireSize + 8] ^= 0xFF;
    out.emplace_back("bad checksum", corrupt);
    auto options = tcp;
    options[hn::EthernetHeader::kWireSize] = 0x46;
    resealIpv4(options);
    out.emplace_back("ipv4 options", options);
    auto icmp = tcp;
    icmp[hn::EthernetHeader::kWireSize + 9] = 1;
    resealIpv4(icmp);
    out.emplace_back("unknown transport", icmp);
    const std::size_t ip_end =
        hn::EthernetHeader::kWireSize + hn::Ipv4Header::kWireSize;
    out.emplace_back("truncated tcp",
                     std::vector<std::uint8_t>(tcp.begin(),
                                               tcp.begin() + ip_end + 10));
    auto udp = serialize(makeUdpPacket());
    out.emplace_back("truncated udp",
                     std::vector<std::uint8_t>(udp.begin(),
                                               udp.begin() + ip_end + 4));
    return out;
}

/** The entropy feature as the untabulated formula computes it:
 *  math::entropy over a 256-double histogram of the sampled bytes. */
double
referenceEntropy(const std::vector<std::uint8_t> &payload,
                 std::size_t sample_bytes)
{
    if (payload.empty())
        return 0.0;
    std::size_t sample = std::min(sample_bytes, payload.size());
    std::vector<double> counts(256, 0.0);
    for (std::size_t i = 0; i < sample; ++i)
        counts[payload[i]] += 1.0;
    double h = hm::entropy(counts);
    double h_max = std::log(
        static_cast<double>(std::min<std::size_t>(256, sample)));
    return h_max > 0.0 ? std::clamp(h / h_max, 0.0, 1.0) : 0.0;
}

/** A 7-input model: the frame-path test only reads the rows the
 *  server admitted, not its verdicts. */
hi::ModelIr
packetSchemaModel()
{
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = hn::kNumTcFeatures;
    model.numClasses = 2;
    hi::QuantizedLayer layer;
    layer.inputDim = hn::kNumTcFeatures;
    layer.outputDim = 2;
    layer.weights.assign(layer.inputDim * layer.outputDim, 1);
    layer.biases.assign(layer.outputDim, 0);
    model.layers.push_back(std::move(layer));
    model.validate();
    return model;
}

bool
sameBits(const double *a, const double *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(double)) == 0;
}

}  // namespace

TEST(Packet, TcpSerializeParseRoundTrip)
{
    auto original = makeTcpPacket();
    auto bytes = serialize(original);
    EXPECT_EQ(bytes.size(), original.wireSize());

    auto parsed = hn::parse(bytes, 1.5);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->eth.src, original.eth.src);
    EXPECT_EQ(parsed->ipv4.ttl, 63);
    EXPECT_EQ(parsed->ipv4.tos, 0x10);
    EXPECT_EQ(parsed->ipv4.srcAddr, 0x0A000001u);
    ASSERT_TRUE(parsed->tcp.has_value());
    EXPECT_EQ(parsed->tcp->srcPort, 44321);
    EXPECT_EQ(parsed->tcp->dstPort, 443);
    EXPECT_EQ(parsed->tcp->seq, 12345u);
    EXPECT_EQ(parsed->payload, original.payload);
    EXPECT_DOUBLE_EQ(parsed->timestampSec, 1.5);
}

TEST(Packet, UdpSerializeParseRoundTrip)
{
    hn::RawPacket packet;
    packet.ipv4.protocol = hn::kProtoUdp;
    hn::UdpHeader udp;
    udp.srcPort = 5004;
    udp.dstPort = 5005;
    packet.udp = udp;
    packet.payload.assign(100, 0xAB);

    auto parsed = hn::parse(serialize(packet));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->udp.has_value());
    EXPECT_EQ(parsed->udp->dstPort, 5005);
    EXPECT_EQ(parsed->udp->length, 108);  // 8 header + 100 payload.
    EXPECT_EQ(parsed->payload.size(), 100u);
}

TEST(Packet, ChecksumDetectsCorruption)
{
    auto bytes = serialize(makeTcpPacket());
    // Flip a bit inside the IPv4 header (TTL byte).
    bytes[hn::EthernetHeader::kWireSize + 8] ^= 0xFF;
    EXPECT_FALSE(hn::parse(bytes).has_value());
}

TEST(Packet, ParseRejectsTruncatedBuffers)
{
    auto bytes = serialize(makeTcpPacket());
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 20);
    EXPECT_FALSE(hn::parse(truncated).has_value());
    EXPECT_FALSE(hn::parse({}).has_value());
}

TEST(Packet, ParseRejectsNonIpv4)
{
    auto bytes = serialize(makeTcpPacket());
    bytes[12] = 0x86;  // EtherType -> 0x86DD (IPv6).
    bytes[13] = 0xDD;
    EXPECT_FALSE(hn::parse(bytes).has_value());
}

TEST(Packet, Ipv4ChecksumKnownVector)
{
    // RFC 1071 example-style check: checksum of a buffer then verify
    // that including the checksum yields zero.
    auto bytes = serialize(makeTcpPacket());
    const std::uint8_t *ipv4 = bytes.data() + hn::EthernetHeader::kWireSize;
    // Checksum over the header including the stored checksum is 0.
    EXPECT_EQ(hn::ipv4Checksum(ipv4, hn::Ipv4Header::kWireSize), 0);
}

TEST(FeatureExtract, FeatureVectorShapeAndRanges)
{
    hn::FeatureExtractor extractor;
    auto features = extractor.extract(makeTcpPacket());
    ASSERT_EQ(features.size(), hn::kNumTcFeatures);
    EXPECT_DOUBLE_EQ(features[0], makeTcpPacket().wireSize());
    EXPECT_DOUBLE_EQ(features[1], 63.0);
    EXPECT_DOUBLE_EQ(features[2], 6.0);
    EXPECT_GE(features[3], 0.0);
    EXPECT_LT(features[3], 8.0);  // default port buckets.
    EXPECT_GE(features[5], 0.0);
    EXPECT_LE(features[5], 1.0);
    EXPECT_GE(features[6], 0.0);
    EXPECT_LE(features[6], 1.0);
}

TEST(FeatureExtract, EntropyOrdersRandomAboveConstant)
{
    hn::FeatureExtractor extractor;
    auto constant = makeTcpPacket();
    constant.payload.assign(64, 0x42);
    auto random_pkt = makeTcpPacket();
    random_pkt.payload.resize(64);
    for (std::size_t i = 0; i < 64; ++i)
        random_pkt.payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
    double h_const = extractor.extract(constant)[6];
    double h_random = extractor.extract(random_pkt)[6];
    EXPECT_LT(h_const, h_random);
    EXPECT_NEAR(h_const, 0.0, 1e-9);
}

TEST(FeatureExtract, WirePathMatchesDirectExtraction)
{
    hn::FeatureExtractor extractor;
    auto packet = makeTcpPacket();
    auto direct = extractor.extract(packet);
    auto via_wire = extractor.extractFromWire(serialize(packet));
    ASSERT_TRUE(via_wire.has_value());
    EXPECT_EQ(*via_wire, direct);
}

TEST(FeatureExtract, MalformedWireYieldsNullopt)
{
    hn::FeatureExtractor extractor;
    EXPECT_FALSE(extractor.extractFromWire({1, 2, 3}).has_value());
}

TEST(FeatureExtract, ZeroPortBucketsIsRejected)
{
    hn::FeatureExtractorConfig config;
    config.portBuckets = 0;
    EXPECT_THROW(hn::FeatureExtractor{config}, std::invalid_argument);
}

TEST(FeatureExtract, EntropyMatchesReferenceBitForBit)
{
    // Sample sizes 1 and 7 hit the smallest tables, 64 is the default,
    // and 300 puts counts past 255 (a wrapping uint8_t counter fails).
    hc::Rng rng(5);
    std::size_t checked = 0, interior = 0;
    for (std::size_t sample_bytes : {1, 7, 64, 300}) {
        hn::FeatureExtractorConfig config;
        config.entropySampleBytes = sample_bytes;
        hn::FeatureExtractor extractor(config);
        hn::RawPacket packet = makeTcpPacket();
        for (std::size_t size = 0; size <= sample_bytes + 16; ++size)
            for (std::int64_t alphabet : {1, 2, 3, 16, 255, 256})
                for (bool skewed : {false, true}) {
                    packet.payload.resize(size);
                    for (std::uint8_t &byte : packet.payload) {
                        std::int64_t v = rng.uniformInt(0, alphabet - 1);
                        if (skewed)
                            v = std::min(v, rng.uniformInt(0, alphabet - 1));
                        // An odd multiplier spreads the alphabet over
                        // all four 64-value words of the bitmap.
                        byte = static_cast<std::uint8_t>((v * 97 + 13) & 0xFF);
                    }
                    double got = extractor.extract(packet)[6];
                    double want =
                        referenceEntropy(packet.payload, sample_bytes);
                    ASSERT_TRUE(sameBits(&got, &want, 1))
                        << "sample " << sample_bytes << " size " << size
                        << " alphabet " << alphabet << ": " << got
                        << " vs " << want;
                    ++checked;
                    interior += (want > 0.0 && want < 1.0) ? 1 : 0;
                }
    }
    EXPECT_GT(interior, checked / 2);
}

TEST(FeatureExtract, FramePathMatchesParsedPacketPath)
{
    hn::FeatureExtractor extractor;
    hc::Rng rng(31);
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::vector<double>> expected;
    for (std::size_t size = 0; size <= 1400; ++size)
        for (bool tcp : {true, false}) {
            hn::RawPacket packet = tcp ? makeTcpPacket() : makeUdpPacket();
            auto src_port = static_cast<std::uint16_t>(
                rng.uniformInt(0, 0xFFFF));
            auto dst_port = static_cast<std::uint16_t>(
                rng.uniformInt(0, 0xFFFF));
            if (tcp) {
                packet.tcp->srcPort = src_port;
                packet.tcp->dstPort = dst_port;
            } else {
                packet.udp->srcPort = src_port;
                packet.udp->dstPort = dst_port;
            }
            packet.ipv4.srcAddr = static_cast<std::uint32_t>(
                rng.uniformInt(0, 0xFFFFFFFF));
            packet.payload.resize(size);
            std::int64_t top = size % 3 == 0 ? 255 : 15;
            for (std::uint8_t &byte : packet.payload)
                byte = static_cast<std::uint8_t>(rng.uniformInt(0, top));
            frames.push_back(hn::serialize(packet));
        }

    for (const auto &frame : frames) {
        std::optional<hn::RawPacket> parsed = hn::parse(frame);
        ASSERT_TRUE(parsed.has_value());
        expected.push_back(extractor.extract(*parsed));

        hn::PacketHeaders headers;
        std::optional<std::size_t> offset =
            hn::parseHeaders(frame.data(), frame.size(), headers);
        ASSERT_TRUE(offset.has_value());
        EXPECT_EQ(*offset, frame.size() - parsed->payload.size());
        double row[hn::kNumTcFeatures];
        extractor.extractInto(headers, frame.data() + *offset,
                              frame.size() - *offset, row);
        EXPECT_TRUE(sameBits(row, expected.back().data(),
                             hn::kNumTcFeatures));
        auto via_wire = extractor.extractFromWire(frame);
        ASSERT_TRUE(via_wire.has_value());
        EXPECT_TRUE(sameBits(via_wire->data(), expected.back().data(),
                             hn::kNumTcFeatures));
    }

    // The serving front doors admit the same rows, one per frame (the
    // two servers' ticket ranges overlap, so each records its own).
    std::mutex rows_mutex;
    std::map<std::uint64_t, std::vector<double>> single_rows, shard_rows;
    auto recordInto = [&](auto &rows) {
        return [&](const hr::Request &request, int) {
            std::lock_guard<std::mutex> lock(rows_mutex);
            rows[request.id] = request.features;
        };
    };
    auto engine = hr::InferenceEngine::fromModel(packetSchemaModel(), {});
    hr::ServerConfig config;
    config.queue.maxDepth = 0;
    hr::Server server(engine, config, recordInto(single_rows));
    hr::ShardedServerConfig sharded_config;
    sharded_config.server = config;
    hr::ShardedServer sharded(engine, sharded_config,
                              recordInto(shard_rows));

    std::vector<std::pair<std::uint64_t, std::uint64_t>> tickets;
    for (const auto &frame : frames) {
        hr::SubmitResult single = server.submitFrame(frame);
        hr::SubmitResult shard = sharded.submitFrame(frame);
        ASSERT_TRUE(single.admitted());
        ASSERT_TRUE(shard.admitted());
        tickets.emplace_back(single.ticket, shard.ticket);
    }

    const auto malformed = malformedFrames();
    for (const auto &[name, frame] : malformed) {
        EXPECT_FALSE(hn::parse(frame).has_value()) << name;
        hn::PacketHeaders headers;
        EXPECT_FALSE(
            hn::parseHeaders(frame.data(), frame.size(), headers))
            << name;
        EXPECT_FALSE(extractor.extractFromWire(frame).has_value()) << name;
        EXPECT_EQ(server.submitFrame(frame).status,
                  hr::SubmitStatus::kMalformed)
            << name;
        EXPECT_EQ(sharded.submitFrame(frame).status,
                  hr::SubmitStatus::kMalformed)
            << name;
    }

    hr::ServerStats single_stats = server.stop();
    hr::ServerStats sharded_stats = sharded.stop();
    EXPECT_EQ(single_stats.malformedFrames, malformed.size());
    EXPECT_EQ(sharded_stats.malformedFrames, malformed.size());
    ASSERT_EQ(single_rows.size(), frames.size());
    ASSERT_EQ(shard_rows.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i)
        for (const std::vector<double> *row :
             {&single_rows.at(tickets[i].first),
              &shard_rows.at(tickets[i].second)}) {
            ASSERT_EQ(row->size(), hn::kNumTcFeatures);
            EXPECT_TRUE(sameBits(row->data(), expected[i].data(),
                                 hn::kNumTcFeatures))
                << "frame " << i;
        }
}

TEST(IotPackets, GeneratorProducesParsableLabeledPackets)
{
    hn::IotPacketConfig config;
    config.numPackets = 300;
    auto packets = hn::generateIotPackets(config);
    EXPECT_EQ(packets.size(), 300u);
    for (const auto &labeled : packets) {
        EXPECT_GE(labeled.deviceClass, 0);
        EXPECT_LT(labeled.deviceClass, 5);
        EXPECT_TRUE(hn::parse(serialize(labeled.packet)).has_value());
    }
}

TEST(IotPackets, DatasetFromPacketsIsLearnable)
{
    hn::IotPacketConfig config;
    config.numPackets = 800;
    auto packets = hn::generateIotPackets(config);
    hn::FeatureExtractor extractor;
    auto data = datasetFromPackets(packets, extractor);
    EXPECT_EQ(data.numSamples(), 800u);
    EXPECT_EQ(data.numFeatures(), hn::kNumTcFeatures);
    EXPECT_EQ(data.numClasses, 5);

    // Camera (class 0, big UDP) vs thermostat (class 4, small TCP) are
    // separable on size alone.
    double camera_mean = 0, thermo_mean = 0;
    std::size_t camera_n = 0, thermo_n = 0;
    for (std::size_t i = 0; i < data.numSamples(); ++i) {
        if (data.y[i] == 0) {
            camera_mean += data.x(i, 0);
            ++camera_n;
        } else if (data.y[i] == 4) {
            thermo_mean += data.x(i, 0);
            ++thermo_n;
        }
    }
    ASSERT_GT(camera_n, 0u);
    ASSERT_GT(thermo_n, 0u);
    EXPECT_GT(camera_mean / static_cast<double>(camera_n),
              thermo_mean / static_cast<double>(thermo_n));
}

TEST(IotPackets, DeterministicInSeed)
{
    hn::IotPacketConfig config;
    config.numPackets = 50;
    auto a = hn::generateIotPackets(config);
    auto b = hn::generateIotPackets(config);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(a[i].deviceClass, b[i].deviceClass);
        EXPECT_EQ(serialize(a[i].packet), serialize(b[i].packet));
    }
}
