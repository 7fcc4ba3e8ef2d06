/**
 * @file
 * Tests for runtime::ShardedServer, the scale-out serving front door:
 * flow affinity (one flow key -> one shard, forever, with per-flow
 * verdict order preserved), verdict bit-exactness against a single
 * plan run, globally unique tickets with shard recovery, merged
 * ServerStats (counters summed, percentiles ranked over the pooled
 * reservoirs), consistent-hash spread across shards, the routed
 * (registry-backed) form, and the serving invariants with faults,
 * aging, early drop, chain deadlines and shards armed together. The
 * multi-shard submit/verdict paths run under TSAN in CI
 * (ShardedServer* is in the filter).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "math/stats.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"
#include "runtime/sharded_server.hpp"

namespace hc = homunculus::common;
namespace hi = homunculus::ir;
namespace hm = homunculus::math;
namespace hn = homunculus::net;
namespace hr = homunculus::runtime;

namespace {

/** A small deterministic MLP of the given shape. */
hi::ModelIr
mlpModel(std::uint64_t seed, std::size_t input_dim, std::size_t classes)
{
    hc::Rng rng(seed);
    hi::ModelIr model;
    model.kind = hi::ModelKind::kMlp;
    model.inputDim = input_dim;
    model.numClasses = static_cast<int>(classes);
    std::size_t prev = input_dim;
    for (std::size_t width : {std::size_t{12}, classes}) {
        hi::QuantizedLayer layer;
        layer.inputDim = prev;
        layer.outputDim = width;
        layer.weights.resize(prev * width);
        layer.biases.resize(width);
        for (auto &w : layer.weights)
            w = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        for (auto &b : layer.biases)
            b = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        model.layers.push_back(std::move(layer));
        prev = width;
    }
    model.validate();
    return model;
}

/** Deterministic feature rows in the extractor-ish value range. */
hm::Matrix
featureRows(std::uint64_t seed, std::size_t rows, std::size_t cols)
{
    hc::Rng rng(seed);
    hm::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(-2.0, 2.0);
    return x;
}

/** Fast-flush sharded config: @p shards shards, no admission limit. */
hr::ShardedServerConfig
shardedConfig(std::size_t shards)
{
    hr::ShardedServerConfig config;
    config.shards = shards;
    config.server.queue.maxBatch = 32;
    config.server.queue.maxDelayUs = 200;
    config.server.queue.maxDepth = 0;
    return config;
}

/** A parsed TCP packet with the given 5-tuple fields. */
hn::RawPacket
tuplePacket(std::uint32_t src_addr, std::uint32_t dst_addr,
            std::uint16_t src_port, std::uint16_t dst_port)
{
    hn::RawPacket packet;
    packet.ipv4.protocol = 6;  // TCP.
    packet.ipv4.srcAddr = src_addr;
    packet.ipv4.dstAddr = dst_addr;
    hn::TcpHeader tcp;
    tcp.srcPort = src_port;
    tcp.dstPort = dst_port;
    packet.tcp = tcp;
    return packet;
}

}  // namespace

TEST(ShardedServer, FlowKeyIsStablePerTupleAndSplitsDistinctFlows)
{
    auto a1 = hr::flowKey(tuplePacket(0x0a000001, 0x0a000002, 443, 5000));
    auto a2 = hr::flowKey(tuplePacket(0x0a000001, 0x0a000002, 443, 5000));
    EXPECT_EQ(a1, a2);  // frames of one flow share the key.
    EXPECT_NE(a1, hr::flowKey(tuplePacket(0x0a000001, 0x0a000002, 443,
                                          5001)));  // port differs.
    EXPECT_NE(a1, hr::flowKey(tuplePacket(0x0a000003, 0x0a000002, 443,
                                          5000)));  // address differs.
}

TEST(ShardedServer, ConsistentHashSpreadsFlowsAcrossEveryShard)
{
    auto model = mlpModel(3, 4, 3);
    hr::ShardedServer server(hr::InferenceEngine::fromModel(model, {}),
                             shardedConfig(4));
    ASSERT_EQ(server.shards(), 4u);

    std::vector<std::size_t> flows_per_shard(4, 0);
    constexpr std::size_t kFlows = 1000;
    for (std::uint64_t key = 0; key < kFlows; ++key) {
        std::size_t shard = server.shardFor(key);
        ASSERT_LT(shard, 4u);
        EXPECT_EQ(server.shardFor(key), shard);  // stable per key.
        ++flows_per_shard[shard];
    }
    // splitmix64 placement: every shard owns a healthy slice — no
    // empty shard, no shard hoarding most of the key space.
    for (std::size_t shard = 0; shard < 4; ++shard) {
        EXPECT_GT(flows_per_shard[shard], kFlows / 20);
        EXPECT_LT(flows_per_shard[shard], (kFlows * 6) / 10);
    }
    server.stop();
}

TEST(ShardedServer, FlowAffinityKeepsPerFlowVerdictOrderOnOneShard)
{
    auto model = mlpModel(5, 4, 3);
    constexpr std::size_t kFlows = 24;
    constexpr std::size_t kRowsPerFlow = 40;

    // The callback only records raw tickets: a shard's batcher can
    // serve a row before submit() even returns to this thread, so the
    // ticket -> (flow, seq) resolution has to wait until after stop().
    std::mutex mutex;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>> sent;
    std::vector<std::uint64_t> served;
    hr::ShardedServer server(
        hr::InferenceEngine::fromModel(model, {}), shardedConfig(4),
        [&](const hr::Request &request, int) {
            std::lock_guard<std::mutex> lock(mutex);
            served.push_back(request.id);
        });

    hm::Matrix x = featureRows(7, kRowsPerFlow, 4);
    std::set<std::uint64_t> tickets;
    for (std::size_t seq = 0; seq < kRowsPerFlow; ++seq)
        for (std::uint64_t flow = 0; flow < kFlows; ++flow) {
            std::uint64_t key = 0x9000 + flow * 131;
            hr::SubmitResult result = server.submit(key, x.row(seq));
            ASSERT_TRUE(result.admitted());
            // The ticket's high bits name the issuing shard, which must
            // be the flow's ring owner; tickets never collide across
            // shards.
            EXPECT_EQ(hr::ShardedServer::shardOfTicket(result.ticket),
                      server.shardFor(key));
            EXPECT_TRUE(tickets.insert(result.ticket).second);
            std::lock_guard<std::mutex> lock(mutex);
            sent[result.ticket] = {flow, seq};
        }
    server.stop();

    std::map<std::uint64_t, std::vector<std::size_t>> arrival_order;
    for (std::uint64_t ticket : served) {
        auto [flow, seq] = sent.at(ticket);
        arrival_order[flow].push_back(seq);
    }

    // One flow -> one shard -> one batcher: each flow's verdicts come
    // back in exactly its submission order, with nothing lost.
    ASSERT_EQ(arrival_order.size(), kFlows);
    for (const auto &[flow, order] : arrival_order) {
        ASSERT_EQ(order.size(), kRowsPerFlow) << "flow " << flow;
        for (std::size_t seq = 0; seq < kRowsPerFlow; ++seq)
            ASSERT_EQ(order[seq], seq) << "flow " << flow
                                       << " reordered";
    }
}

TEST(ShardedServer, VerdictsBitIdenticalToOnePlanRun)
{
    auto model = mlpModel(11, 4, 3);
    constexpr std::size_t kRows = 2000;
    hm::Matrix x = featureRows(13, kRows, 4);

    std::mutex mutex;
    std::map<std::uint64_t, int> verdicts;
    hr::ShardedServer server(
        hr::InferenceEngine::fromModel(model, {}), shardedConfig(3),
        [&](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(mutex);
            verdicts[request.id] = verdict;
        });

    std::map<std::uint64_t, std::size_t> ticket_row;
    for (std::size_t r = 0; r < kRows; ++r) {
        // Many distinct flows so every shard serves a slice.
        hr::SubmitResult result = server.submit(r * 2654435761u, x.row(r));
        ASSERT_TRUE(result.admitted());
        ticket_row[result.ticket] = r;
    }
    hr::ServerStats stats = server.stop();

    // Sharding is a routing decision, never a verdict decision: every
    // row classifies exactly as one plan run over the same matrix.
    std::vector<int> reference =
        hr::InferenceEngine::fromModel(model, {}).run(x);
    ASSERT_EQ(verdicts.size(), kRows);
    for (const auto &[ticket, row] : ticket_row)
        ASSERT_EQ(verdicts.at(ticket), reference[row]) << "row " << row;
    EXPECT_EQ(stats.rowsServed, kRows);
}

TEST(ShardedServer, EngineConstructorRejectsUnfittedOrMismatchedScaler)
{
    auto model = mlpModel(12, 4, 3);
    hr::InferenceEngine engine = hr::InferenceEngine::fromModel(model, {});
    EXPECT_THROW(hr::ShardedServer(engine, shardedConfig(2), {},
                                   homunculus::ml::StandardScaler()),
                 std::runtime_error);
    EXPECT_THROW(hr::ShardedServer(
                     engine, shardedConfig(2), {},
                     homunculus::ml::StandardScaler::fromMoments(
                         {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0})),
                 std::runtime_error);
}

TEST(ShardedServer, StopMergesShardStatsAndKeepsPerShardSlices)
{
    auto model = mlpModel(17, 4, 3);
    constexpr std::size_t kRows = 600;
    hm::Matrix x = featureRows(19, kRows, 4);

    hr::ShardedServer server(hr::InferenceEngine::fromModel(model, {}),
                             shardedConfig(4));
    for (std::size_t r = 0; r < kRows; ++r)
        ASSERT_TRUE(server.submit(r * 0x9e3779b9u, x.row(r)).admitted());
    // Malformed frames are counted at the sharded front door — no
    // shard ever sees an unparseable frame.
    EXPECT_EQ(server.submitFrame({0xde, 0xad}).status,
              hr::SubmitStatus::kMalformed);

    hr::ServerStats merged = server.stop();
    const std::vector<hr::ServerStats> &per_shard = server.shardStats();
    ASSERT_EQ(per_shard.size(), 4u);

    std::size_t rows_sum = 0, batches_sum = 0, accepted_sum = 0;
    for (const hr::ServerStats &shard : per_shard) {
        rows_sum += shard.rowsServed;
        batches_sum += shard.batches;
        accepted_sum += shard.queue.accepted;
    }
    EXPECT_EQ(merged.rowsServed, kRows);
    EXPECT_EQ(rows_sum, kRows);
    EXPECT_EQ(merged.batches, batches_sum);
    EXPECT_EQ(merged.queue.accepted, accepted_sum);
    EXPECT_EQ(merged.malformedFrames, 1u);
    EXPECT_GT(merged.p50RequestLatencyUs, 0.0);
    EXPECT_GE(merged.p99RequestLatencyUs, merged.p50RequestLatencyUs);
    EXPECT_GT(merged.p50BatchLatencyUs, 0.0);
    // The merged percentiles rank the pooled reservoirs: every shard's
    // request-latency histogram counts, summed, cover every row.
    const homunculus::runtime::telemetry::MetricsSnapshot snap =
        server.metricsSnapshot();
    std::uint64_t latency_count = 0;
    for (std::size_t s = 0; s < server.shards(); ++s)
        latency_count += snap.counterValue(
            "server.request_latency_us", {{"shard", std::to_string(s)}});
    EXPECT_EQ(latency_count, kRows);

    // stop() is idempotent and keeps returning the merged view.
    EXPECT_EQ(server.stop().rowsServed, kRows);
}

TEST(ShardedServer, RoutedShardsShareTheRegistryAndLaneBindings)
{
    hi::ModelIr a_ir = mlpModel(31, 4, 3);
    hi::ModelIr b_ir = mlpModel(32, 4, 3);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("a", a_ir);
    registry->load("b", b_ir);

    hr::RouteConfig route;
    route.defaultModel = "a";
    route.laneModels = {"a", "b"};

    hr::ShardedServerConfig config = shardedConfig(2);
    config.server.extraLanes = {config.server.queue};

    std::mutex mutex;
    std::map<std::uint64_t, int> verdicts;
    hr::ShardedServer server(
        registry, route, config,
        [&](const hr::Request &request, int verdict) {
            std::lock_guard<std::mutex> lock(mutex);
            verdicts[request.id] = verdict;
        });

    hm::Matrix x0 = featureRows(41, 120, 4);
    hm::Matrix x1 = featureRows(42, 80, 4);
    std::map<std::uint64_t, std::size_t> ticket_row0, ticket_row1;
    for (std::size_t r = 0; r < x0.rows(); ++r)
        ticket_row0[server.submit(r * 7919u, x0.row(r), 0).ticket] = r;
    for (std::size_t r = 0; r < x1.rows(); ++r)
        ticket_row1[server.submit(r * 104729u, x1.row(r), 1).ticket] = r;
    hr::ServerStats stats = server.stop();

    // Each lane's rows ran its bound model on whichever shard owned
    // the flow; merged model slices sum across shards.
    std::vector<int> ref0 = hr::InferenceEngine::fromModel(a_ir, {}).run(x0);
    std::vector<int> ref1 = hr::InferenceEngine::fromModel(b_ir, {}).run(x1);
    ASSERT_EQ(verdicts.size(), x0.rows() + x1.rows());
    for (const auto &[ticket, row] : ticket_row0)
        EXPECT_EQ(verdicts.at(ticket), ref0[row]);
    for (const auto &[ticket, row] : ticket_row1)
        EXPECT_EQ(verdicts.at(ticket), ref1[row]);

    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].name, "a");
    EXPECT_EQ(stats.models[0].rowsServed, x0.rows());
    EXPECT_EQ(stats.models[1].name, "b");
    EXPECT_EQ(stats.models[1].rowsServed, x1.rows());
    ASSERT_EQ(stats.lanes.size(), 2u);
    EXPECT_EQ(stats.lanes[0].rowsServed, x0.rows());
    EXPECT_EQ(stats.lanes[1].rowsServed, x1.rows());
}

TEST(ShardedServer, WireFramesRouteByFiveTupleWithVerdictsServed)
{
    auto model = mlpModel(23, hn::kNumTcFeatures, 4);
    hn::IotPacketConfig packet_config;
    packet_config.numPackets = 200;
    packet_config.seed = 7;

    std::mutex mutex;
    std::size_t delivered = 0;
    hr::ShardedServer server(
        hr::InferenceEngine::fromModel(model, {}), shardedConfig(2),
        [&](const hr::Request &, int) {
            std::lock_guard<std::mutex> lock(mutex);
            ++delivered;
        });

    for (const auto &labeled : hn::generateIotPackets(packet_config)) {
        hr::SubmitResult result =
            server.submitFrame(hn::serialize(labeled.packet));
        ASSERT_TRUE(result.admitted());
        // The frame's ticket shard matches its parsed flow key's ring
        // owner — frames of one flow serialize onto one batcher.
        EXPECT_EQ(hr::ShardedServer::shardOfTicket(result.ticket),
                  server.shardFor(hr::flowKey(labeled.packet)));
    }
    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.rowsServed, 200u);
    EXPECT_EQ(stats.malformedFrames, 0u);
    EXPECT_EQ(delivered, 200u);
}

// --------------------------------------------- front-door failure path

TEST(ShardedServer, MalformedFrameGetsAFrontDoorTicketAndFailureCall)
{
    auto model = mlpModel(23, hn::kNumTcFeatures, 3);
    hr::ShardedServerConfig config = shardedConfig(2);

    std::mutex failure_mutex;
    std::vector<std::pair<std::uint64_t, std::size_t>> failures;
    config.server.onFailure = [&](std::uint64_t ticket, std::size_t lane,
                                  const std::string &error) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        EXPECT_NE(error.find("malformed"), std::string::npos);
        failures.emplace_back(ticket, lane);
    };
    hr::ShardedServer server(hr::InferenceEngine::fromModel(model, {}),
                             config);

    hr::SubmitResult first = server.submitFrame({0xba, 0xad}, 1);
    hr::SubmitResult second = server.submitFrame({0x00});
    EXPECT_EQ(first.status, hr::SubmitStatus::kMalformed);
    EXPECT_EQ(second.status, hr::SubmitStatus::kMalformed);

    // Front-door tickets live in their own namespace — shardOfTicket
    // recovers shards() (not any real shard), and the sequence is
    // monotone like every other ticket sequence.
    EXPECT_EQ(hr::ShardedServer::shardOfTicket(first.ticket),
              server.shards());
    EXPECT_EQ(hr::ShardedServer::shardOfTicket(second.ticket),
              server.shards());
    EXPECT_GT(second.ticket, first.ticket);

    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0], std::make_pair(first.ticket,
                                          std::size_t{1}));
    EXPECT_EQ(failures[1], std::make_pair(second.ticket,
                                          std::size_t{0}));

    hr::ServerStats stats = server.stop();
    EXPECT_EQ(stats.malformedFrames, 2u);
    EXPECT_EQ(stats.failedRows, 0u);  // rejected at parse != admitted.
}

TEST(ShardedServer, MetricsSnapshotTagsShardsAndSumsToMergedStats)
{
    auto model = mlpModel(29, 4, 3);
    constexpr std::size_t kRows = 400;
    hm::Matrix x = featureRows(31, kRows, 4);

    hr::ShardedServer server(hr::InferenceEngine::fromModel(model, {}),
                             shardedConfig(2));
    for (std::size_t r = 0; r < kRows; ++r)
        ASSERT_TRUE(server.submit(r * 0x9e3779b9u, x.row(r)).admitted());
    EXPECT_EQ(server.submitFrame({0xff}).status,
              hr::SubmitStatus::kMalformed);
    hr::ServerStats merged = server.stop();

    namespace ht = homunculus::runtime::telemetry;
    const ht::MetricsSnapshot snap = server.metricsSnapshot();

    // Per-shard slices carry their own label and sum to the merged
    // struct — the same arithmetic ShardedServer::stop used.
    std::uint64_t served = 0;
    for (std::size_t s = 0; s < server.shards(); ++s)
        served += snap.counterValue(
            "server.rows_served", {{"shard", std::to_string(s)}});
    EXPECT_EQ(served, merged.rowsServed);
    EXPECT_EQ(snap.sumCounters("server.rows_served"), merged.rowsServed);
    EXPECT_EQ(snap.sumCounters("queue.accepted"), merged.queue.accepted);

    // The malformed frame was rejected at the front door, so its count
    // lives in the {shard=front} slice, not in any shard's.
    EXPECT_EQ(snap.counterValue("server.malformed_frames",
                                {{"shard", "front"}}),
              1u);
    for (std::size_t s = 0; s < server.shards(); ++s)
        EXPECT_EQ(snap.counterValue("server.malformed_frames",
                                    {{"shard", std::to_string(s)}}),
                  0u);
}

// ------------------------------------- invariants, everything armed

TEST(ShardedServer, InvariantsHoldWithFaultsAgingDeadlinesAndShards)
{
    namespace hf = homunculus::runtime::faults;
    namespace ht = homunculus::runtime::telemetry;
    constexpr std::size_t kRows = 3000;
    hi::ModelIr front_ir = mlpModel(71, 4, 3);
    hi::ModelIr deep_ir = mlpModel(72, 4, 3);
    hm::Matrix x = featureRows(73, kRows, 4);
    auto registry = std::make_shared<hr::ModelRegistry>();
    registry->load("front", front_ir);
    registry->load("deep", deep_ir);

    // Chain on the entry model's first label so a real share of rows
    // takes the second hop (and can blow the chain deadline).
    int hot = hr::InferenceEngine::fromModel(front_ir, {}).run(x).front();
    hr::RouteConfig route;
    route.defaultModel = "front";
    route.chain = {{"front", hot, "deep"}};
    route.deadlineUs = 300;

    hf::FaultInjector injector;
    injector.arm(hf::kSiteRouterHop, 0.2, 5);
    injector.arm(hf::kSiteQueueFlush, 0.1, 6);

    // The bulk lane drops rows older than 1 ms at flush; the probe
    // lane's drop budget is out of reach, so its poison rows below
    // always reach the batcher and fail — on slow (sanitized) builds
    // too, where most bulk rows age out.
    hr::ShardedServerConfig config;
    config.shards = 2;
    config.server.queue = {8, 100, 256, 60'000'000};  // probe lane.
    config.server.extraLanes = {{64, 400, 0, 1000}};   // bulk lane.
    config.server.backpressure = hr::BackpressureMode::kEarlyDrop;
    config.server.fairnessAgingUs = 100;
    config.server.retryDepth = 2;
    config.server.injector = &injector;
    hr::ShardedServer server(registry, route, config);

    // Non-finite rows are poison: their batch throws, bisect-retries,
    // and fails the slice the poison row ends up in.
    std::vector<double> poison(4, std::numeric_limits<double>::quiet_NaN());
    for (std::uint64_t flow = 0; flow < 4; ++flow)
        ASSERT_TRUE(server.submit(flow * 7919u, poison, 0).admitted());
    for (std::size_t r = 0; r < kRows; ++r)
        server.submit(r * 0x9e3779b9u, x.row(r), r % 4 == 0 ? 0 : 1);
    EXPECT_EQ(server.submitFrame({0xde, 0xad}).status,
              hr::SubmitStatus::kMalformed);
    hr::ServerStats merged = server.stop();
    const std::vector<hr::ServerStats> &shards = server.shardStats();
    ASSERT_EQ(shards.size(), 2u);
    const ht::MetricsSnapshot snap = server.metricsSnapshot();

    // Retries and failures happened, so the invariants below are not
    // vacuous.
    EXPECT_GE(merged.failedRows, 4u);
    EXPECT_GT(merged.retriedBatches, 0u);
    EXPECT_GT(merged.rowsServed, 0u);
    EXPECT_EQ(merged.malformedFrames, 1u);

    // 1. Every admitted request resolves exactly once, per shard and
    //    merged.
    auto resolved = [](const hr::ServerStats &stats) {
        return stats.rowsServed + stats.failedRows +
               stats.queue.earlyDropped;
    };
    for (const hr::ServerStats &shard : shards)
        EXPECT_EQ(resolved(shard), shard.queue.accepted);
    EXPECT_EQ(resolved(merged), merged.queue.accepted);

    // 2. Every merged counter is the sum over the shards plus the
    //    front door (which only ever counts malformed frames and their
    //    callback errors).
    auto front = [&](const char *name) {
        return static_cast<std::size_t>(
            snap.counterValue(name, {{"shard", "front"}}));
    };
    auto sum = [&](auto field) {
        std::size_t total = 0;
        for (const hr::ServerStats &shard : shards)
            total += field(shard);
        return total;
    };
    EXPECT_EQ(merged.rowsServed, sum([](auto &s) { return s.rowsServed; }));
    EXPECT_EQ(merged.batches, sum([](auto &s) { return s.batches; }));
    EXPECT_EQ(merged.failedBatches,
              sum([](auto &s) { return s.failedBatches; }));
    EXPECT_EQ(merged.failedRows, sum([](auto &s) { return s.failedRows; }));
    EXPECT_EQ(merged.retriedBatches,
              sum([](auto &s) { return s.retriedBatches; }));
    EXPECT_EQ(merged.deadlineTruncated,
              sum([](auto &s) { return s.deadlineTruncated; }));
    EXPECT_EQ(merged.fallbackRows,
              sum([](auto &s) { return s.fallbackRows; }));
    EXPECT_EQ(merged.malformedFrames,
              sum([](auto &s) { return s.malformedFrames; }) +
                  front("server.malformed_frames"));
    EXPECT_EQ(merged.callbackErrors,
              sum([](auto &s) { return s.callbackErrors; }) +
                  front("server.callback_errors"));
    auto expect_queue_sum = [&](const hr::QueueCounters &out,
                                auto lane_of) {
        hr::QueueCounters total;
        for (const hr::ServerStats &shard : shards)
            total += lane_of(shard);
        EXPECT_EQ(out.accepted, total.accepted);
        EXPECT_EQ(out.shed, total.shed);
        EXPECT_EQ(out.blockTimeouts, total.blockTimeouts);
        EXPECT_EQ(out.earlyDropped, total.earlyDropped);
        EXPECT_EQ(out.rejectedClosed, total.rejectedClosed);
        EXPECT_EQ(out.sizeFlushes, total.sizeFlushes);
        EXPECT_EQ(out.deadlineFlushes, total.deadlineFlushes);
        EXPECT_EQ(out.drainFlushes, total.drainFlushes);
        EXPECT_EQ(out.agedFlushes, total.agedFlushes);
    };
    expect_queue_sum(merged.queue, [](auto &s) { return s.queue; });
    ASSERT_EQ(merged.lanes.size(), 2u);
    for (std::size_t lane = 0; lane < merged.lanes.size(); ++lane) {
        const hr::LaneStats &out = merged.lanes[lane];
        expect_queue_sum(out.queue,
                         [&](auto &s) { return s.lanes[lane].queue; });
        EXPECT_EQ(out.rowsServed,
                  sum([&](auto &s) { return s.lanes[lane].rowsServed; }));
        EXPECT_EQ(out.rowsFailed,
                  sum([&](auto &s) { return s.lanes[lane].rowsFailed; }));
        EXPECT_EQ(out.batches,
                  sum([&](auto &s) { return s.lanes[lane].batches; }));
    }
    ASSERT_EQ(merged.models.size(), 2u);
    for (std::size_t m = 0; m < merged.models.size(); ++m) {
        const hr::ModelStats &out = merged.models[m];
        EXPECT_EQ(out.rowsServed,
                  sum([&](auto &s) { return s.models[m].rowsServed; }));
        EXPECT_EQ(out.batches,
                  sum([&](auto &s) { return s.models[m].batches; }));
        EXPECT_EQ(out.breakerOpens,
                  sum([&](auto &s) { return s.models[m].breakerOpens; }));
        EXPECT_EQ(out.breakerFallbackRows, sum([&](auto &s) {
                      return s.models[m].breakerFallbackRows;
                  }));
    }

    // 3. Merged percentiles are the nearest-rank values over every
    //    shard's request-latency samples, pooled.
    std::vector<double> pooled;
    for (const ht::MetricsSnapshot::Entry &entry : snap.entries)
        if (entry.name == "server.request_latency_us")
            pooled.insert(pooled.end(), entry.samples.begin(),
                          entry.samples.end());
    EXPECT_EQ(pooled.size(), merged.rowsServed);
    EXPECT_EQ(merged.p50RequestLatencyUs,
              hm::percentileNearestRank(pooled, 0.50));
    EXPECT_EQ(merged.p99RequestLatencyUs,
              hm::percentileNearestRank(pooled, 0.99));
}
