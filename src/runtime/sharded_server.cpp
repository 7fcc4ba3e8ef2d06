#include "runtime/sharded_server.hpp"

#include <algorithm>

#include "net/packet.hpp"

namespace homunculus::runtime {

namespace {

/** Consistent-hash ring points per shard: enough to smooth the key
 *  distribution across shards while the ring stays small enough to
 *  binary-search per submit. */
constexpr std::size_t kVirtualNodes = 64;

/** splitmix64 finalizer: cheap, well-mixed 64-bit hash. Used both to
 *  place virtual nodes on the ring and to hash flow keys onto it, so
 *  correlated keys (sequential addresses, stride-allocated ports)
 *  still spread uniformly. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The per-shard ServerConfig: identical knobs, disjoint ticket
 *  namespace (see kShardTicketShift). A caller-supplied metrics
 *  registry is dropped: shards must stay independently snapshotable
 *  (and sharing one registry would collide every shard onto the same
 *  instruments) — metricsSnapshot() is the cross-shard merge. */
ServerConfig
shardConfig(const ServerConfig &base, std::size_t shard)
{
    ServerConfig config = base;
    config.metrics = nullptr;
    std::uint64_t low = base.ticketBase != 0 ? base.ticketBase : 1;
    config.ticketBase =
        (static_cast<std::uint64_t>(shard) << kShardTicketShift) + low;
    return config;
}

}  // namespace

std::uint64_t
flowKey(const net::PacketHeaders &packet)
{
    std::uint64_t addrs =
        (static_cast<std::uint64_t>(packet.ipv4.srcAddr) << 32) |
        packet.ipv4.dstAddr;
    std::uint32_t ports = 0;
    if (packet.tcp)
        ports = (static_cast<std::uint32_t>(packet.tcp->srcPort) << 16) |
                packet.tcp->dstPort;
    else if (packet.udp)
        ports = (static_cast<std::uint32_t>(packet.udp->srcPort) << 16) |
                packet.udp->dstPort;
    return splitmix64(addrs ^
                      (static_cast<std::uint64_t>(ports) << 8) ^
                      packet.ipv4.protocol);
}

ShardedServer::ShardedServer(const InferenceEngine &engine,
                             ShardedServerConfig config,
                             Server::VerdictFn on_verdict,
                             std::optional<ml::StandardScaler> scaler)
    : ShardedServer(singleModelRegistry(engine, std::move(scaler)),
                    singleModelRoute(), std::move(config),
                    std::move(on_verdict))
{
}

ShardedServer::ShardedServer(std::shared_ptr<ModelRegistry> registry,
                             RouteConfig route,
                             ShardedServerConfig config,
                             Server::VerdictFn on_verdict,
                             Server::RouteTraceFn on_trace)
{
    std::size_t shard_count = std::max<std::size_t>(config.shards, 1);
    servers_.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s)
        servers_.push_back(std::make_unique<Server>(
            registry, route, shardConfig(config.server, s), on_verdict,
            on_trace));
    buildRing(shard_count);
    const ServerConfig &base = config.server;
    frontMalformed_ = &frontMetrics_.counter("server.malformed_frames");
    frontCallbackErrors_ =
        &frontMetrics_.counter("server.callback_errors");
    std::uint64_t low = base.ticketBase != 0 ? base.ticketBase : 1;
    frontNextId_.store(
        (static_cast<std::uint64_t>(servers_.size())
         << kShardTicketShift) +
        low);
    onFailure_ = base.onFailure;
}

ShardedServer::~ShardedServer()
{
    stop();
}

void
ShardedServer::buildRing(std::size_t shard_count)
{
    ring_.reserve(shard_count * kVirtualNodes);
    for (std::size_t s = 0; s < shard_count; ++s)
        for (std::size_t v = 0; v < kVirtualNodes; ++v) {
            RingPoint point;
            // (shard, vnode) -> a stable pseudo-random ring position;
            // shard+1 keeps shard 0's nodes off the v-only pattern.
            point.hash = splitmix64(
                (static_cast<std::uint64_t>(s + 1) << 32) ^ v);
            point.shard = s;
            ring_.push_back(point);
        }
    std::sort(ring_.begin(), ring_.end());
}

std::size_t
ShardedServer::shardFor(std::uint64_t flow_key) const
{
    RingPoint probe;
    probe.hash = splitmix64(flow_key);
    auto it = std::upper_bound(ring_.begin(), ring_.end(), probe);
    if (it == ring_.end())
        it = ring_.begin();  // wrap: the ring is a circle.
    return it->shard;
}

SubmitResult
ShardedServer::submit(std::uint64_t flow_key,
                      std::vector<double> features, std::size_t lane)
{
    return servers_[shardFor(flow_key)]->submit(std::move(features),
                                                lane);
}

SubmitResult
ShardedServer::submitFrame(const std::vector<std::uint8_t> &frame,
                           std::size_t lane)
{
    // The flow key needs the headers; the owning shard re-parses them
    // (cheaper than handing a parsed copy across).
    net::PacketHeaders headers;
    if (!net::parseHeaders(frame.data(), frame.size(), headers)) {
        // Per-ticket malformed reporting, same contract as
        // Server::submitFrame — but from the front door's own ticket
        // namespace, since no shard ever saw the frame.
        std::uint64_t ticket = frontNextId_.fetch_add(1);
        frontMalformed_->add();
        if (onFailure_) {
            try {
                onFailure_(ticket, lane, "malformed frame");
            } catch (...) {
                frontCallbackErrors_->add();
            }
        }
        SubmitResult result;
        result.status = SubmitStatus::kMalformed;
        result.ticket = ticket;
        return result;
    }
    return servers_[shardFor(flowKey(headers))]->submitFrame(frame, lane);
}

telemetry::MetricsSnapshot
ShardedServer::metricsSnapshot() const
{
    telemetry::MetricsSnapshot merged =
        frontMetrics_.snapshot().withLabel("shard", "front");
    for (std::size_t s = 0; s < servers_.size(); ++s)
        merged.merge(servers_[s]->metrics().snapshot().withLabel(
            "shard", std::to_string(s)));
    return merged;
}

std::size_t
ShardedServer::depth() const
{
    std::size_t total = 0;
    for (const auto &server : servers_)
        total += server->depth();
    return total;
}

const std::vector<ServerStats> &
ShardedServer::shardStats() const
{
    return shardStats_;
}

ServerStats
ShardedServer::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stopped_)
        return mergedStats_;

    shardStats_.clear();
    shardStats_.reserve(servers_.size());
    for (auto &server : servers_)
        shardStats_.push_back(server->stop());

    // One stats path: pool every shard's registry with the front
    // door's (no shard label, so matching instruments fold together)
    // and materialize exactly as a single Server does.
    telemetry::MetricsSnapshot pooled = frontMetrics_.snapshot();
    for (const auto &server : servers_)
        pooled.merge(server->metrics().snapshot());
    ServerStats merged =
        statsFromSnapshot(pooled, servers_.front()->lanes(),
                          servers_.front()->router().models());
    // Shards ran concurrently; the run's wall time is the longest
    // shard's, not the sum.
    for (const ServerStats &s : shardStats_)
        merged.wallSeconds = std::max(merged.wallSeconds, s.wallSeconds);
    for (std::size_t m = 0; m < merged.models.size(); ++m) {
        // Every shard reads the one shared registry, so shard 0's
        // active version is the run's. "closed" everywhere merges to
        // closed; any tripped shard surfaces its state (first one
        // wins — enough to flag it).
        ModelStats &out = merged.models[m];
        out.activeVersion = shardStats_.front().models[m].activeVersion;
        for (const ServerStats &s : shardStats_)
            if (out.breakerState == "closed")
                out.breakerState = s.models[m].breakerState;
    }

    mergedStats_ = merged;
    stopped_ = true;
    return mergedStats_;
}

}  // namespace homunculus::runtime
