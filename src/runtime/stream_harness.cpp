#include "runtime/stream_harness.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/string_util.hpp"
#include "math/stats.hpp"

namespace homunculus::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

StreamHarness::StreamHarness(InferenceEngine engine,
                             net::FeatureExtractor extractor,
                             std::optional<ml::StandardScaler> scaler,
                             StreamConfig config)
    : engine_(std::move(engine)), extractor_(std::move(extractor)),
      scaler_(std::move(scaler)), config_(config)
{
    if (config_.batchRows == 0)
        config_.batchRows = 1;
    if (engine_.plan().inputDim() != net::kNumTcFeatures)
        throw std::runtime_error(common::format(
            "StreamHarness: model expects %zu features but the packet "
            "extractor emits %zu",
            engine_.plan().inputDim(), net::kNumTcFeatures));
    if (scaler_ && !scaler_->fitted())
        throw std::runtime_error("StreamHarness: scaler is not fitted");
}

StreamStats
StreamHarness::replay(const std::vector<net::RawPacket> &packets) const
{
    return replayParsed(packets, packets.size());
}

StreamStats
StreamHarness::replayWire(
    const std::vector<std::vector<std::uint8_t>> &frames) const
{
    std::vector<net::RawPacket> packets;
    packets.reserve(frames.size());
    for (const auto &frame : frames) {
        if (auto packet = net::parse(frame))
            packets.push_back(std::move(*packet));
    }
    return replayParsed(packets, frames.size());
}

StreamStats
StreamHarness::replayParsed(const std::vector<net::RawPacket> &packets,
                            std::size_t offered) const
{
    StreamStats stats;
    stats.packetsOffered = offered;
    stats.packetsParsed = packets.size();

    const std::size_t dim = engine_.plan().inputDim();
    const std::size_t batch_rows = config_.batchRows;
    const std::size_t n = packets.size();
    stats.verdicts.resize(n);
    if (n == 0)
        return stats;
    const std::size_t num_batches = (n + batch_rows - 1) / batch_rows;
    stats.batches = num_batches;

    // Two micro-batch buffers: the producer extracts into one while the
    // consumer infers from the other. A slot is owned by the producer
    // while !full and by the consumer while full; ownership flips under
    // the mutex, so buffers are handed off, never shared.
    struct Slot
    {
        math::Matrix features;
        std::size_t rows = 0;
        bool full = false;
    };
    Slot slots[2];
    slots[0].features = math::Matrix(batch_rows, dim);
    slots[1].features = math::Matrix(batch_rows, dim);

    const double *means = nullptr;
    const double *stddevs = nullptr;
    if (scaler_) {
        means = scaler_->means().data();
        stddevs = scaler_->stddevs().data();
    }

    auto extractBatch = [&](std::size_t b, Slot &slot) {
        std::size_t row_base = b * batch_rows;
        std::size_t rows = std::min(batch_rows, n - row_base);
        // The final (drain) batch is smaller; shrink the buffer so the
        // engine sees exactly the remaining rows.
        if (rows != slot.features.rows())
            slot.features = math::Matrix(rows, dim);
        for (std::size_t i = 0; i < rows; ++i) {
            const net::RawPacket &packet = packets[row_base + i];
            double *row = slot.features.rowPtr(i);
            extractor_.extractInto(packet, packet.payload.data(),
                                   packet.payload.size(), row);
            if (means != nullptr)
                for (std::size_t c = 0; c < dim; ++c)
                    row[c] = (row[c] - means[c]) / stddevs[c];
        }
        slot.rows = rows;
    };

    std::vector<double> latencies_us;
    latencies_us.reserve(num_batches);
    auto inferBatch = [&](std::size_t b, Slot &slot) {
        auto started = Clock::now();
        engine_.run(slot.features,
                    stats.verdicts.data() + b * batch_rows);
        double seconds = secondsSince(started);
        stats.inferSeconds += seconds;
        stats.rowsClassified += slot.rows;
        latencies_us.push_back(seconds * 1e6);
    };

    auto wall_start = Clock::now();
    std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;
    std::exception_ptr producer_error;
    double extract_seconds = 0.0;

    std::thread producer([&] {
        try {
            for (std::size_t b = 0; b < num_batches; ++b) {
                Slot &slot = slots[b & 1];
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    cv.wait(lock, [&] { return !slot.full || stop; });
                    if (stop)
                        return;
                }
                auto started = Clock::now();
                extractBatch(b, slot);
                extract_seconds += secondsSince(started);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    slot.full = true;
                }
                cv.notify_all();
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                producer_error = std::current_exception();
                stop = true;
            }
            cv.notify_all();
        }
    });

    for (std::size_t b = 0; b < num_batches; ++b) {
        Slot &slot = slots[b & 1];
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return slot.full || stop; });
            if (stop)
                break;
        }
        inferBatch(b, slot);
        {
            std::lock_guard<std::mutex> lock(mutex);
            slot.full = false;
        }
        cv.notify_all();
    }
    {
        // Consumer-side exit (error case): release a waiting producer.
        std::lock_guard<std::mutex> lock(mutex);
        stop = true;
    }
    cv.notify_all();
    producer.join();
    stats.extractSeconds = extract_seconds;
    if (producer_error)
        std::rethrow_exception(producer_error);

    stats.wallSeconds = secondsSince(wall_start);

    stats.rowsPerSec = stats.wallSeconds > 0.0
                           ? static_cast<double>(stats.rowsClassified) /
                                 stats.wallSeconds
                           : 0.0;
    stats.p50BatchLatencyUs = math::percentileNearestRank(latencies_us,
                                                          0.50);
    stats.p99BatchLatencyUs = math::percentileNearestRank(latencies_us,
                                                          0.99);
    return stats;
}

}  // namespace homunculus::runtime
