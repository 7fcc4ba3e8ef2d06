/**
 * @file
 * The three serving workloads: wire_flood, routed_sharded, lanes_paced.
 *
 * Every admitted ticket is checked against a reference label computed
 * before the run with ir::executeIr (the program's reference
 * interpreter) on the same scaled row, and every ticket must resolve to
 * exactly one outcome. The OutcomeBook pairs the producer's record of a
 * ticket (expected label, start time) with the server's outcome callback
 * for it, in whichever order the two arrive, in fixed memory.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "ir/model_ir.hpp"
#include "ir/serialize.hpp"
#include "ml/preprocess.hpp"
#include "models.hpp"
#include "net/feature_extract.hpp"
#include "net/packet.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_server.hpp"
#include "runtime/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hr = homunculus::runtime;
namespace hn = homunculus::net;
namespace hm = homunculus::math;
namespace hir = homunculus::ir;
using homunculus::core::Algorithm;
using homunculus::ml::StandardScaler;

namespace {

constexpr int kOutcomeFailed = -1;
constexpr int kOutcomeDropped = -2;
/** Expected label of a ticket that was never admitted (malformed). */
constexpr int kNoExpectation = -3;

/** Setups per run with trace off; setup_s is their median. */
constexpr int kSetupRepetitions = 3;
/** How long a blocked submit of the flooding workloads waits for queue
 *  room. The library default (10 ms) is shorter than the time a batcher
 *  thread can sit descheduled on a busy shared host, which made a
 *  handful of submits per run fail, a different handful each run; a
 *  healthy server frees room long before this, so a submit that still
 *  times out marks a server that stopped making progress. */
constexpr std::uint64_t kBlockTimeoutUs = 2'000'000;
/** routed_sharded: producer 0 swaps `front` every this many rows. */
constexpr std::uint64_t kSwapEveryRows = 16384;
/** lanes_paced offered load, frames per second. */
constexpr double kPacedRate = 150'000.0;
/** lanes_paced: every this many-th frame goes to the probe lane. */
constexpr std::size_t kProbeEvery = 16;
/** Throughput and latency are taken per window of this length and
 *  reported as the median over the phase's whole windows, so a host
 *  stall in a few windows does not move them. */
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::size_t kMaxWindows = 128;
/** A window's latency percentile needs at least this many samples. */
constexpr std::size_t kMinWindowSamples = 1000;
/** log2 of the book's ticket slots per namespace. A namespace can hold
 *  at most 2 x 8192 queued tickets plus a batch in flight; the rest is
 *  room for a producer descheduled between its submit and its entry in
 *  the book while another producer goes on. */
constexpr unsigned kBookWindowLog2 = 17;
/** Latency samples kept per lane; beyond that the sample is uniform. */
constexpr std::size_t kLatencySamples = std::size_t{1} << 18;

// ------------------------------------------------------------- inputs

/** The frames every serving workload cycles through, made from the
 *  seed: IoT packets, their wire bytes, and the features the server's
 *  extractor sees for them. */
struct TrafficPool
{
    std::vector<hn::RawPacket> packets;
    std::vector<std::vector<std::uint8_t>> frames;
    hm::Matrix rows;  ///< raw extractor features, one row per frame.
    std::vector<std::uint64_t> flowKeys;

    std::size_t size() const { return frames.size(); }
    std::vector<double> row(std::size_t i) const
    {
        const double *p = rows.rowPtr(i);
        return {p, p + rows.cols()};
    }
};

TrafficPool
makeTrafficPool(std::uint64_t seed)
{
    hn::IotPacketConfig config;
    config.numPackets = kPoolSize;
    config.seed = seed;
    std::vector<hn::LabeledPacket> labeled = hn::generateIotPackets(config);
    std::mt19937_64 rng(seed ^ 0x5EEDull);
    std::shuffle(labeled.begin(), labeled.end(), rng);

    TrafficPool pool;
    hn::FeatureExtractor extractor;
    pool.rows = hm::Matrix(labeled.size(), hn::kNumTcFeatures);
    for (std::size_t i = 0; i < labeled.size(); ++i) {
        std::vector<std::uint8_t> frame = hn::serialize(labeled[i].packet);
        std::optional<hn::RawPacket> parsed = hn::parse(frame);
        if (!parsed)
            throw std::runtime_error("generated frame does not parse");
        std::vector<double> features = extractor.extract(*parsed);
        std::copy(features.begin(), features.end(), pool.rows.rowPtr(i));
        pool.flowKeys.push_back(hr::flowKey(*parsed));
        pool.packets.push_back(std::move(*parsed));
        pool.frames.push_back(std::move(frame));
    }
    return pool;
}

StandardScaler
artifactScaler(const hir::ModelIr &model)
{
    if (!model.hasScaler())
        throw std::runtime_error("compiled model carries no scaler");
    return StandardScaler::fromMoments(model.scalerMeans, model.scalerStds);
}

/** ir::executeIr of @p model on every pool row, scaled by the model's
 *  artifact scaler. */
std::vector<int>
referenceLabels(const hir::ModelIr &model, const hm::Matrix &rows)
{
    hm::Matrix scaled = artifactScaler(model).transform(rows);
    std::vector<int> labels(rows.rows());
    for (std::size_t r = 0; r < rows.rows(); ++r) {
        const double *p = scaled.rowPtr(r);
        labels[r] = hir::executeIr(model, {p, p + scaled.cols()});
    }
    return labels;
}

/** Routed reference: the front tree's label, or the deep model's when
 *  the tree says 1 or 3 (the chain rules of routed_sharded). */
std::vector<int>
chainReferenceLabels(const hir::ModelIr &front, const hir::ModelIr &deep,
                     const hm::Matrix &rows)
{
    std::vector<int> labels = referenceLabels(front, rows);
    std::vector<int> deep_labels = referenceLabels(deep, rows);
    for (std::size_t r = 0; r < labels.size(); ++r)
        if (labels[r] == 1 || labels[r] == 3)
            labels[r] = deep_labels[r];
    return labels;
}

// -------------------------------------------------------- outcome book

/** What one side of the book resolved. */
struct Tally
{
    std::atomic<std::uint64_t> records{0};  ///< expects or outcomes.
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> mismatched{0};
    std::atomic<std::int64_t> lastOutcomeNs{0};

    void reset()
    {
        for (auto *count : {&records, &served, &failed, &dropped, &mismatched})
            count->store(0);
        lastOutcomeNs.store(0);
    }
};

struct BookTotals
{
    std::uint64_t expects = 0;
    std::uint64_t outcomes = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t stale = 0;
    std::int64_t lastOutcomeNs = 0;

    BookTotals operator-(const BookTotals &o) const
    {
        BookTotals d = *this;
        d.expects -= o.expects;
        d.outcomes -= o.outcomes;
        d.served -= o.served;
        d.failed -= o.failed;
        d.dropped -= o.dropped;
        d.mismatched -= o.mismatched;
        d.stale -= o.stale;
        return d;
    }
};

/**
 * Pairs each ticket's producer record with its outcome. A ticket lives
 * in a slot of its ticket namespace (ShardedServer shard, from the
 * ticket's high bits) until both sides arrived; the second arrival
 * checks the verdict against the expected label, records the latency
 * when the ticket is sampled, and frees the slot. A slot still taken
 * when a later ticket needs it, or at the end, is an accounting error.
 * Once a phase starts, verdicts are counted per window of delivery and
 * latencies tagged with the window their request started in.
 */
class OutcomeBook
{
  public:
    /**
     * @param namespaces ticket namespaces (shards, plus one for a sharded
     *        front door)
     * @param window_log2 log2 of the slots per namespace: the most
     *        tickets of one namespace that may be unresolved at once
     * @param sample_log2 latency is recorded for one ticket in
     *        2^sample_log2
     * @param lanes lanes with their own latency sample
     * @param samples_per_lane capacity of each lane's latency sample
     */
    OutcomeBook(std::size_t namespaces, unsigned window_log2,
                unsigned sample_log2, std::size_t lanes,
                std::size_t samples_per_lane, std::uint64_t seed)
        : mask_((std::uint64_t{1} << window_log2) - 1),
          sampleMask_((std::uint64_t{1} << sample_log2) - 1),
          sampleShift_(sample_log2)
    {
        for (std::size_t n = 0; n < namespaces; ++n) {
            spaces_.push_back(std::make_unique<Space>(mask_ + 1, sample_log2));
        }
        for (std::size_t l = 0; l < lanes; ++l)
            latencyUs_.push_back(
                std::make_unique<Reservoir>(samples_per_lane, seed + l));
    }

    OutcomeBook(const OutcomeBook &) = delete;
    OutcomeBook &operator=(const OutcomeBook &) = delete;

    /** Producer side, after a submit returned @p ticket. @p tally is the
     *  calling producer's own. */
    void expect(std::uint64_t ticket, int expected, std::int64_t start_ns,
                std::size_t lane, bool sample, Tally &tally)
    {
        tally.records.fetch_add(1, std::memory_order_relaxed);
        Space *space = spaceOf(ticket);
        if (space == nullptr)
            return;
        std::uint64_t index = ticket & mask_;
        Slot &slot = space->slots[index];
        if (!claim(slot, kOutcomeBit, &Slot::outcomeTag, ticket))
            return;
        slot.expectTag = static_cast<std::uint32_t>(ticket);
        slot.expected = static_cast<std::int16_t>(expected);
        slot.lane = static_cast<std::uint8_t>(lane);
        slot.sample = sample ? 1 : 0;
        if (sampled(ticket))
            space->startNs[index >> sampleShift_] = start_ns;
        arrive(*space, slot, index, kExpectBit, tally);
    }

    /** Start counting windows at @p first_ns. */
    void startPhase(std::int64_t first_ns, std::size_t windows)
    {
        windows_.store(std::min(windows, kMaxWindows),
                       std::memory_order_relaxed);
        phaseStartNs_.store(first_ns, std::memory_order_release);
    }

    /** Verdicts delivered in each of the phase's windows, per second. */
    std::vector<double> rowsPerSecondByWindow() const
    {
        std::vector<double> rates(windows_.load(), 0.0);
        for (const auto &space : spaces_)
            for (std::size_t w = 0; w < rates.size(); ++w)
                rates[w] += static_cast<double>(space->windowServed[w].load()) *
                            1e9 / static_cast<double>(kWindowNs);
        return rates;
    }

    /** Server side: a verdict (>= 0) or kOutcomeFailed/kOutcomeDropped. */
    void outcome(std::uint64_t ticket, int outcome)
    {
        std::int64_t now = nowNs();
        Space *space = spaceOf(ticket);
        if (space == nullptr)
            return;
        if (outcome >= 0) {
            std::size_t w = windowOf(now);
            if (w < windows_.load(std::memory_order_relaxed))
                space->windowServed[w].fetch_add(1, std::memory_order_relaxed);
        }
        Tally &tally = space->tally;
        tally.records.fetch_add(1, std::memory_order_relaxed);
        std::int64_t last = tally.lastOutcomeNs.load(std::memory_order_relaxed);
        while (now > last && !tally.lastOutcomeNs.compare_exchange_weak(
                                 last, now, std::memory_order_relaxed)) {
        }
        std::uint64_t index = ticket & mask_;
        Slot &slot = space->slots[index];
        if (!claim(slot, kExpectBit, &Slot::expectTag, ticket))
            return;
        slot.outcomeTag = static_cast<std::uint32_t>(ticket);
        slot.outcome = static_cast<std::int16_t>(outcome);
        if (sampled(ticket))
            space->endNs[index >> sampleShift_] = now;
        arrive(*space, slot, index, kOutcomeBit, tally);
    }

    /** Sum of both sides; @p producers are the producer tallies. */
    BookTotals totals(const std::vector<const Tally *> &producers) const
    {
        BookTotals t;
        auto add = [&](const Tally &tally, bool producer) {
            (producer ? t.expects : t.outcomes) += tally.records.load();
            t.served += tally.served.load();
            t.failed += tally.failed.load();
            t.dropped += tally.dropped.load();
            t.mismatched += tally.mismatched.load();
            t.lastOutcomeNs =
                std::max(t.lastOutcomeNs, tally.lastOutcomeNs.load());
        };
        for (const Tally *tally : producers)
            add(*tally, true);
        for (const auto &space : spaces_)
            add(space->tally, false);
        t.stale = stale_.load();
        return t;
    }

    /** Slots still holding one side of a ticket (call when quiesced). */
    std::size_t pending() const
    {
        std::size_t open = 0;
        for (const auto &space : spaces_)
            for (std::uint64_t i = 0; i <= mask_; ++i)
                open += space->slots[i].state.load() != 0 ? 1 : 0;
        return open;
    }

    std::size_t lanes() const { return latencyUs_.size(); }

    /** Latency samples of @p lane, by the window their request started
     *  in. */
    std::vector<std::vector<double>> latencyUs(std::size_t lane) const
    {
        return latencyUs_.at(lane)->samplesByTag(windows_.load());
    }

    std::vector<std::vector<double>> latencyUsAllLanes() const
    {
        std::vector<std::vector<double>> all(windows_.load());
        for (std::size_t lane = 0; lane < latencyUs_.size(); ++lane) {
            auto part = latencyUs(lane);
            for (std::size_t w = 0; w < all.size(); ++w)
                all[w].insert(all[w].end(), part[w].begin(), part[w].end());
        }
        return all;
    }

  private:
    static constexpr std::uint8_t kExpectBit = 1;
    static constexpr std::uint8_t kOutcomeBit = 2;

    struct Slot
    {
        std::atomic<std::uint8_t> state{0};
        std::uint8_t lane = 0;
        std::uint8_t sample = 0;
        std::int16_t expected = 0;
        std::int16_t outcome = 0;
        std::uint32_t expectTag = 0;
        std::uint32_t outcomeTag = 0;
    };

    struct Space
    {
        Space(std::uint64_t slot_count, unsigned sample_log2)
            : slots(new Slot[slot_count]),
              startNs((slot_count >> sample_log2) + 1, 0),
              endNs((slot_count >> sample_log2) + 1, 0),
              windowServed(new std::atomic<std::uint64_t>[kMaxWindows]())
        {
        }
        std::unique_ptr<Slot[]> slots;
        std::vector<std::int64_t> startNs;
        std::vector<std::int64_t> endNs;
        std::unique_ptr<std::atomic<std::uint64_t>[]> windowServed;
        alignas(64) Tally tally;
    };

    /** The phase window @p t_ns falls in (>= windows_ when outside). */
    std::size_t windowOf(std::int64_t t_ns) const
    {
        std::int64_t start = phaseStartNs_.load(std::memory_order_acquire);
        if (start == 0 || t_ns < start)
            return kMaxWindows;
        return static_cast<std::size_t>((t_ns - start) / kWindowNs);
    }

    Space *spaceOf(std::uint64_t ticket)
    {
        std::size_t space = hr::ShardedServer::shardOfTicket(ticket);
        if (space >= spaces_.size()) {
            stale_.fetch_add(1);
            return nullptr;
        }
        return spaces_[space].get();
    }

    bool sampled(std::uint64_t ticket) const
    {
        return (ticket & sampleMask_) == 0;
    }

    /** May this side write the slot? Only when it is free, or holds
     *  just the other side (@p other_bit, whose tag is @p other_tag) of
     *  this very ticket; anything else is a stale slot. */
    bool claim(Slot &slot, std::uint8_t other_bit,
               std::uint32_t Slot::*other_tag, std::uint64_t ticket)
    {
        std::uint8_t state = slot.state.load(std::memory_order_acquire);
        if (state == 0)
            return true;
        if (state == other_bit &&
            slot.*other_tag == static_cast<std::uint32_t>(ticket))
            return true;
        stale_.fetch_add(1);
        return false;
    }

    void arrive(Space &space, Slot &slot, std::uint64_t index,
                std::uint8_t bit, Tally &tally)
    {
        std::uint8_t before =
            slot.state.fetch_or(bit, std::memory_order_acq_rel);
        if ((before & bit) != 0) {
            stale_.fetch_add(1);  // the same side twice for one ticket
            return;
        }
        if (before == 0)
            return;  // first to arrive; the other side completes
        complete(space, slot, index, tally);
    }

    void complete(Space &space, Slot &slot, std::uint64_t index,
                  Tally &tally)
    {
        if (slot.expectTag != slot.outcomeTag) {
            stale_.fetch_add(1);
        } else if (slot.outcome >= 0) {
            tally.served.fetch_add(1, std::memory_order_relaxed);
            if (slot.outcome != slot.expected)
                tally.mismatched.fetch_add(1, std::memory_order_relaxed);
            if (slot.sample != 0 && sampled(slot.expectTag)) {
                std::uint64_t s = index >> sampleShift_;
                std::size_t w = windowOf(space.startNs[s]);
                latencyUs_[slot.lane < latencyUs_.size() ? slot.lane : 0]
                    ->add(static_cast<double>(space.endNs[s] -
                                              space.startNs[s]) *
                              1e-3,
                          static_cast<std::uint32_t>(
                              std::min(w, kMaxWindows)));
            }
        } else if (slot.outcome == kOutcomeDropped) {
            tally.dropped.fetch_add(1, std::memory_order_relaxed);
        } else {
            tally.failed.fetch_add(1, std::memory_order_relaxed);
        }
        slot.state.store(0, std::memory_order_release);
    }

    std::uint64_t mask_;
    std::uint64_t sampleMask_;
    unsigned sampleShift_;
    std::vector<std::unique_ptr<Space>> spaces_;
    std::vector<std::unique_ptr<Reservoir>> latencyUs_;
    std::atomic<std::uint64_t> stale_{0};
    std::atomic<std::int64_t> phaseStartNs_{0};
    std::atomic<std::size_t> windows_{0};
};

/** The flood workloads' book: latency sampled for one ticket in 16. */
std::unique_ptr<OutcomeBook>
floodBook(std::size_t namespaces, std::uint64_t seed)
{
    return std::make_unique<OutcomeBook>(namespaces, kBookWindowLog2, 4, 1,
                                         kLatencySamples, seed);
}

/** The server's outcome callbacks, all feeding @p book. */
hr::ServerConfig
withOutcomeSinks(hr::ServerConfig config, OutcomeBook &book)
{
    config.onFailure = [&book](std::uint64_t ticket, std::size_t,
                               const std::string &) {
        book.outcome(ticket, kOutcomeFailed);
    };
    config.onDrop = [&book](std::uint64_t ticket, std::size_t,
                            std::uint64_t) {
        book.outcome(ticket, kOutcomeDropped);
    };
    return config;
}

hr::Server::VerdictFn
verdictSink(OutcomeBook &book)
{
    return [&book](const hr::Request &request, int verdict) {
        book.outcome(request.id, verdict);
    };
}

// ------------------------------------------------------------ producers

/** One producer thread's view of a phase. */
struct Producer
{
    Tally tally;
    std::uint64_t submits = 0;
    std::uint64_t notAdmitted = 0;  ///< shed, timed out, closed.
    std::uint64_t malformed = 0;
    std::int64_t firstNs = 0;
    double cpuS = 0.0;
    /** Traced: duration of every submit call. */
    std::unique_ptr<Reservoir> submitNs;
    std::vector<double> swapUs;

    Producer(bool traced, std::uint64_t seed)
    {
        if (traced)
            submitNs = std::make_unique<Reservoir>(1u << 20, seed);
    }

    /** Account one submit and hand an admitted ticket to the book. */
    void record(const hr::SubmitResult &result, OutcomeBook &book,
                int expected, std::int64_t start_ns, std::size_t lane,
                bool sample)
    {
        ++submits;
        switch (result.status) {
          case hr::SubmitStatus::kAdmitted:
            book.expect(result.ticket, expected, start_ns, lane, sample,
                        tally);
            break;
          case hr::SubmitStatus::kMalformed:
            ++malformed;
            book.expect(result.ticket, kNoExpectation, start_ns, lane,
                        false, tally);
            break;
          default:
            ++notAdmitted;
        }
    }
};

/** Spin until the book saw @p outcomes outcomes (warm-up verdicts). */
void
awaitOutcomes(const OutcomeBook &book, std::uint64_t outcomes)
{
    while (book.totals({}).outcomes < outcomes)
        std::this_thread::yield();
}

// --------------------------------------------------------------- phases

/** The whole windows in a phase of @p seconds (at least one). */
std::size_t
wholeWindows(double seconds)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * 1e9 /
                                    static_cast<double>(kWindowNs)));
}

/** What one measured phase of a serving workload produced. */
struct Phase
{
    std::uint64_t submits = 0;
    std::uint64_t notAdmitted = 0;
    std::uint64_t malformed = 0;
    std::int64_t firstNs = 0;
    double wallS = 0.0;  ///< first submit (or due time) -> last outcome.
    double producerCpuS = 0.0;
    double processCpuS = 0.0;
    std::size_t producers = 1;
    BookTotals book;  ///< this phase's share of the book.
    /** Verdicts per second in each whole window of the phase. */
    std::vector<double> windowRowsPerS;
    /** Latency samples by window, over every lane and per lane. */
    std::vector<std::vector<double>> latencyUs;
    std::vector<std::vector<std::vector<double>>> laneLatencyUs;
    std::vector<double> submitNs;
    std::vector<double> lateUs;  ///< a sample of generator lateness.
    double lateMaxUs = 0.0;
    std::vector<double> swapUs;
    hr::ServerStats stats;
    std::vector<std::size_t> shardRows;
    hr::telemetry::MetricsSnapshot snapshot;
    double snapshotUs = 0.0;
    std::uint64_t engineBatches = 0;
    std::uint64_t registrySwaps = 0;

    /** Median over windows of verdicts per second. */
    double rowsPerS() const { return median(windowRowsPerS); }
    double p50Us() const
    {
        return windowedPercentile(latencyUs, 50.0, kMinWindowSamples);
    }
    double p99Us() const
    {
        return windowedPercentile(latencyUs, 99.0, kMinWindowSamples);
    }
    static std::size_t samples(const std::vector<std::vector<double>> &w)
    {
        std::size_t n = 0;
        for (const auto &window : w)
            n += window.size();
        return n;
    }
    std::uint64_t failedAttempts() const
    {
        return notAdmitted + book.failed + book.dropped;
    }
};

std::uint64_t
globalCounter(const char *name)
{
    return hr::telemetry::MetricRegistry::global().snapshot().sumCounters(
        name);
}

/** Samples of every entry named @p name (across shard labels). */
std::vector<double>
histogramSamples(const hr::telemetry::MetricsSnapshot &snapshot,
                 const std::string &name)
{
    std::vector<double> all;
    for (const auto &entry : snapshot.entries)
        if (entry.name == name)
            all.insert(all.end(), entry.samples.begin(), entry.samples.end());
    return all;
}

/** Keeps replayed results observable so the calls are not elided. */
volatile std::size_t g_sink = 0;

/** Median wall time of @p snapshot_fn, in µs. */
template <typename Fn>
double
timeSnapshotUs(Fn &&snapshot_fn)
{
    std::vector<double> us;
    for (int i = 0; i < 15; ++i) {
        std::int64_t start = nowNs();
        g_sink = g_sink + snapshot_fn().entries.size();
        us.push_back(static_cast<double>(nowNs() - start) * 1e-3);
    }
    return median(us);
}

/**
 * Check one stopped server's accounting against the book: every
 * admitted ticket resolved exactly once, every verdict equal to its
 * reference, and the program's own counters agreeing.
 */
void
checkAccounting(const char *what, const hr::ServerStats &stats,
                const BookTotals &book, std::size_t pending,
                std::uint64_t malformed, RunResult &result)
{
    std::ostringstream why;
    if (book.mismatched != 0)
        why << book.mismatched << " verdicts differ from ir::executeIr; ";
    if (book.stale != 0 || pending != 0)
        why << book.stale << " stale and " << pending
            << " unresolved tickets; ";
    if (book.outcomes != book.expects)
        why << book.expects << " tickets but " << book.outcomes
            << " outcomes; ";
    if (stats.rowsServed + stats.failedRows + stats.queue.earlyDropped !=
        stats.queue.accepted)
        why << "served " << stats.rowsServed << " + failed "
            << stats.failedRows << " + dropped " << stats.queue.earlyDropped
            << " != accepted " << stats.queue.accepted << "; ";
    if (book.served != stats.rowsServed ||
        book.expects != stats.queue.accepted + malformed ||
        stats.malformedFrames != malformed)
        why << "book (" << book.served << " served, " << book.expects
            << " tickets) disagrees with server stats (" << stats.rowsServed
            << " served, " << stats.queue.accepted << " accepted, "
            << stats.malformedFrames << " malformed); ";
    if (!why.str().empty())
        result.fail(std::string(what) + ": " + why.str());
}

/** Fill the end-to-end metrics of a serving phase. */
void
reportEndToEnd(const Phase &phase, const std::vector<double> &setup_s,
               const std::vector<double> &compile_s, RunResult &result)
{
    MetricSet &m = result.metrics;
    m.set("rows_per_s", phase.rowsPerS(), "1/s");
    m.set("compile_s", median(compile_s), "s");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    std::ostringstream note;
    note << "# latency_samples " << Phase::samples(phase.latencyUs)
         << " rows_per_s_by_window";
    for (double rate : phase.windowRowsPerS)
        note << " " << rate;
    note << " compile_s_by_setup";
    for (double seconds : compile_s)
        note << " " << seconds;
    result.notes.push_back(note.str());
}

/** Per-layer metrics a phase yields directly (no replay). */
void
reportPhaseLayers(const Phase &base, const Phase &traced, RunResult &result)
{
    MetricSet &m = result.metrics;
    const auto &snap = traced.snapshot;
    m.set("server.rows_per_s", base.rowsPerS(), "1/s");
    m.set("trace.overhead_ratio",
          base.rowsPerS() > 0.0 ? traced.rowsPerS() / base.rowsPerS() : 0.0,
          "ratio");
    m.set("telemetry.snapshot_us", traced.snapshotUs, "us");
    m.set("latency_p50_us", base.p50Us(), "us");
    m.set("latency_p99_us", base.p99Us(), "us");
    m.set("latency_samples",
          static_cast<double>(Phase::samples(base.latencyUs)), "count");
    m.set("server.submit_ns.p50", percentile(traced.submitNs, 50.0), "ns");
    m.set("server.submit_ns.p99", percentile(traced.submitNs, 99.0), "ns");
    std::vector<double> request_us =
        histogramSamples(snap, "server.request_latency_us");
    m.set("server.request_us.p50", percentile(request_us, 50.0), "us");
    m.set("server.request_us.p99", percentile(request_us, 99.0), "us");
    m.set("cpu.producer_ratio", traced.producerCpuS / traced.wallS, "ratio");
    m.set("cpu.other_ratio",
          (traced.processCpuS - traced.producerCpuS) / traced.wallS, "ratio");
    m.set("net.malformed",
          static_cast<double>(snap.sumCounters("server.malformed_frames")),
          "count");
    m.set("queue.batch_rows_mean", traced.stats.meanBatchRows, "rows");
    m.set("queue.size_flushes",
          static_cast<double>(snap.sumCounters("queue.size_flushes")),
          "count");
    m.set("queue.deadline_flushes",
          static_cast<double>(snap.sumCounters("queue.deadline_flushes")),
          "count");
    m.set("queue.aged_flushes",
          static_cast<double>(snap.sumCounters("queue.aged_flushes")),
          "count");
    m.set("queue.shed", static_cast<double>(snap.sumCounters("queue.shed")),
          "count");
    m.set("queue.block_timeouts",
          static_cast<double>(snap.sumCounters("queue.block_timeouts")),
          "count");
    std::vector<double> batch_us =
        histogramSamples(snap, "server.batch_latency_us");
    m.set("engine.batch_us.p50", percentile(batch_us, 50.0), "us");
    m.set("engine.batch_us.p99", percentile(batch_us, 99.0), "us");
    m.set("engine.batches", static_cast<double>(traced.engineBatches),
          "count");
    std::uint64_t attempts = base.submits + traced.submits;
    m.set("fail_ratio",
          attempts == 0 ? 0.0
                        : static_cast<double>(base.failedAttempts() +
                                              traced.failedAttempts()) /
                              static_cast<double>(attempts),
          "ratio");
}

/** Median ns per item of @p block, which processes @p items items. */
template <typename Fn>
double
perItemNs(std::size_t items, Fn &&block, int repetitions = 21)
{
    std::vector<double> ns;
    for (int r = 0; r < repetitions; ++r) {
        std::int64_t start = nowNs();
        block();
        ns.push_back(static_cast<double>(nowNs() - start) /
                     static_cast<double>(items));
    }
    return median(ns);
}

/** The run's mean batch, as a replay batch size (at least one row). */
std::size_t
replayBatchRows(const Phase &traced)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(traced.stats.meanBatchRows)));
}

/** Front-door replays: net::parse, FeatureExtractor::extract and
 *  StandardScaler::transform on the pool's own frames. */
void
replayFrontDoor(const TrafficPool &pool, const StandardScaler &scaler,
                std::size_t batch_rows, MetricSet &m)
{
    const std::size_t n = std::min<std::size_t>(1024, pool.size());
    m.set("net.parse_ns", perItemNs(n, [&] {
              for (std::size_t i = 0; i < n; ++i)
                  g_sink = g_sink + hn::parse(pool.frames[i])->payload.size();
          }),
          "ns");
    hn::FeatureExtractor extractor;
    m.set("net.extract_ns", perItemNs(n, [&] {
              for (std::size_t i = 0; i < n; ++i)
                  g_sink = g_sink + extractor.extract(pool.packets[i]).size();
          }),
          "ns");
    hm::Matrix rows(batch_rows, pool.rows.cols());
    for (std::size_t r = 0; r < batch_rows; ++r)
        std::copy(pool.rows.rowPtr(r % pool.size()),
                  pool.rows.rowPtr(r % pool.size()) + pool.rows.cols(),
                  rows.rowPtr(r));
    m.set("scaler.transform_ns", perItemNs(batch_rows, [&] {
              g_sink = g_sink + scaler.transform(rows).rows();
          }),
          "ns");
}

/** Replayed front-door self time per frame: parse + extract + scale. */
double
frontDoorNs(const MetricSet &m)
{
    return m.get("net.parse_ns") + m.get("net.extract_ns") +
           m.get("scaler.transform_ns");
}

/**
 * Standalone RequestQueue under the run's lane policies: push one
 * observed batch of rows (with two lanes, every kProbeEvery-th row to
 * lane 0, as lanes_paced sends them), close, pop them all.
 * Sets queue.push_ns and queue.pop_ns per row.
 */
void
replayQueue(const hr::QueueConfig &config, const TrafficPool &pool,
            std::size_t batch_rows, MetricSet &m)
{
    std::vector<double> push_ns, pop_ns;
    for (int r = 0; r < 21; ++r) {
        hr::RequestQueue queue(config);
        std::vector<hr::Request> requests(batch_rows);
        for (std::size_t i = 0; i < batch_rows; ++i) {
            requests[i].id = i + 1;
            requests[i].features = pool.row(i % pool.size());
        }
        std::int64_t start = nowNs();
        for (std::size_t i = 0; i < batch_rows; ++i) {
            std::size_t lane =
                config.lanes.size() > 1 && i % kProbeEvery != 0 ? 1 : 0;
            queue.push(std::move(requests[i]), lane);
        }
        std::int64_t pushed = nowNs();
        queue.close();
        std::size_t popped = 0;
        while (auto batch = queue.pop())
            popped += batch->requests.size();
        std::int64_t done = nowNs();
        g_sink = g_sink + popped;
        push_ns.push_back(static_cast<double>(pushed - start) /
                          static_cast<double>(batch_rows));
        pop_ns.push_back(static_cast<double>(done - pushed) /
                         static_cast<double>(batch_rows));
    }
    m.set("queue.push_ns", median(push_ns), "ns");
    m.set("queue.pop_ns", median(pop_ns), "ns");
}

/** InferenceEngine::run at the observed batch size, ns per row. */
void
replayEngine(const hir::ModelIr &model, const TrafficPool &pool,
             std::size_t batch_rows, MetricSet &m)
{
    hr::InferenceEngine engine = hr::InferenceEngine::fromModel(model);
    hm::Matrix rows(batch_rows, pool.rows.cols());
    for (std::size_t r = 0; r < batch_rows; ++r)
        std::copy(pool.rows.rowPtr(r % pool.size()),
                  pool.rows.rowPtr(r % pool.size()) + pool.rows.cols(),
                  rows.rowPtr(r));
    hm::Matrix scaled = artifactScaler(model).transform(rows);
    std::vector<int> labels(batch_rows);
    m.set("engine.ns_per_row", perItemNs(batch_rows, [&] {
              engine.run(scaled, labels.data());
              g_sink = g_sink + static_cast<std::size_t>(labels[0]);
          }),
          "ns");
}

/**
 * The time per row on the critical-path thread role, minus the replayed
 * self times of the layers that role runs: the serving work no layer
 * accounts for. The role is the one whose threads are busiest.
 */
void
reportGlue(const Phase &base, const Phase &traced, double producer_layers_ns,
           double consumer_layers_ns, std::size_t consumer_threads,
           double busiest_consumer_share, MetricSet &m)
{
    double wall = traced.wallS;
    double producer_busy =
        traced.producerCpuS / (wall * static_cast<double>(traced.producers));
    double consumer_busy = (traced.processCpuS - traced.producerCpuS) /
                           (wall * static_cast<double>(consumer_threads));
    double rows_per_s = base.rowsPerS();
    if (rows_per_s <= 0.0)
        return;
    double glue = 0.0;
    if (producer_busy >= consumer_busy) {
        double ns_per_row =
            1e9 * static_cast<double>(traced.producers) / rows_per_s;
        glue = ns_per_row - producer_layers_ns;
    } else {
        double ns_per_row = 1e9 / (rows_per_s * busiest_consumer_share);
        glue = ns_per_row - consumer_layers_ns;
    }
    m.set("server.glue_ns_per_row", glue, "ns");
}

// ------------------------------------------- single-server workloads

/** One compiled-and-warmed single-model Server. */
struct SingleSetup
{
    std::unique_ptr<OutcomeBook> book;
    std::unique_ptr<hr::Server> server;
    Tally warmup;
};

struct SetupTimes
{
    std::vector<double> setupS;
    std::vector<double> compileS;
    std::vector<CompileTiming> compiles;
};

/** What distinguishes wire_flood from lanes_paced. */
struct SingleWorkload
{
    const char *name;
    hr::ServerConfig config;
    std::function<std::unique_ptr<OutcomeBook>()> makeBook;
    /** One phase's submissions through @p producer; sets phase.firstNs
     *  and starts the book's windows. */
    std::function<void(hr::Server &server, OutcomeBook &book,
                       Producer &producer, Phase &phase,
                       const std::vector<int> &expected)>
        drive;
    /** Workload-specific reporting; @p traced is null with trace off. */
    std::function<void(const Phase &base, const Phase *traced,
                       RunResult &result)>
        report;
};

/** Build a Server on @p model feeding @p setup's book, and wait for one
 *  warm-up verdict. */
bool
startSingleServer(const TrafficPool &pool, const hr::ServerConfig &config,
                  const hir::ModelIr &model, const std::vector<int> &expected,
                  SingleSetup &setup, RunResult &result)
{
    setup.server = std::make_unique<hr::Server>(
        hr::InferenceEngine::fromModel(model),
        withOutcomeSinks(config, *setup.book), verdictSink(*setup.book),
        artifactScaler(model));
    hr::SubmitResult warm = setup.server->submitFrame(pool.frames[0], 0);
    if (!warm.admitted()) {
        result.fail("warm-up frame not admitted");
        return false;
    }
    setup.book->expect(warm.ticket, expected[0], nowNs(), 0, false,
                       setup.warmup);
    awaitOutcomes(*setup.book, 1);
    return true;
}

/**
 * Compile the TC decision tree, build the Server, and wait for one
 * warm-up verdict; setup time excludes the reference-label computation
 * (benchmark work). Fills @p model / @p expected on first use.
 */
bool
buildSingleSetup(const TrafficPool &pool, const SingleWorkload &workload,
                 hir::ModelIr &model, std::vector<int> &expected,
                 SingleSetup &setup, SetupTimes &times, RunResult &result)
{
    setup.server.reset();
    setup.book.reset();  // before the next book is allocated
    setup.book = workload.makeBook();
    setup.warmup.reset();
    std::int64_t start = nowNs();
    CompiledModel tree = compileTc({Algorithm::kDecisionTree}, 1);
    std::int64_t compiled = nowNs();
    if (!tree.ok) {
        result.fail("decision-tree compile failed: " + tree.error);
        return false;
    }
    if (expected.empty()) {
        model = tree.model;
        expected = referenceLabels(model, pool.rows);
    } else if (hir::serializeModel(tree.model) !=
               hir::serializeModel(model)) {
        result.fail("decision-tree compile is not deterministic");
        return false;
    }
    std::int64_t resumed = nowNs();
    if (!startSingleServer(pool, workload.config, tree.model, expected, setup,
                           result))
        return false;
    std::int64_t done = nowNs();
    times.setupS.push_back(
        static_cast<double>((compiled - start) + (done - resumed)) * 1e-9);
    times.compileS.push_back(tree.timing.compileS());
    times.compiles.push_back(tree.timing);
    return true;
}

/** Stop a server, fold its book into a Phase, and check the books. */
void
finishSingle(const char *what, SingleSetup &setup,
             const std::vector<const Tally *> &producers, const BookTotals &at_start,
             std::uint64_t malformed, Phase &phase, RunResult &result)
{
    phase.stats = setup.server->stop();
    std::vector<const Tally *> all = producers;
    all.push_back(&setup.warmup);
    BookTotals totals = setup.book->totals(all);
    checkAccounting(what, phase.stats, totals, setup.book->pending(),
                    malformed, result);
    phase.book = totals - at_start;
    phase.book.lastOutcomeNs = totals.lastOutcomeNs;
    phase.wallS =
        static_cast<double>(phase.book.lastOutcomeNs - phase.firstNs) * 1e-9;
    phase.snapshot = setup.server->metrics().snapshot();
    phase.snapshotUs = timeSnapshotUs(
        [&] { return setup.server->metrics().snapshot(); });
}

/** One measured phase on @p setup's server, which it stops; with
 *  @p stamp every submit call is timed. */
Phase
runSinglePhase(SingleSetup &setup, const SingleWorkload &workload,
               const std::vector<int> &expected, bool stamp,
               std::uint64_t seed, RunResult &result, const char *what)
{
    Phase phase;
    Producer producer(stamp, seed);
    BookTotals at_start = setup.book->totals({&setup.warmup});
    std::uint64_t batches_before = globalCounter("engine.batches");
    double cpu_before = processCpuSeconds();
    double thread_before = threadCpuSeconds();
    workload.drive(*setup.server, *setup.book, producer, phase, expected);
    producer.cpuS = threadCpuSeconds() - thread_before;
    finishSingle(what, setup, {&producer.tally}, at_start,
                 producer.malformed, phase, result);
    phase.processCpuS = processCpuSeconds() - cpu_before;
    phase.producerCpuS = producer.cpuS;
    phase.engineBatches = globalCounter("engine.batches") - batches_before;
    phase.submits = producer.submits;
    phase.notAdmitted = producer.notAdmitted;
    phase.malformed = producer.malformed;
    for (std::size_t lane = 0; lane < setup.book->lanes(); ++lane)
        phase.laneLatencyUs.push_back(setup.book->latencyUs(lane));
    phase.latencyUs = setup.book->latencyUsAllLanes();
    phase.windowRowsPerS = setup.book->rowsPerSecondByWindow();
    if (stamp)
        phase.submitNs = producer.submitNs->samples();
    return phase;
}

/**
 * The shared run of a single-server workload: set up (3 times with
 * trace off), one measured phase; with trace on, the base phase, a
 * traced phase on a fresh, warmed server that differs from the base one
 * only by its TraceSink (both phases time every submit), and the
 * front-door, queue and engine replays.
 */
RunResult
runSingleServer(const RunConfig &config, const SingleWorkload &workload,
                const TrafficPool &pool)
{
    RunResult result;
    hir::ModelIr model;
    std::vector<int> expected;
    SetupTimes times;
    SingleSetup setup;
    const int setups = config.trace ? 1 : kSetupRepetitions;
    for (int s = 0; s < setups; ++s) {
        if (s > 0) {
            Phase discarded;
            finishSingle("setup", setup, {}, {}, 0, discarded, result);
        }
        if (!buildSingleSetup(pool, workload, model, expected, setup, times,
                              result))
            return result;
    }

    Phase base = runSinglePhase(setup, workload, expected, config.trace,
                                config.seed, result, workload.name);
    result.attempted = base.submits;
    result.failed = base.failedAttempts();
    if (!config.trace) {
        reportEndToEnd(base, times.setupS, times.compileS, result);
        workload.report(base, nullptr, result);
        return result;
    }

    hr::telemetry::TraceSink sink(1u << 16);
    hr::ServerConfig traced_config = workload.config;
    traced_config.trace = &sink;
    SingleSetup traced_setup;
    traced_setup.book = workload.makeBook();
    if (!startSingleServer(pool, traced_config, model, expected, traced_setup,
                           result))
        return result;
    Phase traced = runSinglePhase(traced_setup, workload, expected, true,
                                  config.seed + 1, result, "traced phase");
    result.attempted += traced.submits;
    result.failed += traced.failedAttempts();

    MetricSet &m = result.metrics;
    reportPhaseLayers(base, traced, result);
    const std::size_t batch = replayBatchRows(traced);
    replayFrontDoor(pool, artifactScaler(model), batch, m);
    hr::QueueConfig queue_config;
    queue_config.lanes = {workload.config.queue};
    queue_config.lanes.insert(queue_config.lanes.end(),
                              workload.config.extraLanes.begin(),
                              workload.config.extraLanes.end());
    queue_config.backpressure = workload.config.backpressure;
    replayQueue(queue_config, pool, batch, m);
    replayEngine(model, pool, batch, m);
    m.set("server.submit_self_ns",
          mean(traced.submitNs) - frontDoorNs(m), "ns");
    reportCompileLayers(times.compiles, m);
    workload.report(base, &traced, result);
    return result;
}

}  // namespace

// ------------------------------------------------------------ wire_flood

RunResult
runWireFlood(const RunConfig &config)
{
    TrafficPool pool = makeTrafficPool(config.seed);
    const double seconds = config.trace ? config.seconds / 2 : config.seconds;
    SingleWorkload workload;
    workload.name = "wire_flood";
    // One lane, 1024 rows / 1000 µs / depth 8192: the defaults.
    workload.config.backpressure = hr::BackpressureMode::kBlockWithTimeout;
    workload.config.blockTimeoutUs = kBlockTimeoutUs;
    workload.makeBook = [&] { return floodBook(1, config.seed); };
    // One producer submitting frames as fast as admission allows.
    workload.drive = [&](hr::Server &server, OutcomeBook &book,
                         Producer &producer, Phase &phase,
                         const std::vector<int> &expected) {
        const std::int64_t first = nowNs();
        const std::int64_t end =
            first + static_cast<std::int64_t>(seconds * 1e9);
        phase.firstNs = first;
        book.startPhase(first, wholeWindows(seconds));
        std::size_t i = 0;
        for (std::int64_t start = first; start < end; start = nowNs()) {
            std::size_t idx = i++ % pool.size();
            hr::SubmitResult r = server.submitFrame(pool.frames[idx], 0);
            if (producer.submitNs)
                producer.submitNs->add(static_cast<double>(nowNs() - start));
            producer.record(r, book, expected[idx], start, 0, true);
        }
    };
    workload.report = [](const Phase &base, const Phase *traced,
                         RunResult &result) {
        if (traced == nullptr)
            return;
        MetricSet &m = result.metrics;
        reportGlue(base, *traced, frontDoorNs(m) + m.get("queue.push_ns"),
                   m.get("queue.pop_ns") + m.get("engine.ns_per_row"), 1, 1.0,
                   m);
    };
    return runSingleServer(config, workload, pool);
}

// ----------------------------------------------------------- lanes_paced

RunResult
runLanesPaced(const RunConfig &config)
{
    TrafficPool pool = makeTrafficPool(config.seed);
    const double seconds = config.trace ? config.seconds / 2 : config.seconds;
    const std::uint64_t schedule_seed = config.seed ^ 0xD0Eull;
    SingleWorkload workload;
    workload.name = "lanes_paced";
    // homc --serve-lanes 2 --serve-lane-batches 64,1024
    //      --serve-lane-delays 250,2000 --serve-depth 8192
    //      --serve-backpressure shed --serve-probe-every 16
    workload.config.queue.maxBatch = 64;
    workload.config.queue.maxDelayUs = 250;
    workload.config.queue.maxDepth = 8192;
    hr::QueuePolicy bulk;
    bulk.maxBatch = 1024;
    bulk.maxDelayUs = 2000;
    bulk.maxDepth = 8192;
    workload.config.extraLanes = {bulk};
    workload.config.backpressure = hr::BackpressureMode::kShed;
    workload.makeBook = [&] {
        return std::make_unique<OutcomeBook>(1, kBookWindowLog2, 0, 2,
                                             kLatencySamples, config.seed);
    };
    // Open-loop Poisson arrivals from one generator thread; each frame's
    // latency runs from its due time to its verdict.
    workload.drive = [&](hr::Server &server, OutcomeBook &book,
                         Producer &producer, Phase &phase,
                         const std::vector<int> &expected) {
        PoissonSchedule schedule(kPacedRate, seconds, schedule_seed);
        Reservoir late_us(kLatencySamples, schedule_seed);
        const std::int64_t t0 = nowNs() + 1'000'000;  // first arrival in 1 ms
        phase.firstNs = t0;
        // The schedule ends just before `seconds`: its whole windows are
        // the ones before the last.
        book.startPhase(t0, static_cast<std::size_t>(
                                std::max(1.0, std::ceil(seconds) - 1.0)));
        std::int64_t offset_ns = 0;
        for (std::size_t i = 0; schedule.next(offset_ns); ++i) {
            const std::int64_t due_ns = t0 + offset_ns;
            std::int64_t start = nowNs();
            while (start < due_ns)
                start = nowNs();
            const double late =
                static_cast<double>(latenessNs(due_ns, start)) * 1e-3;
            late_us.add(late);
            phase.lateMaxUs = std::max(phase.lateMaxUs, late);
            std::size_t idx = i % pool.size();
            std::size_t lane = i % kProbeEvery == 0 ? 0 : 1;
            hr::SubmitResult r = server.submitFrame(pool.frames[idx], lane);
            if (producer.submitNs)
                producer.submitNs->add(static_cast<double>(nowNs() - start));
            producer.record(r, book, expected[idx], due_ns, lane, true);
        }
        phase.lateUs = late_us.samples();
    };
    workload.report = [](const Phase &base, const Phase *traced,
                         RunResult &result) {
        const auto &probe = base.laneLatencyUs.at(0);
        const auto &bulk_us = base.laneLatencyUs.at(1);
        result.notes.push_back(
            "# probe_samples " + std::to_string(Phase::samples(probe)) +
            " bulk_samples " + std::to_string(Phase::samples(bulk_us)));
        if (traced == nullptr)
            return;
        MetricSet &m = result.metrics;
        m.set("probe_p50_us",
              windowedPercentile(probe, 50.0, kMinWindowSamples), "us");
        m.set("probe_p99_us",
              windowedPercentile(probe, 99.0, kMinWindowSamples), "us");
        m.set("probe_samples", static_cast<double>(Phase::samples(probe)),
              "count");
        m.set("bulk_p50_us",
              windowedPercentile(bulk_us, 50.0, kMinWindowSamples), "us");
        m.set("bulk_p99_us",
              windowedPercentile(bulk_us, 99.0, kMinWindowSamples), "us");
        m.set("bulk_samples", static_cast<double>(Phase::samples(bulk_us)),
              "count");
        m.set("gen.late_us.p99", percentile(base.lateUs, 99.0), "us");
        m.set("gen.late_us.max", base.lateMaxUs, "us");
    };
    return runSingleServer(config, workload, pool);
}

// -------------------------------------------------------- routed_sharded

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kProducers = 2;

struct RoutedModels
{
    hir::ModelIr front;
    hir::ModelIr deep;
};

hr::RouteConfig
routedRoute()
{
    hr::RouteConfig route;
    route.defaultModel = "front";
    route.chain = {{"front", 1, "deep"}, {"front", 3, "deep"}};
    return route;
}

/** A registry holding front v1/v2 (one artifact) and deep. */
std::shared_ptr<hr::ModelRegistry>
routedRegistry(const RoutedModels &models)
{
    hr::EngineOptions engine;
    engine.jobs = 1;
    auto registry = std::make_shared<hr::ModelRegistry>(engine);
    registry->load("front", models.front);
    registry->load("front", models.front);
    registry->load("deep", models.deep);
    return registry;
}

struct RoutedSetup
{
    std::unique_ptr<OutcomeBook> book;
    std::shared_ptr<hr::ModelRegistry> registry;
    std::unique_ptr<hr::ShardedServer> server;
    Tally warmup;
};

hr::ShardedServerConfig
routedConfig()
{
    hr::ShardedServerConfig config;
    config.shards = kShards;
    config.server.backpressure = hr::BackpressureMode::kBlockWithTimeout;
    config.server.blockTimeoutUs = kBlockTimeoutUs;
    return config;
}

/** Build a routed ShardedServer on @p setup's registry feeding its
 *  book, and wait for one warm-up verdict. */
bool
startRoutedServer(const TrafficPool &pool, hr::ShardedServerConfig config,
                  const std::vector<int> &expected, RoutedSetup &setup,
                  RunResult &result)
{
    config.server = withOutcomeSinks(config.server, *setup.book);
    setup.server = std::make_unique<hr::ShardedServer>(
        setup.registry, routedRoute(), config, verdictSink(*setup.book));
    hr::SubmitResult warm =
        setup.server->submit(pool.flowKeys[0], pool.row(0), 0);
    if (!warm.admitted()) {
        result.fail("warm-up row not admitted");
        return false;
    }
    setup.book->expect(warm.ticket, expected[0], nowNs(), 0, false,
                       setup.warmup);
    awaitOutcomes(*setup.book, 1);
    return true;
}

void
finishRouted(const char *what, RoutedSetup &setup,
             const std::vector<const Tally *> &producers,
             const BookTotals &at_start, Phase &phase, RunResult &result)
{
    phase.stats = setup.server->stop();
    std::vector<const Tally *> all = producers;
    all.push_back(&setup.warmup);
    BookTotals totals = setup.book->totals(all);
    checkAccounting(what, phase.stats, totals, setup.book->pending(), 0,
                    result);
    phase.book = totals - at_start;
    phase.book.lastOutcomeNs = totals.lastOutcomeNs;
    phase.wallS =
        static_cast<double>(phase.book.lastOutcomeNs - phase.firstNs) * 1e-9;
    for (const hr::ServerStats &shard : setup.server->shardStats())
        phase.shardRows.push_back(shard.rowsServed);
    phase.snapshot = setup.server->metricsSnapshot();
    phase.snapshotUs =
        timeSnapshotUs([&] { return setup.server->metricsSnapshot(); });
}

/** Two producers submitting extracted rows by flow key; producer 0 also
 *  swaps `front` between v1 and v2 every kSwapEveryRows rows. With
 *  @p stamp every submit call is timed. */
Phase
floodRows(RoutedSetup &setup, const TrafficPool &pool,
          const std::vector<int> &expected, double seconds, bool stamp,
          std::uint64_t seed, RunResult &result, const char *what)
{
    Phase phase;
    phase.producers = kProducers;
    std::vector<std::unique_ptr<Producer>> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.push_back(std::make_unique<Producer>(stamp, seed + p));
    BookTotals at_start = setup.book->totals({&setup.warmup});
    std::uint64_t batches_before = globalCounter("engine.batches");
    std::uint64_t swaps_before = globalCounter("registry.swaps");
    double cpu_before = processCpuSeconds();
    const std::int64_t first = nowNs() + 1'000'000;
    const std::int64_t end = first + static_cast<std::int64_t>(seconds * 1e9);
    phase.firstNs = first;
    setup.book->startPhase(first, wholeWindows(seconds));

    auto produce = [&](std::size_t p) {
        Producer &producer = *producers[p];
        double thread_before = threadCpuSeconds();
        while (nowNs() < first) {
        }
        std::uint64_t front_version = 1;
        std::size_t i = p * (pool.size() / kProducers);
        for (std::int64_t start = nowNs(); start < end; start = nowNs()) {
            std::size_t idx = i++ % pool.size();
            hr::SubmitResult r =
                setup.server->submit(pool.flowKeys[idx], pool.row(idx), 0);
            if (stamp)
                producer.submitNs->add(static_cast<double>(nowNs() - start));
            producer.record(r, *setup.book, expected[idx], start, 0, true);
            if (p == 0 && producer.submits % kSwapEveryRows == 0) {
                front_version = 3 - front_version;
                std::int64_t swap_start = nowNs();
                setup.registry->swap("front", front_version);
                producer.swapUs.push_back(
                    static_cast<double>(nowNs() - swap_start) * 1e-3);
            }
        }
        producer.cpuS = threadCpuSeconds() - thread_before;
    };
    std::vector<std::thread> threads;
    for (std::size_t p = 1; p < kProducers; ++p)
        threads.emplace_back(produce, p);
    produce(0);
    for (std::thread &thread : threads)
        thread.join();

    std::vector<const Tally *> tallies;
    for (const auto &producer : producers) {
        tallies.push_back(&producer->tally);
        phase.submits += producer->submits;
        phase.notAdmitted += producer->notAdmitted;
        phase.producerCpuS += producer->cpuS;
        if (stamp) {
            std::vector<double> s = producer->submitNs->samples();
            phase.submitNs.insert(phase.submitNs.end(), s.begin(), s.end());
        }
    }
    phase.swapUs = producers[0]->swapUs;
    finishRouted(what, setup, tallies, at_start, phase, result);
    phase.processCpuS = processCpuSeconds() - cpu_before;
    phase.engineBatches = globalCounter("engine.batches") - batches_before;
    phase.registrySwaps = globalCounter("registry.swaps") - swaps_before;
    phase.latencyUs = setup.book->latencyUsAllLanes();
    phase.windowRowsPerS = setup.book->rowsPerSecondByWindow();
    return phase;
}

/** Router::runBatch, Router::snapshot and flowKey + shardFor replays. */
void
replayRouter(const std::shared_ptr<hr::ModelRegistry> &registry,
             const hr::ShardedServer &server, const TrafficPool &pool,
             std::size_t batch_rows, MetricSet &m)
{
    hr::Router router(registry, routedRoute());
    std::vector<hr::Request> requests(batch_rows);
    for (std::size_t i = 0; i < batch_rows; ++i) {
        requests[i].id = i + 1;
        requests[i].features = pool.row(i % pool.size());
        requests[i].enqueuedAt = Clock::now();
    }
    hr::Router::Scratch scratch;
    std::vector<int> labels;
    std::vector<hr::RouteStepStats> steps;
    std::vector<double> batch_us;
    for (int r = 0; r < 41; ++r) {
        hr::Router::Snapshot snapshot = router.snapshot();
        std::int64_t start = nowNs();
        router.runBatch(snapshot, 0, requests.data(), batch_rows, labels,
                        nullptr, steps, scratch);
        batch_us.push_back(static_cast<double>(nowNs() - start) * 1e-3);
    }
    double p50 = median(batch_us);
    m.set("router.batch_us.p50", p50, "us");
    m.set("router.ns_per_row", p50 * 1e3 / static_cast<double>(batch_rows),
          "ns");
    const std::size_t calls = 1000;
    m.set("registry.snapshot_ns", perItemNs(calls, [&] {
              for (std::size_t i = 0; i < calls; ++i)
                  g_sink = g_sink + router.snapshot().epochs.size();
          }),
          "ns");
    const std::size_t n = std::min<std::size_t>(1024, pool.size());
    m.set("shard.route_ns", perItemNs(n, [&] {
              for (std::size_t i = 0; i < n; ++i)
                  g_sink = g_sink +
                           server.shardFor(hr::flowKey(pool.packets[i]));
          }),
          "ns");
}

bool
buildRoutedSetup(const TrafficPool &pool, std::uint64_t seed,
                 RoutedModels &models, std::vector<int> &expected,
                 RoutedSetup &setup, SetupTimes &times, RunResult &result)
{
    setup.server.reset();
    setup.book.reset();  // before the next book is allocated
    setup.book = floodBook(kShards + 1, seed);
    setup.warmup.reset();
    std::int64_t start = nowNs();
    CompiledModel tree = compileTc({Algorithm::kDecisionTree}, 1);
    CompiledModel dnn = compileTc({Algorithm::kDnn}, 1);
    std::int64_t compiled = nowNs();
    if (!tree.ok || !dnn.ok) {
        result.fail("routed compile failed: " + tree.error + dnn.error);
        return false;
    }
    if (expected.empty()) {
        models.front = tree.model;
        models.deep = dnn.model;
        expected = chainReferenceLabels(models.front, models.deep, pool.rows);
    }
    std::int64_t resumed = nowNs();
    setup.registry = routedRegistry({tree.model, dnn.model});
    if (!startRoutedServer(pool, routedConfig(), expected, setup, result))
        return false;
    std::int64_t done = nowNs();
    times.setupS.push_back(
        static_cast<double>((compiled - start) + (done - resumed)) * 1e-9);
    CompileTiming both = combine(tree.timing, dnn.timing);
    times.compileS.push_back(both.compileS());
    times.compiles.push_back(both);
    return true;
}

}  // namespace

RunResult
runRoutedSharded(const RunConfig &config)
{
    RunResult result;
    TrafficPool pool = makeTrafficPool(config.seed);
    RoutedModels models;
    std::vector<int> expected;
    SetupTimes times;
    RoutedSetup setup;
    const int setups = config.trace ? 1 : kSetupRepetitions;
    for (int s = 0; s < setups; ++s) {
        if (s > 0) {
            Phase discarded;
            finishRouted("setup", setup, {}, {}, discarded, result);
        }
        if (!buildRoutedSetup(pool, config.seed, models, expected, setup,
                              times, result))
            return result;
    }

    const double seconds = config.trace ? config.seconds / 2 : config.seconds;
    Phase phase = floodRows(setup, pool, expected, seconds, config.trace,
                            config.seed, result, "routed_sharded");
    result.attempted = phase.submits;
    result.failed = phase.failedAttempts();
    if (!config.trace) {
        reportEndToEnd(phase, times.setupS, times.compileS, result);
        return result;
    }

    hr::telemetry::TraceSink sink(1u << 16);
    hr::ShardedServerConfig traced_config = routedConfig();
    traced_config.server.trace = &sink;
    RoutedSetup traced_setup;
    traced_setup.book = floodBook(kShards + 1, config.seed + 1);
    traced_setup.registry = setup.registry;
    if (!startRoutedServer(pool, traced_config, expected, traced_setup,
                           result))
        return result;
    Phase traced = floodRows(traced_setup, pool, expected, seconds, true,
                             config.seed + 1, result,
                             "routed_sharded traced");
    result.attempted += traced.submits;
    result.failed += traced.failedAttempts();

    MetricSet &m = result.metrics;
    reportPhaseLayers(phase, traced, result);
    const std::size_t batch = replayBatchRows(traced);
    hr::QueueConfig queue_config;
    queue_config.lanes = {routedConfig().server.queue};
    queue_config.backpressure = routedConfig().server.backpressure;
    replayQueue(queue_config, pool, batch, m);
    replayEngine(models.front, pool, batch, m);
    replayRouter(traced_setup.registry, *traced_setup.server, pool, batch, m);
    m.set("server.submit_self_ns", mean(traced.submitNs), "ns");

    double hop_rows = static_cast<double>(
        traced.snapshot.sumCounters("router.hop_rows"));
    double served = static_cast<double>(traced.stats.rowsServed);
    m.set("router.hops_per_row", served > 0.0 ? hop_rows / served : 0.0,
          "ratio");
    m.set("registry.swap_us.p50", percentile(traced.swapUs, 50.0), "us");
    m.set("registry.swaps", static_cast<double>(traced.registrySwaps),
          "count");
    double max_rows = 0.0, sum_rows = 0.0;
    for (std::size_t rows : traced.shardRows) {
        max_rows = std::max(max_rows, static_cast<double>(rows));
        sum_rows += static_cast<double>(rows);
    }
    double skew = sum_rows > 0.0 ? max_rows * static_cast<double>(kShards) /
                                       sum_rows
                                 : 0.0;
    m.set("shard.skew", skew, "ratio");
    reportGlue(phase, traced, m.get("shard.route_ns") + m.get("queue.push_ns"),
               m.get("queue.pop_ns") + m.get("router.ns_per_row"), kShards,
               sum_rows > 0.0 ? max_rows / sum_rows : 1.0, m);
    reportCompileLayers(times.compiles, m);
    return result;
}

}  // namespace perfbench
