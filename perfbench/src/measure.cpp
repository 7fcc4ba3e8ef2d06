#include "measure.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "kernels/kernel_dispatch.hpp"

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const double n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    std::size_t index = rank == 0 ? 0 : rank - 1;
    index = std::min(index, values.size() - 1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : store_(std::max<std::size_t>(capacity, 1), 0.0),
      tags_(store_.size(), 0), rng_(seed)
{
}

void
Reservoir::add(double value, std::uint32_t tag)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++seen_;
    std::size_t slot = filled_;
    if (filled_ < store_.size()) {
        ++filled_;
    } else {
        slot = static_cast<std::size_t>(rng_() % seen_);
        if (slot >= store_.size())
            return;
    }
    store_[slot] = value;
    tags_[slot] = tag;
}

std::uint64_t
Reservoir::seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
}

std::vector<double>
Reservoir::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {store_.begin(),
            store_.begin() + static_cast<std::ptrdiff_t>(filled_)};
}

std::vector<std::vector<double>>
Reservoir::samplesByTag(std::size_t tags) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<double>> out(tags);
    for (std::size_t i = 0; i < filled_; ++i)
        if (tags_[i] < tags)
            out[tags_[i]].push_back(store_[i]);
    return out;
}

double
windowedPercentile(const std::vector<std::vector<double>> &windows, double p,
                   std::size_t min_samples)
{
    std::vector<double> per_window;
    for (const std::vector<double> &window : windows)
        if (!window.empty() && window.size() >= min_samples)
            per_window.push_back(percentile(window, p));
    return median(per_window);
}

PoissonSchedule::PoissonSchedule(double rate, double seconds,
                                 std::uint64_t seed)
    : rng_(seed), gap_(rate > 0.0 ? rate : 1.0),
      horizonNs_(rate > 0.0 ? seconds * 1e9 : 0.0)
{
}

bool
PoissonSchedule::next(std::int64_t &due_ns)
{
    if (t_ >= horizonNs_)
        return false;
    t_ += gap_(rng_) * 1e9;
    if (t_ >= horizonNs_)
        return false;
    due_ns = static_cast<std::int64_t>(t_);
    return true;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    // VmHWM is this program's own high-water mark. getrusage's ru_maxrss
    // is not: Linux carries it over from the image exec replaced, so a
    // program started by a larger process would report the parent's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
warmHost(double seconds)
{
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    auto spin = [end] {
        volatile std::uint64_t x = 1;
        while (nowNs() < end)
            for (int i = 0; i < 1000; ++i)
                x = x * 0x9E3779B97F4A7C15ull + 1;
    };
    std::vector<std::thread> threads;
    unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned t = 1; t < n; ++t)
        threads.emplace_back(spin);
    spin();
    for (std::thread &thread : threads)
        thread.join();
}

double
calibrationSpinNs()
{
    std::vector<double> runs;
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < 7; ++r) {
        std::int64_t start = nowNs();
        std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<unsigned>(r);
        for (int i = 0; i < 2'000'000; ++i) {
            x ^= x >> 30;
            x *= 0xBF58476D1CE4E5B9ull;
            x ^= x >> 27;
        }
        sink = sink + x;
        runs.push_back(static_cast<double>(nowNs() - start));
    }
    return median(runs);
}

namespace {

std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t begin = line.find_first_not_of(' ', colon + 1);
                return begin == std::string::npos ? "" : line.substr(begin);
            }
        }
    }
    return "unknown";
}

/** Minimal JSON string escaping (quotes, backslashes, controls). */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A finite double with all its digits (JSON has no NaN/inf). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

}  // namespace

Provenance
collectProvenance(const std::string &git_sha)
{
    namespace kernels = homunculus::kernels;
    Provenance p;
    p.gitSha = git_sha.empty() ? "unknown" : git_sha;
    p.cpuModel = cpuModelName();
    p.nproc = std::thread::hardware_concurrency();
    p.kernelTarget =
        kernels::kernelTargetName(kernels::KernelDispatch::active());
    p.kernelProvenance = kernels::KernelDispatch::provenance();
    p.hostSpinNs = calibrationSpinNs();
    return p;
}

void
writeProvenance(std::ostream &out, const Provenance &p,
                const std::string &workload, std::uint64_t seed)
{
    out << "# provenance {\"workload\": " << jsonString(workload)
        << ", \"seed\": " << seed << ", \"git_sha\": " << jsonString(p.gitSha)
        << ", \"cpu_model\": " << jsonString(p.cpuModel)
        << ", \"nproc\": " << p.nproc
        << ", \"kernel_target\": " << jsonString(p.kernelTarget)
        << ", \"kernel_provenance\": " << jsonString(p.kernelProvenance)
        << ", \"host_spin_ns\": " << jsonNumber(p.hostSpinNs) << "}\n";
}

void
MetricSet::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &metric : metrics_) {
        if (metric.name == name) {
            metric.value = value;
            metric.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

double
MetricSet::get(const std::string &name) const
{
    for (const Metric &metric : metrics_)
        if (metric.name == name)
            return metric.value;
    return 0.0;
}

void
writeResult(std::ostream &out, bool correct, std::uint64_t attempted,
            std::uint64_t failed, const MetricSet &metrics)
{
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const Metric &metric : metrics.all()) {
        out << (first ? "" : ", ") << jsonString(metric.name)
            << ": {\"value\": " << jsonNumber(metric.value)
            << ", \"unit\": " << jsonString(metric.unit) << "}";
        first = false;
    }
    out << "}}\n";
}

bool
runSelfTests(std::ostream &err)
{
    bool ok = true;
    auto check = [&](bool condition, const char *what) {
        if (!condition) {
            err << "perfbench self-test failed: " << what << "\n";
            ok = false;
        }
    };

    // Nearest rank: the smallest value with at least p% of the sample
    // at or below it.
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    check(percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
    check(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
    check(percentile(hundred, 100.0) == 100.0, "p100 is the max");
    check(percentile(hundred, 0.0) == 1.0, "p0 is the min");
    check(percentile({7.0}, 99.0) == 7.0, "percentile of one value");
    check(percentile({}, 50.0) == 0.0, "percentile of nothing is 0");
    check(percentile({1.0, 2.0, 3.0, 4.0}, 50.0) == 2.0, "p50 of 4 values");
    check(median({5.0, 1.0, 3.0}) == 3.0, "median of 3 values");
    check(mean({1.0, 2.0, 6.0}) == 3.0, "mean");

    // A reservoir below capacity keeps everything; above it, it keeps
    // exactly capacity values drawn from the stream.
    Reservoir small(8, 1);
    for (int i = 0; i < 5; ++i)
        small.add(i);
    check(small.samples().size() == 5 && small.seen() == 5,
          "reservoir below capacity keeps every value");
    Reservoir full(8, 1);
    for (int i = 0; i < 1000; ++i)
        full.add(i);
    std::vector<double> kept = full.samples();
    check(kept.size() == 8 && full.seen() == 1000,
          "reservoir above capacity keeps capacity values");
    check(std::all_of(kept.begin(), kept.end(),
                      [](double v) { return v >= 0.0 && v < 1000.0; }),
          "reservoir keeps only stream values");
    Reservoir tagged(16, 1);
    for (int i = 0; i < 10; ++i)
        tagged.add(i, static_cast<std::uint32_t>(i % 3));
    auto by_tag = tagged.samplesByTag(2);
    check(by_tag.size() == 2 && by_tag[0] == std::vector<double>{0, 3, 6, 9} &&
              by_tag[1] == std::vector<double>{1, 4, 7},
          "reservoir splits by tag and drops tags past the range");
    // Median of per-window percentiles: one stalled window does not
    // move it; windows below the sample floor do not count.
    std::vector<std::vector<double>> windows = {
        {1, 2, 3}, {1, 2, 3}, {100, 200, 300}, {5}};
    check(windowedPercentile(windows, 50.0, 2) == 2.0,
          "windowed p50 ignores one stalled window and sparse windows");
    check(windowedPercentile({}, 50.0, 1) == 0.0, "no windows reads 0");

    // Due times: increasing, inside the horizon, the requested mean
    // rate, and identical for one seed.
    auto poissonDueOffsetsNs = [](double rate, double seconds,
                                  std::uint64_t seed) {
        PoissonSchedule schedule(rate, seconds, seed);
        std::vector<std::int64_t> due;
        for (std::int64_t t = 0; schedule.next(t);)
            due.push_back(t);
        return due;
    };
    const double rate = 100'000.0;
    std::vector<std::int64_t> due = poissonDueOffsetsNs(rate, 1.0, 42);
    check(std::is_sorted(due.begin(), due.end()), "due times increase");
    check(!due.empty() && due.front() >= 0 && due.back() < 1'000'000'000,
          "due times stay inside the horizon");
    double count = static_cast<double>(due.size());
    check(std::fabs(count - rate) < 5.0 * std::sqrt(rate),
          "due times follow the requested rate");
    check(due == poissonDueOffsetsNs(rate, 1.0, 42),
          "one seed gives one schedule");
    check(due != poissonDueOffsetsNs(rate, 1.0, 43),
          "another seed gives another schedule");
    check(poissonDueOffsetsNs(0.0, 1.0, 1).empty(), "zero rate, no arrivals");
    check(latenessNs(1000, 1500) == 500, "late submit");
    check(latenessNs(1000, 900) == 0, "early submit is not late");
    return ok;
}

}  // namespace perfbench
