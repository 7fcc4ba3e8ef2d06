/**
 * @file
 * Measurement substrate of the benchmark: clocks, exact percentiles,
 * bounded latency samples, the open-loop arrival schedule, CPU / memory
 * probes, the host calibration spin, the provenance stamp, and the
 * ordered metric set every run prints.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds (steady_clock epoch). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile, @p p in [0, 100]; 0 when @p values is
 *  empty. Takes a copy so callers keep their order. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/**
 * A uniform sample of a stream of doubles with fixed memory (Vitter's
 * Algorithm R). Below capacity every value is kept, so percentiles are
 * exact; storage is allocated and touched up front so a run's resident
 * memory does not depend on how many values it records. Each value
 * carries a small tag (the measurement window it belongs to), so one
 * sample serves every window. Thread-safe.
 */
class Reservoir
{
  public:
    Reservoir(std::size_t capacity, std::uint64_t seed);
    void add(double value, std::uint32_t tag = 0);
    std::uint64_t seen() const;
    /** The retained values. */
    std::vector<double> samples() const;
    /** The retained values split by tag; tags >= @p tags are dropped. */
    std::vector<std::vector<double>> samplesByTag(std::size_t tags) const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> store_;
    std::vector<std::uint32_t> tags_;
    std::size_t filled_ = 0;
    std::uint64_t seen_ = 0;
    std::mt19937_64 rng_;
};

/** Median over windows of each window's @p p percentile, skipping
 *  windows with fewer than @p min_samples values. */
double windowedPercentile(const std::vector<std::vector<double>> &windows,
                          double p, std::size_t min_samples);

/**
 * Open-loop Poisson schedule: the due times of arrivals at @p rate per
 * second over @p seconds, in nanoseconds after the schedule starts, made
 * one at a time so the schedule takes no memory. The same seed gives the
 * same schedule.
 */
class PoissonSchedule
{
  public:
    PoissonSchedule(double rate, double seconds, std::uint64_t seed);
    /** The next due time into @p due_ns; false once past the horizon. */
    bool next(std::int64_t &due_ns);

  private:
    std::mt19937_64 rng_;
    std::exponential_distribution<double> gap_;
    double horizonNs_;
    double t_ = 0.0;
};

/** How late an arrival was submitted (0 when early or on time). */
inline std::int64_t
latenessNs(std::int64_t due_ns, std::int64_t submitted_ns)
{
    return submitted_ns > due_ns ? submitted_ns - due_ns : 0;
}

double threadCpuSeconds();
double processCpuSeconds();
/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Keep every hardware thread busy for @p seconds. A host whose cores
 * sat idle serves the first seconds after it wakes measurably slower
 * (wake-up latency of a sleeping batcher thread, clocks ramping up), so
 * every run starts from a busy host.
 */
void warmHost(double seconds);

/**
 * Time of a fixed integer-mixing spin (median of several), in ns. The
 * work never changes, so a run with a high value ran on a busy or
 * throttled host.
 */
double calibrationSpinNs();

/** Where and on what a run was measured. */
struct Provenance
{
    std::string gitSha;
    std::string cpuModel;
    unsigned nproc = 0;
    std::string kernelTarget;
    std::string kernelProvenance;
    double hostSpinNs = 0.0;
};
Provenance collectProvenance(const std::string &git_sha);
void writeProvenance(std::ostream &out, const Provenance &provenance,
                     const std::string &workload, std::uint64_t seed);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The ordered metrics of one run; set() on an existing name
 *  overwrites it. */
class MetricSet
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    const std::vector<Metric> &all() const { return metrics_; }
    /** Value of @p name, or 0 when it was never set. */
    double get(const std::string &name) const;

  private:
    std::vector<Metric> metrics_;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
void writeResult(std::ostream &out, bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const MetricSet &metrics);

/** Checks of the benchmark's own arithmetic (percentiles, reservoir,
 *  due times, lateness). Returns false and reports on @p err when one
 *  fails. */
bool runSelfTests(std::ostream &err);

}  // namespace perfbench
