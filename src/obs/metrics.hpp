// Observability, layer 1: a low-overhead process-wide metrics registry.
//
// Lucid's whole pitch is data-plane *visibility*, so the system instruments
// itself with the same discipline it compiles into switches. Three
// instrument kinds, all lock-free on the update path:
//
//   Counter    monotonic u64 (relaxed fetch_add)
//   Gauge      signed i64 level (relaxed set/add)
//   Histogram  fixed 65-bucket log2 histogram over u64 values: bucket 0
//              counts exact zeros, bucket k (1..64) counts values in
//              [2^(k-1), 2^k). Exact sum / count / min / max ride along, so
//              means are exact even though quantiles are bucket-estimated.
//
// `Registry::global()` hands out instruments by name; the returned
// references are stable for the process lifetime, so hot paths resolve once
// at construction and pay only relaxed atomics per update. Snapshots render
// to JSON (the shared support::JsonWriter path, same as `--time-passes=json`
// and the bench files) and to the Prometheus text exposition format
// (`lucidc --metrics-out=FILE.prom`; tools/validate_obs.py checks it).
//
// Naming convention: `lucid_<layer>_<what>[_total|_ns|...]`, Prometheus
// charset only ([a-zA-Z0-9_:]); the registry sanitizes anything else to '_'.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lucid::obs {

/// Prometheus-style labels: ordered key/value pairs. Instruments with the
/// same name but different labels are distinct series of one metric family
/// (e.g. `lucid_native_shard_packets_total{shard="3"}`).
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

struct LocalHistogram;

/// Log2-bucketed histogram over u64 values. 65 buckets: bucket 0 holds exact
/// zeros; bucket k (1..64) holds values v with 2^(k-1) <= v < 2^k (i.e.
/// bit_width(v) == k). Updates are a handful of relaxed atomic RMWs; there
/// is no lock anywhere.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  /// Bucket index for a value: bit_width(v) (0 for v == 0).
  [[nodiscard]] static int bucket_of(std::uint64_t v) {
    int w = 0;
    while (v != 0) {
      v >>= 1;
      ++w;
    }
    return w;
  }
  /// Inclusive upper bound of bucket k (2^k - 1; u64 max for k == 64).
  [[nodiscard]] static std::uint64_t bucket_upper(int k) {
    if (k >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << k) - 1;
  }

  void observe(std::uint64_t v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    atomic_min(min_, v);
    atomic_max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Wrapping u64 sum of observed values (wraps only past 2^64 total — fine
  /// for the nanosecond/size scales recorded here).
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// u64 max when empty (never observed), so min() <= max() iff non-empty.
  [[nodiscard]] std::uint64_t min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(int k) const {
    return buckets_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
  }

  /// Bucket-estimated quantile (q in [0,1]): finds the bucket holding the
  /// q-th observation and interpolates linearly inside it. Exact for
  /// count==0 (returns 0) and clamped by the observed min/max.
  [[nodiscard]] double quantile(double q) const;

  /// Adds every observation of `local` in one pass: a handful of relaxed
  /// RMWs per call instead of per observation.
  void merge(const LocalHistogram& local);

  void reset();

 private:
  static void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Histogram's buckets and totals as plain integers, for one owner: a hot
/// loop observes into it without atomics and publishes it with
/// Histogram::merge at a batch boundary.
struct LocalHistogram {
  std::uint64_t buckets[Histogram::kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;

  void observe(std::uint64_t v) {
    ++buckets[Histogram::bucket_of(v)];
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class Registry {
 public:
  /// The process-wide default registry (every instrument in the tree lives
  /// here; tests may construct private registries).
  [[nodiscard]] static Registry& global();

  /// Looks up or creates an instrument. The returned reference is stable for
  /// the registry's lifetime — hot paths resolve once and keep the pointer.
  /// `help` is recorded on first registration only. Thread-safe.
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::string_view help = "");

  /// Labeled variants: one series per distinct label set within the `name`
  /// family. Help is shared across the family (first registration wins).
  Counter& counter(std::string_view name, const Labels& labels,
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, const Labels& labels,
               std::string_view help = "");
  Histogram& histogram(std::string_view name, const Labels& labels,
                       std::string_view help = "");

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p99, buckets}}}.
  [[nodiscard]] std::string json() const;

  /// Prometheus text exposition format (HELP/TYPE lines, histogram
  /// cumulative le-buckets with +Inf, _sum and _count).
  [[nodiscard]] std::string prometheus() const;

  /// Zeroes every registered instrument (names and help stay registered, so
  /// cached pointers remain valid). Tests and benches scoping a measurement.
  void reset();

 private:
  /// Prometheus-legal name: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else '_'.
  static std::string sanitize(std::string_view name);
  /// Rendered `k="v",...` suffix (sanitized keys, escaped values); empty for
  /// no labels.
  static std::string render_labels(const Labels& labels);

  struct Entry {
    std::string family;  // sanitized metric name, shared across label sets
    std::string labels;  // rendered label body ("" for the unlabeled series)
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, const Labels* labels,
                   std::string_view help);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace lucid::obs
