// MetricsRegistry: named counters and virtual-time histograms with
// Prometheus text exposition.
//
// The tracing subsystem (trace.hpp) answers "what happened when"; this
// registry answers "how is the distribution shaped": message latency,
// payload size, mailbox queue depth, plus the run's counters and gauges (an
// obs::Recorder owns one registry and keeps its counters here). Histograms use
// fixed geometric buckets (powers of two from 2^-30 to 2^33), so a single
// ladder covers nanosecond latencies and multi-gigabyte payloads, and
// quantiles (p50/p95/p99) are estimated by geometric interpolation inside
// the winning bucket.
//
// Thread safety and hot-path cost: the name -> metric maps are guarded by
// one mutex, but `counter()`/`histogram()` return pointers that stay valid
// for the registry's lifetime, so callers on hot paths (one observation per
// simulated message) resolve each name once and then touch only atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace papar::obs {

/// Monotonic counter. Pointer-stable once created by the registry.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One timestamped point of a gauge timeline.
struct GaugePoint {
  double t = 0.0;  // seconds in the recording domain (virtual or wall)
  double v = 0.0;
};

/// Last-write-wins gauge with a bounded time series. Every set() updates
/// the current value and appends a point to a fixed-capacity ring, so the
/// exporters can draw the gauge as a line (Chrome-trace counter events,
/// JSON time series) instead of a single end-of-run number. Pointer-stable
/// once created by the registry.
class Gauge {
 public:
  explicit Gauge(std::size_t capacity = 1024);

  /// Records `value` at time `t`. Thread-safe; points are kept in call
  /// order (callers sample monotonically per series).
  void set(double value, double t = 0.0);

  /// Current (last written) value. Wait-free.
  double value() const { return last_.load(std::memory_order_relaxed); }

  /// Ring contents, oldest first.
  std::vector<GaugePoint> points() const;

 private:
  mutable std::mutex mutex_;
  std::vector<GaugePoint> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::atomic<double> last_{0.0};
};

/// Geometric-bucket histogram over nonnegative values.
class Histogram {
 public:
  /// Bucket i holds values in (upper_bound(i-1), upper_bound(i)];
  /// upper_bound(i) = 2^(i + kMinExp). One extra overflow bucket catches
  /// values beyond the ladder.
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -30;  // first upper bound = 2^-30 (~1 ns)

  /// Upper bound of bucket `i` (the +Inf bucket for i == kBuckets).
  static double upper_bound(int i);

  /// Index of the bucket `value` falls into (values <= 0 land in bucket 0).
  static int bucket_index(double value);

  void observe(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;
  double max() const;
  std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }

  /// Quantile estimate for q in [0, 1] (geometric interpolation within the
  /// winning bucket; exact at the recorded min/max ends). 0 when empty.
  double quantile(double q) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Thread-safe registry of named counters, histograms, and gauge
/// timelines.
class MetricsRegistry {
 public:
  /// Prometheus label set, in emission order.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// One gauge with its identity and series, as returned by gauge_series().
  struct GaugeSeries {
    std::string name;
    Labels labels;
    double value = 0.0;
    std::vector<GaugePoint> points;
  };

  /// Finds or creates; the returned pointer is stable for the registry's
  /// lifetime, so hot paths resolve each name once and keep the handle.
  Counter* counter(std::string_view name);
  Histogram* histogram(std::string_view name);
  /// Gauges are additionally keyed by their label set, so
  /// gauge("x", {{"rank","0"}}) and gauge("x", {{"rank","1"}}) are
  /// distinct series of one metric family.
  Gauge* gauge(std::string_view name, const Labels& labels = {});

  /// Snapshot of every gauge (identity, last value, time series).
  std::vector<GaugeSeries> gauge_series() const;

  /// Convenience single-shot forms (one map lookup each).
  void inc(std::string_view name, std::uint64_t delta = 1) { counter(name)->add(delta); }
  void observe(std::string_view name, double value) { histogram(name)->observe(value); }

  /// The counter's value, or 0 when no counter has that name (the read
  /// creates none).
  std::uint64_t counter_value(std::string_view name) const;
  std::map<std::string, std::uint64_t> counter_values() const;

  /// Prometheus text exposition format, version 0.0.4: counters as
  /// `papar_<name>_total`, histograms as `papar_<name>` with cumulative
  /// `_bucket{le=...}` lines (the `+Inf` bucket always emitted, equal to
  /// `_count`), `_sum`, and `_count`; gauges as `papar_<name>{labels}`
  /// with label values escaped per the text-format spec. Metric names are
  /// sanitized to [a-zA-Z0-9_].
  std::string to_prometheus() const;

  /// {"counters": {...}, "histograms": {name: {count, sum, min, max,
  /// p50, p95, p99}}, "gauges": {series: {value, points: [[t,v],...]}}}
  /// — the summary merged into --stats / trace reports.
  std::string to_json() const;

 private:
  struct GaugeEntry {
    std::string name;
    Labels labels;
    std::unique_ptr<Gauge> gauge;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, GaugeEntry, std::less<>> gauges_;  // keyed name+labels
};

/// `name` with every character outside [a-zA-Z0-9_] replaced by '_', and a
/// leading digit guarded — a valid Prometheus metric-name fragment.
std::string prometheus_name(std::string_view name);

/// `value` with `\`, `"`, and newline escaped as `\\`, `\"`, `\n` — a
/// valid Prometheus label value per the text-format spec.
std::string prometheus_escape_label_value(std::string_view value);

}  // namespace papar::obs
