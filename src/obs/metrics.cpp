#include "obs/metrics.hpp"

#include "obs/obs.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

namespace papar::obs {

namespace {

/// Formats a double compactly but round-trippably.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void atomic_add_double(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Canonical map key for a gauge: name + label set (order-sensitive).
std::string gauge_key(std::string_view name,
                      const MetricsRegistry::Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

/// `{k="v",...}` rendered for Prometheus / JSON series names; "" when
/// unlabeled.
std::string labels_suffix(const MetricsRegistry::Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += prometheus_name(k);
    out += "=\"";
    out += prometheus_escape_label_value(v);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

// -- Gauge --------------------------------------------------------------------

Gauge::Gauge(std::size_t capacity) {
  ring_.resize(capacity < 2 ? 2 : capacity);
}

void Gauge::set(double value, double t) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[head_] = GaugePoint{t, value};
    head_ = (head_ + 1) % ring_.size();
    if (count_ < ring_.size()) ++count_;
  }
  last_.store(value, std::memory_order_relaxed);
}

std::vector<GaugePoint> Gauge::points() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GaugePoint> out;
  out.reserve(count_);
  const std::size_t cap = ring_.size();
  const std::size_t start = (head_ + cap - count_) % cap;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % cap]);
  }
  return out;
}

// -- Histogram ----------------------------------------------------------------

double Histogram::upper_bound(int i) {
  if (i >= kBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i + kMinExp);
}

int Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;
  const int exp = static_cast<int>(std::ceil(std::log2(value))) - kMinExp;
  return std::clamp(exp, 0, kBuckets);
}

void Histogram::observe(double value) {
  buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, value);
  if (prev == 0) {
    // First observation seeds min/max; racing observers correct them below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, value, std::memory_order_relaxed);
  }
  atomic_min_double(min_, value);
  atomic_max_double(max_, value);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }
double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based.
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (int i = 0; i <= kBuckets; ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) continue;
    const std::uint64_t prev = cum;
    cum += c;
    if (static_cast<double>(cum) < target) continue;
    // Interpolate geometrically inside bucket i, clamped to observed range.
    const double lo = std::max(i == 0 ? 0.0 : upper_bound(i - 1), 0.0);
    double hi = upper_bound(i);
    if (std::isinf(hi)) hi = max();
    const double frac =
        c == 0 ? 1.0 : (target - static_cast<double>(prev)) / static_cast<double>(c);
    double v;
    if (lo > 0.0 && hi > lo) {
      v = lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    } else {
      v = hi * std::clamp(frac, 0.0, 1.0);
    }
    return std::clamp(v, min(), max());
  }
  return max();
}

// -- MetricsRegistry ----------------------------------------------------------

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = gauge_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    GaugeEntry entry;
    entry.name = std::string(name);
    entry.labels = labels;
    entry.gauge = std::make_unique<Gauge>();
    it = gauges_.emplace(key, std::move(entry)).first;
  }
  return it->second.gauge.get();
}

std::vector<MetricsRegistry::GaugeSeries> MetricsRegistry::gauge_series()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GaugeSeries> out;
  out.reserve(gauges_.size());
  for (const auto& [key, entry] : gauges_) {
    GaugeSeries s;
    s.name = entry.name;
    s.labels = entry.labels;
    s.value = entry.gauge->value();
    s.points = entry.gauge->points();
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) || c == '_' ? c : '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string prometheus_escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string n = "papar_" + prometheus_name(name) + "_total";
    os << "# TYPE " << n << " counter\n";
    os << n << " " << c->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = "papar_" + prometheus_name(name);
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t c = h->bucket_count(i);
      if (c == 0) continue;  // keep files compact
      cum += c;
      os << n << "_bucket{le=\"" << fmt(Histogram::upper_bound(i)) << "\"} "
         << cum << "\n";
    }
    // The spec makes the +Inf bucket mandatory (even for an empty
    // histogram) and its cumulative count must equal _count.
    cum += h->bucket_count(Histogram::kBuckets);
    os << n << "_bucket{le=\"+Inf\"} " << cum << "\n";
    os << n << "_sum " << fmt(h->sum()) << "\n";
    os << n << "_count " << h->count() << "\n";
  }
  std::string last_family;
  for (const auto& [key, entry] : gauges_) {
    const std::string n = "papar_" + prometheus_name(entry.name);
    if (n != last_family) {
      os << "# TYPE " << n << " gauge\n";
      last_family = n;
    }
    os << n << labels_suffix(entry.labels) << " " << fmt(entry.gauge->value())
       << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << json::quote(name) << ":" << c->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << json::quote(name) << ":{\"count\":" << h->count() << ",\"sum\":" << fmt(h->sum())
       << ",\"min\":" << fmt(h->min()) << ",\"max\":" << fmt(h->max())
       << ",\"p50\":" << fmt(h->quantile(0.50)) << ",\"p95\":" << fmt(h->quantile(0.95))
       << ",\"p99\":" << fmt(h->quantile(0.99)) << "}";
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [key, entry] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << json::quote(entry.name + labels_suffix(entry.labels))
       << ":{\"value\":" << fmt(entry.gauge->value()) << ",\"points\":[";
    const auto points = entry.gauge->points();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) os << ",";
      os << "[" << fmt(points[i].t) << "," << fmt(points[i].v) << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace papar::obs
