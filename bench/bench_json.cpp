#include "bench/bench_json.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace papar::bench {

namespace {

// Shortest representation that round-trips a double, matching the obs JSON
// exporters.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[32];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      std::sscanf(shorter, "%lf", &back);
      if (back == v) return shorter;
    }
  }
  return buf;
}

void append_samples(std::ostringstream& os, const std::vector<double>& samples) {
  os << "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i) os << ",";
    os << number(samples[i]);
  }
  os << "]";
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

double BenchEntry::before_median() const { return median(before_samples); }
double BenchEntry::after_median() const { return median(after_samples); }

double BenchEntry::speedup() const {
  const double after = after_median();
  return after > 0.0 ? before_median() / after : 0.0;
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": " << obs::json::quote(bench) << ",\n";
  os << "  \"unit\": " << obs::json::quote(unit) << ",\n";
  os << "  \"scale\": " << number(scale) << ",\n";
  os << "  \"repeats\": " << repeats << ",\n";
  os << "  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    os << (i ? "," : "") << "\n    {\n";
    os << "      \"name\": " << obs::json::quote(e.name) << ",\n";
    os << "      \"before\": " << obs::json::quote(e.before_label) << ",\n";
    os << "      \"after\": " << obs::json::quote(e.after_label) << ",\n";
    os << "      \"before_median_s\": " << number(e.before_median()) << ",\n";
    os << "      \"after_median_s\": " << number(e.after_median()) << ",\n";
    os << "      \"speedup\": " << number(e.speedup()) << ",\n";
    os << "      \"before_samples_s\": ";
    append_samples(os, e.before_samples);
    os << ",\n      \"after_samples_s\": ";
    append_samples(os, e.after_samples);
    os << "\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

void BenchReport::write(const std::string& path) const {
  const std::string text = to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw DataError("cannot open " + path + " for writing");
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (n != text.size() || rc != 0) throw DataError("short write to " + path);
}

}  // namespace papar::bench
