// Machine-readable before/after benchmark records.
//
// tools/run_bench measures each workload under a "before" knob and an
// "after" knob (two configurations the engine still runs, e.g. forced-scalar
// vs vector sort kernels), several repeats each, and commits the medians as
// BENCH_<workload>.json at the repo root. Later PRs rerun the driver and
// diff against the committed files, so the perf trajectory of the hot
// paths is part of history rather than folklore.
//
// Schema (one file per workload):
//   {
//     "bench": "sortlib",
//     "unit": "seconds",
//     "repeats": 5,
//     "entries": [
//       {
//         "name": "simd_networks.1M_u64.4t",
//         "before": "scalar networks + scalar merge",
//         "after": "vector kernels (avx2)",
//         "before_median_s": 0.0231,
//         "after_median_s": 0.0142,
//         "speedup": 1.63,
//         "before_samples_s": [...],
//         "after_samples_s": [...]
//       }
//     ]
//   }
#pragma once

#include <string>
#include <vector>

namespace papar::bench {

/// Median of `samples` (by value; the vector is sorted internally).
/// Returns 0 for an empty input.
double median(std::vector<double> samples);

/// One measured quantity with its before/after sample sets.
struct BenchEntry {
  std::string name;          // dotted metric id, e.g. "merge_phase.1M_u64.4t"
  std::string before_label;  // what the "before" knob selects
  std::string after_label;   // what the "after" knob selects
  std::vector<double> before_samples;
  std::vector<double> after_samples;

  double before_median() const;
  double after_median() const;
  /// before/after medians ratio; >1 means the new path is faster.
  double speedup() const;
};

/// A workload's full record, serialized to one BENCH_*.json file.
struct BenchReport {
  std::string bench;          // workload id, e.g. "sortlib"
  std::string unit = "seconds";
  /// PAPAR_BENCH_SCALE the samples were taken at (datasets scale with it).
  double scale = 1.0;
  int repeats = 0;
  std::vector<BenchEntry> entries;

  std::string to_json() const;
  /// Writes to_json() to `path`, throws papar::DataError on I/O failure.
  void write(const std::string& path) const;
};

}  // namespace papar::bench
