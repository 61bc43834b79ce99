// Before/after perf driver: reruns the A/Bs whose two sides both still
// run in the engine and writes the medians to BENCH_<workload>.json (see
// bench/bench_json.hpp for the schema).
//
// Workloads:
//   sortlib  parallel_sort on 1M random u64, 4 pool threads: the mergesort
//            engine with forced-scalar networks vs the radix engine kAuto
//            dispatches to, and forced-scalar vs vector kernels; then an
//            engine x SIMD matrix over key widths and input sizes. Every
//            cell is checked byte-identical to the first sort.
//
// Usage: run_bench [--out-dir DIR] [sortlib ...]
// Defaults: sortlib, files written to the current directory.
// PAPAR_BENCH_REPEATS (default 5) sets the sample count per knob;
// PAPAR_BENCH_SCALE shrinks the datasets for smoke runs as usual.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "bench/common.hpp"
#include "sortlib/simd.hpp"
#include "sortlib/sort.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace papar;

int repeats() {
  if (const char* s = std::getenv("PAPAR_BENCH_REPEATS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 5;
}

void print_entry(const bench::BenchEntry& e) {
  std::printf("  %-32s before %.4fs  after %.4fs  speedup %.2fx\n",
              e.name.c_str(), e.before_median(), e.after_median(), e.speedup());
}

/// One timed parallel_sort under an explicit (engine, SIMD) configuration,
/// hard-stopping if the output differs from `reference` (byte-identity
/// across every path is the contract the numbers ride on).
template <typename T>
double timed_sort(std::vector<T> v, ThreadPool& pool, sortlib::SortEngine engine,
                  bool force_scalar, std::vector<T>& reference) {
  sortlib::simd::set_force_scalar(force_scalar);
  WallTimer timer;
  sortlib::parallel_sort(std::span<T>(v), std::less<T>(), pool, nullptr, engine);
  const double wall = timer.seconds();
  sortlib::simd::set_force_scalar(false);
  if (reference.empty()) {
    reference = std::move(v);
  } else if (v != reference) {
    std::fprintf(stderr, "FATAL: sort output differs between engine paths\n");
    std::exit(1);
  }
  return wall;
}

template <typename T>
std::vector<T> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.next_u64());
  return v;
}

bench::BenchReport bench_sortlib(int reps) {
  const std::size_t n = bench::scaled(1'000'000);
  const std::size_t threads = 4;
  std::printf("sortlib: %zu random u64, %zu pool threads, %d repeats/knob\n", n,
              threads, reps);

  const auto base = random_keys<std::uint64_t>(n, 42);

  ThreadPool pool(threads);
  std::vector<std::uint64_t> reference;

  // Engine A/B on the headline input: the pre-vectorization default (the
  // parallel-merge sort with scalar networks) vs the LSD radix path kAuto
  // now dispatches large integral spans to.
  bench::BenchEntry engine_ab{"sort_engine.1M_u64.4t",
                              "parallel mergesort, scalar networks (previous default)",
                              "LSD radix (auto-dispatch choice)",
                              {},
                              {}};
  // SIMD A/B on the mergesort engine: forced-scalar networks/merge vs the
  // runtime-dispatched vector kernels.
  bench::BenchEntry simd_ab{"simd_networks.1M_u64.4t",
                            "scalar networks + scalar merge (PAPAR_FORCE_SCALAR)",
                            std::string("vector kernels (") +
                                sortlib::simd::level_name(sortlib::simd::active_level()) +
                                ")",
                            {},
                            {}};
  for (int r = 0; r < reps; ++r) {
    // The engine "before" forces scalar kernels: that is the parallel-merge
    // path as it existed before this round of vectorization work.
    engine_ab.before_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kMergesort, true, reference));
    engine_ab.after_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kRadix, false, reference));
    simd_ab.before_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kMergesort, true, reference));
    simd_ab.after_samples.push_back(
        timed_sort(base, pool, sortlib::SortEngine::kMergesort, false, reference));
  }

  bench::BenchReport report;
  report.bench = "sortlib";
  report.scale = bench::scale_factor();
  report.repeats = reps;
  report.entries = {engine_ab, simd_ab};

  // The sortlib-matrix sweep: engine path x key width x input size, every
  // cell byte-identity-checked. Covers both dispatch regimes (below/above
  // the radix cutoff territory) per width.
  const std::vector<std::size_t> matrix_sizes = {bench::scaled(65'536),
                                                 bench::scaled(1'000'000)};
  auto matrix_cell = [&](auto tag, const char* width_name, std::size_t size) {
    using T = decltype(tag);
    const auto data = random_keys<T>(size, 7 + size);
    const std::string suffix = std::string(width_name) + "." +
                               std::to_string(size / 1024) + "k";
    bench::BenchEntry radix_vs_merge{"matrix.radix_vs_merge." + suffix,
                                     "mergesort engine (SIMD leaves)",
                                     "radix engine",
                                     {},
                                     {}};
    bench::BenchEntry simd_vs_scalar{"matrix.simd_vs_scalar." + suffix,
                                     "mergesort engine, forced scalar",
                                     "mergesort engine, vector kernels",
                                     {},
                                     {}};
    std::vector<T> cell_reference;
    for (int r = 0; r < reps; ++r) {
      radix_vs_merge.before_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kMergesort, false, cell_reference));
      radix_vs_merge.after_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kRadix, false, cell_reference));
      simd_vs_scalar.before_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kMergesort, true, cell_reference));
      simd_vs_scalar.after_samples.push_back(
          timed_sort(data, pool, sortlib::SortEngine::kMergesort, false, cell_reference));
    }
    report.entries.push_back(std::move(radix_vs_merge));
    report.entries.push_back(std::move(simd_vs_scalar));
  };
  for (const std::size_t size : matrix_sizes) {
    matrix_cell(std::uint32_t{}, "u32", size);
    matrix_cell(std::uint64_t{}, "u64", size);
  }

  for (const auto& e : report.entries) print_entry(e);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  std::vector<std::string> workloads;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: run_bench [--out-dir DIR] [sortlib ...]\n");
      return 0;
    } else {
      workloads.emplace_back(argv[i]);
    }
  }
  if (workloads.empty()) workloads = {"sortlib"};

  const int reps = repeats();
  for (const std::string& w : workloads) {
    papar::bench::BenchReport report;
    if (w == "sortlib") {
      report = bench_sortlib(reps);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
      return 2;
    }
    const std::string path = out_dir + "/BENCH_" + report.bench + ".json";
    report.write(path);
    std::printf("  wrote %s\n", path.c_str());
  }
  return 0;
}
