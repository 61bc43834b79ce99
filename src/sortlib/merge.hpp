// Two-way merge and a splitter-partitioned parallel multiway merge.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "sortlib/simd.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace papar::sortlib {

/// Merges sorted [a_first, a_last) and [b_first, b_last) — not necessarily
/// contiguous — into `out`. Ties take the A run first, so merges built from
/// stable runs stay stable.
///
/// u64 runs under the default ascending order route through the dispatched
/// bitonic merge kernel (simd.hpp); for a plain value type the merged byte
/// sequence is uniquely determined by the input multiset, so the kernel is
/// byte-identical to the scalar loop.
template <typename T, typename Less>
void merge_two(const T* a_first, const T* a_last, const T* b_first, const T* b_last,
               T* out, Less&& less) {
  if constexpr (std::is_same_v<std::remove_cv_t<T>, std::uint64_t> &&
                (std::is_same_v<std::decay_t<Less>, std::less<std::uint64_t>> ||
                 std::is_same_v<std::decay_t<Less>, std::less<>>)) {
    if (static_cast<std::size_t>((a_last - a_first) + (b_last - b_first)) >= 16) {
      simd::merge_two_u64(a_first, a_last, b_first, b_last, out);
      return;
    }
  }
  const T* a = a_first;
  const T* b = b_first;
  while (a != a_last && b != b_last) {
    if (less(*b, *a)) {
      *out++ = *b++;
    } else {
      *out++ = *a++;
    }
  }
  while (a != a_last) *out++ = *a++;
  while (b != b_last) *out++ = *b++;
}

/// Merges sorted [first, mid) and [mid, last) into `out`. Ties take the left
/// run first.
template <typename T, typename Less>
void merge_runs(const T* first, const T* mid, const T* last, T* out, Less&& less) {
  merge_two(first, mid, mid, last, out, less);
}

// -- Splitter-partitioned parallel multiway merge ----------------------------

/// Wall-time breakdown of one parallel_multiway_merge call.
struct MultiwayMergeStats {
  /// Splitter sampling plus the per-run boundary binary searches
  /// (sequential, O(sample log sample + jobs * k * log n)).
  double partition_seconds = 0.0;
  /// The two parallel merge passes over the data.
  double merge_seconds = 0.0;
  /// Independent merge jobs the output was partitioned into.
  std::size_t jobs = 0;
};

namespace merge_detail {

inline std::size_t ceil_log2(std::size_t m) {
  std::size_t levels = 0;
  std::size_t span = 1;
  while (span < m) {
    span <<= 1;
    ++levels;
  }
  return levels;
}

/// One bottom-up level: merges adjacent run pairs laid back-to-back at `src`
/// into the same offsets of `dst`; an odd trailing run is copied across so
/// the whole level lives in `dst` afterwards. `out_lens` receives the new
/// run lengths.
template <typename T, typename Less>
void merge_level(const T* src, T* dst, const std::vector<std::size_t>& lens,
                 std::vector<std::size_t>& out_lens, Less& less) {
  out_lens.clear();
  std::size_t off = 0;
  std::size_t i = 0;
  while (i + 1 < lens.size()) {
    const std::size_t a = lens[i];
    const std::size_t b = lens[i + 1];
    merge_runs(src + off, src + off + a, src + off + a + b, dst + off, less);
    out_lens.push_back(a + b);
    off += a + b;
    i += 2;
  }
  if (i < lens.size()) {
    std::copy(src + off, src + off + lens[i], dst + off);
    out_lens.push_back(lens[i]);
  }
}

}  // namespace merge_detail

namespace merge_detail {

/// Shared core of the two parallel_multiway_merge front ends.
///
/// `runs_in_scratch` selects the buffer topology:
///  - false (legacy): the runs may alias `out`; pass 1 reads the runs and
///    writes only `scratch`, pass 2 ping-pongs scratch <-> out ending in
///    `out` (pass-1 parity fold leaves an odd number of pass-2 levels).
///  - true: the runs live inside `scratch` and `out` is disjoint from them;
///    pass 1 writes straight into the final `out` windows (the fold parity
///    flips so pass 2 runs an even number of levels), which is what lets
///    parallel_sort land the cross-chunk merge in the caller's buffer with
///    no copy-back.
template <typename T, typename Less>
void multiway_merge_impl(std::vector<std::span<const T>> runs, std::span<T> out,
                         std::span<T> scratch_space, bool runs_in_scratch, Less less,
                         ThreadPool& pool, std::size_t jobs, MultiwayMergeStats* stats) {
  WallTimer timer;
  // Drop empty runs; run order (the tie-break order) is preserved.
  std::erase_if(runs, [](std::span<const T> r) { return r.empty(); });
  const std::size_t k = runs.size();
  std::size_t n = 0;
  for (const auto& r : runs) n += r.size();
  PAPAR_CHECK_MSG(n == out.size(), "multiway merge output size mismatch");
  if (stats != nullptr) *stats = MultiwayMergeStats{};
  if (k == 0) return;
  if (k == 1) {
    if (runs[0].data() != out.data()) std::copy(runs[0].begin(), runs[0].end(), out.begin());
    if (stats != nullptr) {
      stats->jobs = 1;
      stats->merge_seconds = timer.seconds();
    }
    return;
  }

  // Job count: one per pool thread, but never so many that jobs degenerate
  // to a few cache lines each.
  constexpr std::size_t kMinJobElements = 2048;
  if (jobs == 0) jobs = pool.size();
  jobs = std::max<std::size_t>(1, std::min(jobs, std::max<std::size_t>(1, n / kMinJobElements)));

  // Splitter selection: an evenly spaced sample of each run, sorted; the
  // boundary at lower_bound(splitter) sends every element comparing less
  // than the splitter left of the cut in *every* run, so equal elements
  // never straddle a job boundary.
  constexpr std::size_t kOversample = 16;
  std::vector<std::vector<std::size_t>> bounds(jobs + 1,
                                               std::vector<std::size_t>(k, 0));
  for (std::size_t i = 0; i < k; ++i) bounds[jobs][i] = runs[i].size();
  if (jobs > 1) {
    std::vector<T> sample;
    sample.reserve(k * kOversample * jobs);
    for (const auto& run : runs) {
      const std::size_t want = std::min(run.size(), kOversample * jobs);
      for (std::size_t s = 0; s < want; ++s) {
        sample.push_back(run[s * run.size() / want]);
      }
    }
    std::sort(sample.begin(), sample.end(), less);
    for (std::size_t j = 1; j < jobs; ++j) {
      const T& splitter = sample[j * sample.size() / jobs];
      for (std::size_t i = 0; i < k; ++i) {
        bounds[j][i] = static_cast<std::size_t>(
            std::lower_bound(runs[i].begin(), runs[i].end(), splitter, less) -
            runs[i].begin());
      }
    }
  }
  const double partition_seconds = timer.seconds();

  // Destination window of job j starts at the prefix sum of its boundaries.
  std::vector<std::size_t> offsets(jobs + 1, 0);
  for (std::size_t j = 0; j <= jobs; ++j) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < k; ++i) total += bounds[j][i];
    offsets[j] = total;
  }

  std::vector<T> owned_scratch;
  if (scratch_space.size() < n) {
    PAPAR_CHECK_MSG(!runs_in_scratch, "runs_in_scratch requires caller scratch");
    owned_scratch.resize(n);
    scratch_space = std::span<T>(owned_scratch);
  }
  T* const scratch = scratch_space.data();
  // Where pass 1 lands its merged/copied slices: straight into `out` when
  // the runs occupy scratch, into scratch otherwise.
  T* const pass1_base = runs_in_scratch ? out.data() : scratch;
  T* const pass2_other = runs_in_scratch ? scratch : out.data();
  // Run lengths inside each job's window after pass 1 (runs laid
  // back-to-back at pass1_base).
  std::vector<std::vector<std::size_t>> job_lens(jobs);

  // Pass 1 (reads the runs, writes only pass1_base): either copy the slices
  // into the job window or fold the first pairwise merge level into the
  // pass, choosing the fold so the number of pass-2 levels lands the final
  // ping-pong in `out` (odd when pass 1 wrote scratch, even when pass 1
  // wrote `out`).
  pool.parallel_for(jobs, [&](std::size_t begin, std::size_t end, std::size_t) {
    std::vector<std::size_t> lens;
    for (std::size_t j = begin; j < end; ++j) {
      lens.clear();
      T* window = pass1_base + offsets[j];
      const std::size_t levels = merge_detail::ceil_log2([&] {
        std::size_t m = 0;
        for (std::size_t i = 0; i < k; ++i) m += bounds[j + 1][i] > bounds[j][i] ? 1 : 0;
        return std::max<std::size_t>(m, 1);
      }());
      const std::size_t want_parity = runs_in_scratch ? 0u : 1u;
      const bool merge_first = levels >= 1 && levels % 2 != want_parity;
      std::size_t cursor = 0;
      std::size_t pending_begin = 0;  // first slice of an unmerged pair
      std::size_t pending_len = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t lo = bounds[j][i];
        const std::size_t hi = bounds[j + 1][i];
        if (hi <= lo) continue;
        const T* slice = runs[i].data() + lo;
        const std::size_t len = hi - lo;
        if (!merge_first) {
          std::copy(slice, slice + len, window + cursor);
          lens.push_back(len);
          cursor += len;
        } else if (pending_len == 0) {
          pending_begin = i;
          pending_len = len;
        } else {
          // Merge the pending slice with this one straight into the window
          // (merge_two: ties take the left run, i.e. the lower run index).
          const T* prev = runs[pending_begin].data() + bounds[j][pending_begin];
          merge_two(prev, prev + pending_len, slice, slice + len, window + cursor, less);
          lens.push_back(pending_len + len);
          cursor += pending_len + len;
          pending_len = 0;
        }
      }
      if (pending_len != 0) {
        const T* prev = runs[pending_begin].data() + bounds[j][pending_begin];
        std::copy(prev, prev + pending_len, window + cursor);
        lens.push_back(pending_len);
      }
      job_lens[j] = lens;
    }
  });

  // Pass 2 (job-private windows only): bottom-up pairwise merge levels
  // ping-ponging between the buffer pass 1 wrote and the other one. Pass
  // 1's parity choice makes the loop end in `out`; the trailing copy is a
  // safety net for the one-run case.
  pool.parallel_for(jobs, [&](std::size_t begin, std::size_t end, std::size_t) {
    std::vector<std::size_t> next;
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t size = offsets[j + 1] - offsets[j];
      if (size == 0) continue;
      T* cur = pass1_base + offsets[j];
      T* other = pass2_other + offsets[j];
      std::vector<std::size_t>& lens = job_lens[j];
      while (lens.size() > 1) {
        merge_detail::merge_level(cur, other, lens, next, less);
        lens.swap(next);
        std::swap(cur, other);
      }
      if (cur != out.data() + offsets[j]) {
        std::copy(cur, cur + size, out.data() + offsets[j]);
      }
    }
  });

  if (stats != nullptr) {
    stats->partition_seconds = partition_seconds;
    stats->merge_seconds = timer.seconds() - partition_seconds;
    stats->jobs = jobs;
  }
}

}  // namespace merge_detail

/// Merges k sorted runs into `out` (out.size() must equal the total run
/// length) using the pool: `jobs`-1 splitter values are sampled from the
/// runs, every run is sliced at lower_bound(splitter), and each of the
/// resulting jobs merges its slices — whose final destination window is
/// known from the boundary prefix sums — independently. `jobs` = 0 picks a
/// job count from the pool size.
///
/// The runs may alias `out` (they are read before the out window is
/// written): the first parallel pass only reads the runs and writes into
/// internal scratch; later passes ping-pong between scratch and `out`
/// strictly inside job-private windows, with a pool barrier in between.
///
/// The output is identical to a sequential stable k-way merge that resolves
/// ties by run index: slicing every run at lower_bound of the same splitter
/// keeps each group of mutually-equal elements inside one job, and the
/// in-job bottom-up pairwise merges (merge_runs: ties take the left run)
/// realize the same run-order tie-break.
template <typename T, typename Less>
void parallel_multiway_merge(std::vector<std::span<const T>> runs, std::span<T> out,
                             Less less, ThreadPool& pool, std::size_t jobs = 0,
                             MultiwayMergeStats* stats = nullptr) {
  merge_detail::multiway_merge_impl(std::move(runs), out, std::span<T>{}, false, less,
                                    pool, jobs, stats);
}

/// Variant for runs that already live inside a caller-owned scratch buffer
/// disjoint from `out` (parallel_sort lands its sorted chunks there): pass 1
/// merges the run slices straight into their final `out` windows and the
/// ping-pong parity is arranged to finish in `out`, so the merge needs no
/// internal allocation and no copy-back. `scratch` is clobbered.
template <typename T, typename Less>
void parallel_multiway_merge_from_scratch(std::vector<std::span<const T>> runs,
                                          std::span<T> out, std::span<T> scratch,
                                          Less less, ThreadPool& pool,
                                          std::size_t jobs = 0,
                                          MultiwayMergeStats* stats = nullptr) {
  PAPAR_CHECK_MSG(scratch.size() >= out.size(),
                  "from_scratch merge needs scratch covering the output");
  merge_detail::multiway_merge_impl(std::move(runs), out, scratch, true, less, pool,
                                    jobs, stats);
}

}  // namespace papar::sortlib
