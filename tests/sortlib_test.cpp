// Tests for sortlib: sorting networks, two-way merge, loser tree, and the
// full (parallel) mergesort, including property sweeps against std::sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "sortlib/merge.hpp"
#include "sortlib/networks.hpp"
#include "sortlib/sort.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace papar::sortlib {
namespace {

TEST(Networks, Sort8AllPermutationsOfDistinct) {
  // Exhaustive: 8! = 40320 permutations.
  std::array<int, 8> base{0, 1, 2, 3, 4, 5, 6, 7};
  std::array<int, 8> perm = base;
  do {
    auto work = perm;
    sort8(work.data(), std::less<int>());
    EXPECT_TRUE(std::is_sorted(work.begin(), work.end()));
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Networks, Sort8ZeroOnePrinciple) {
  // The 0-1 principle: a network sorting all 2^8 bit vectors sorts
  // everything.
  for (unsigned mask = 0; mask < 256; ++mask) {
    std::array<int, 8> v;
    for (int i = 0; i < 8; ++i) v[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    sort8(v.data(), std::less<int>());
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << "mask=" << mask;
  }
}

TEST(Networks, SortSmallHandlesAllLengths) {
  Rng rng(17);
  for (std::size_t n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint64_t> v(n);
      for (auto& x : v) x = rng.next_below(100);
      sort_small(v.data(), n, std::less<std::uint64_t>());
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
    }
  }
}

TEST(Merge, MergeRunsBasic) {
  std::vector<int> data{1, 3, 5, 2, 4, 6};
  std::vector<int> out(6);
  merge_runs(data.data(), data.data() + 3, data.data() + 6, out.data(),
             std::less<int>());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Merge, MergeRunsEmptySides) {
  std::vector<int> data{1, 2, 3};
  std::vector<int> out(3);
  merge_runs(data.data(), data.data() + 3, data.data() + 3, out.data(),
             std::less<int>());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  merge_runs(data.data(), data.data(), data.data() + 3, out.data(), std::less<int>());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(Merge, MergeRunsTiesTakeLeft) {
  // Equal keys: left run's element must come first (stability).
  std::vector<std::pair<int, char>> data{{1, 'L'}, {2, 'L'}, {1, 'R'}, {2, 'R'}};
  std::vector<std::pair<int, char>> out(4);
  auto less = [](const auto& a, const auto& b) { return a.first < b.first; };
  merge_runs(data.data(), data.data() + 2, data.data() + 4, out.data(), less);
  EXPECT_EQ(out[0].second, 'L');
  EXPECT_EQ(out[1].second, 'R');
  EXPECT_EQ(out[2].second, 'L');
  EXPECT_EQ(out[3].second, 'R');
}

// -- parallel_multiway_merge -------------------------------------------------

// Reference: the stable k-way merge the parallel version must reproduce —
// concatenate the runs in run order and stable_sort (equal elements keep
// run order, then in-run order).
template <typename T, typename Less>
std::vector<T> reference_merge(const std::vector<std::vector<T>>& runs, Less less) {
  std::vector<T> out;
  for (const auto& r : runs) out.insert(out.end(), r.begin(), r.end());
  std::stable_sort(out.begin(), out.end(), less);
  return out;
}

template <typename T, typename Less>
std::vector<T> run_parallel_merge(const std::vector<std::vector<T>>& runs, Less less,
                                  std::size_t threads, std::size_t jobs) {
  std::size_t n = 0;
  for (const auto& r : runs) n += r.size();
  std::vector<T> out(n);
  std::vector<std::span<const T>> spans(runs.begin(), runs.end());
  ThreadPool pool(threads);
  parallel_multiway_merge(std::move(spans), std::span<T>(out), less, pool, jobs);
  return out;
}

TEST(ParallelMultiwayMerge, DuplicatesCrossingSplitterBoundaries) {
  // Heavy duplication: with only 8 distinct values, nearly every splitter
  // value occurs in every run, so job boundaries land inside duplicate
  // groups in the sample. Payload carries (run, position) to prove the
  // merge keeps the stable run-order tie-break.
  struct Rec {
    std::uint32_t key;
    std::uint32_t run;
    std::uint32_t pos;
    bool operator==(const Rec&) const = default;
  };
  const auto less = [](const Rec& a, const Rec& b) { return a.key < b.key; };
  Rng rng(101);
  std::vector<std::vector<Rec>> runs(6);
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    runs[r].resize(4000);
    for (std::uint32_t i = 0; i < runs[r].size(); ++i) {
      runs[r][i] = {static_cast<std::uint32_t>(rng.next_below(8)), r, i};
    }
    std::stable_sort(runs[r].begin(), runs[r].end(), less);
    for (std::uint32_t i = 0; i < runs[r].size(); ++i) runs[r][i].pos = i;
  }
  const auto expected = reference_merge(runs, less);
  for (std::size_t jobs : {2, 3, 4, 8}) {
    EXPECT_EQ(run_parallel_merge(runs, less, 4, jobs), expected) << "jobs=" << jobs;
  }
}

TEST(ParallelMultiwayMerge, AllEqualKeys) {
  struct Rec {
    std::uint32_t key;
    std::uint32_t run;
    std::uint32_t pos;
    bool operator==(const Rec&) const = default;
  };
  const auto less = [](const Rec& a, const Rec& b) { return a.key < b.key; };
  std::vector<std::vector<Rec>> runs(4);
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    for (std::uint32_t i = 0; i < 3000; ++i) runs[r].push_back({7, r, i});
  }
  // All elements tie: output must be run 0 in order, then run 1, ...
  const auto expected = reference_merge(runs, less);
  EXPECT_EQ(run_parallel_merge(runs, less, 4, 4), expected);
}

TEST(ParallelMultiwayMerge, WildlyDifferentRunLengths) {
  Rng rng(113);
  const std::size_t lengths[] = {1, 100000, 3, 5000, 0, 7, 40000, 2};
  std::vector<std::vector<std::uint64_t>> runs;
  for (std::size_t len : lengths) {
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = rng.next_below(1 << 16);
    std::sort(run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  const auto expected = reference_merge(runs, std::less<std::uint64_t>());
  for (std::size_t threads : {1, 4}) {
    EXPECT_EQ(run_parallel_merge(runs, std::less<std::uint64_t>(), threads, 0), expected);
  }
}

TEST(ParallelMultiwayMerge, SingleAndEmptyRuns) {
  std::vector<std::vector<int>> runs{{}, {1, 2, 3}, {}};
  EXPECT_EQ(run_parallel_merge(runs, std::less<int>(), 2, 4),
            (std::vector<int>{1, 2, 3}));
  std::vector<std::vector<int>> empty{{}, {}};
  EXPECT_TRUE(run_parallel_merge(empty, std::less<int>(), 2, 2).empty());
}

TEST(ParallelMultiwayMerge, ReportsStats) {
  Rng rng(127);
  std::vector<std::vector<std::uint64_t>> runs(4);
  for (auto& run : runs) {
    run.resize(20000);
    for (auto& x : run) x = rng.next_u64();
    std::sort(run.begin(), run.end());
  }
  std::vector<std::uint64_t> out(80000);
  std::vector<std::span<const std::uint64_t>> spans(runs.begin(), runs.end());
  ThreadPool pool(4);
  MultiwayMergeStats stats;
  parallel_multiway_merge(std::move(spans), std::span<std::uint64_t>(out),
                          std::less<std::uint64_t>(), pool, 4, &stats);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(stats.jobs, 4u);
  EXPECT_GE(stats.partition_seconds, 0.0);
  EXPECT_GE(stats.merge_seconds, 0.0);
}

TEST(BalancedChunkRanges, CoverageAndBalance) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 100u, 1000u, 65537u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 4u, 7u, 16u}) {
      const auto ranges = balanced_chunk_ranges(n, chunks);
      ASSERT_EQ(ranges.size(), chunks);
      std::size_t expect_begin = 0;
      std::size_t min_size = n + 1;
      std::size_t max_size = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_GE(end, begin);
        min_size = std::min(min_size, end - begin);
        max_size = std::max(max_size, end - begin);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " chunks=" << chunks;
    }
  }
}

class MergeSortSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergeSortSizes, MatchesStdSort) {
  const std::size_t n = GetParam();
  Rng rng(31 + n);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(1000);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  merge_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>());
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MergeSortSizes,
                         ::testing::Values(0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 100,
                                           1000, 4097, 65536));

TEST(MergeSort, AlreadySortedAndReversed) {
  std::vector<std::uint64_t> v(5000);
  std::iota(v.begin(), v.end(), 0);
  auto expected = v;
  merge_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>());
  EXPECT_EQ(v, expected);
  std::reverse(v.begin(), v.end());
  merge_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>());
  EXPECT_EQ(v, expected);
}

TEST(MergeSort, AllEqualKeys) {
  std::vector<std::uint64_t> v(1000, 42);
  merge_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>());
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](auto x) { return x == 42; }));
}

TEST(MergeSort, CustomComparatorDescending) {
  Rng rng(41);
  std::vector<std::uint64_t> v(3000);
  for (auto& x : v) x = rng.next_u64();
  merge_sort(std::span<std::uint64_t>(v), std::greater<std::uint64_t>());
  EXPECT_TRUE(std::is_sorted(v.rbegin(), v.rend()));
}

class ParallelSortThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSortThreads, MatchesStdSort) {
  ThreadPool pool(GetParam());
  Rng rng(51);
  std::vector<std::uint64_t> v(20000);
  for (auto& x : v) x = rng.next_below(1 << 20);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>(), pool);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelSortThreads, ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelSort, HeavyDuplicationMatchesStableSortUnderTotalOrder) {
  // Regression guard for equal-key handling across the chunk-sort + parallel
  // merge path. With only four distinct keys, almost every comparison during
  // the k-way merge is a tie. Under a total order (key, then sequence number)
  // the result must match std::stable_sort element for element — any dropped,
  // duplicated, or misordered tie shows up as an exact mismatch.
  struct Rec {
    std::uint32_t key;
    std::uint32_t seq;
    bool operator==(const Rec&) const = default;
  };
  const auto less = [](const Rec& a, const Rec& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  };
  Rng rng(77);
  std::vector<Rec> v(100000);
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    v[i] = {static_cast<std::uint32_t>(rng.next_below(4)), i};
  }
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(), less);
  ThreadPool pool(4);
  parallel_sort(std::span<Rec>(v), less, pool);
  EXPECT_EQ(v, expected);
}

TEST(ParallelSort, ParallelMergeMatchesStableSortUnderTotalOrder) {
  // Partition-identity guarantee: under a total order (key, then full record
  // bytes) the splitter-partitioned merge must produce exactly the bytes
  // std::stable_sort produces.
  struct Rec {
    std::uint64_t key;
    std::uint64_t bytes;
    bool operator==(const Rec&) const = default;
  };
  const auto less = [](const Rec& a, const Rec& b) {
    return a.key != b.key ? a.key < b.key : a.bytes < b.bytes;
  };
  Rng rng(203);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Rec> base(60000);
    for (auto& r : base) {
      r.key = rng.next_below(trial == 0 ? 3 : 1 << 10);  // trial 0: heavy dups
      r.bytes = rng.next_u64();
    }
    auto via_parallel = base;
    ThreadPool pool(4);
    parallel_sort(std::span<Rec>(via_parallel), less, pool);
    std::stable_sort(base.begin(), base.end(), less);
    EXPECT_EQ(via_parallel, base);
  }
}

TEST(ParallelSort, BreakdownReportsMergeJobs) {
  // Pin the mergesort engine: under kAuto a span this large of integral keys
  // auto-dispatches to radix, which reports no merge phase at all.
  ThreadPool pool(4);
  Rng rng(19);
  std::vector<std::uint64_t> v(200000);
  for (auto& x : v) x = rng.next_u64();
  SortBreakdown breakdown;
  parallel_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>(), pool,
                &breakdown, SortEngine::kMergesort);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(breakdown.chunks, 4u);
  EXPECT_EQ(breakdown.engine_used, SortEngine::kMergesort);
  EXPECT_GE(breakdown.merge_jobs, 2u);
  EXPECT_GE(breakdown.merge_seconds, breakdown.merge_partition_seconds);
}

TEST(ParallelSort, BreakdownSplitsChunkSortAndMerge) {
  ThreadPool pool(4);
  Rng rng(9);
  std::vector<std::uint64_t> v(50000);
  for (auto& x : v) x = rng.next_u64();
  SortBreakdown breakdown;
  parallel_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>(), pool,
                &breakdown);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_GT(breakdown.chunks, 1u);
  EXPECT_GE(breakdown.chunk_sort_seconds, 0.0);
  EXPECT_GE(breakdown.merge_seconds, 0.0);
}

TEST(ParallelSort, BreakdownSmallInputIsSingleChunk) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> v{5, 4, 3, 2, 1};
  SortBreakdown breakdown;
  parallel_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>(), pool,
                &breakdown);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(breakdown.chunks, 1u);
  EXPECT_EQ(breakdown.merge_seconds, 0.0);
}

TEST(ParallelSort, TinyInputFallsBackToSerial) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> v{3, 1, 2};
  parallel_sort(std::span<std::uint64_t>(v), std::less<std::uint64_t>(), pool);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ParallelSort, SortsStructsByKey) {
  struct Entry {
    std::uint32_t key;
    std::uint32_t payload;
  };
  ThreadPool pool(2);
  Rng rng(61);
  std::vector<Entry> v(5000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = Entry{static_cast<std::uint32_t>(rng.next_below(100)),
                 static_cast<std::uint32_t>(i)};
  }
  parallel_sort(std::span<Entry>(v),
                [](const Entry& a, const Entry& b) { return a.key < b.key; }, pool);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), [](const Entry& a, const Entry& b) {
    return a.key < b.key;
  }));
}

}  // namespace
}  // namespace papar::sortlib
