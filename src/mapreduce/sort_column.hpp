// Internal to mapreduce/: the radix column every engine-local sort runs on,
// and the sample sort's rank-0 splitter pick, which orders the gathered
// sample through the same column.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "sortlib/radix.hpp"

namespace papar::mr::detail {

/// `width` (at most 8) bytes of `s` from `from` as a big-endian integer,
/// zero-padded past the end of `s`. Zero-padding never contradicts byte
/// order: a < b implies be_bytes(a, 0, w) <= be_bytes(b, 0, w), and the
/// same for later words of strings whose earlier words are equal.
inline std::uint64_t be_bytes(std::string_view s, std::size_t from, std::size_t width) {
  unsigned char buf[8] = {};
  if (from < s.size()) std::memcpy(buf, s.data() + from, std::min(width, s.size() - from));
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < width; ++i) x = (x << 8) | buf[i];
  return x;
}

/// One entry of a sort column: a SortKey and where its record is (a page
/// offset, or an index into the sample).
struct KeyedIndex {
  SortKey key;
  std::size_t at = 0;
};

/// Bytes an n-entry column and its radix scratch occupy: the charge a rank
/// takes on its memory budget while it sorts one.
constexpr std::size_t column_bytes(std::size_t n) { return 2 * n * sizeof(KeyedIndex); }

/// Byte passes one sort_column call ran and skipped, over both words.
struct ColumnStats {
  std::size_t passes = 0;
  std::size_t skipped_passes = 0;
};

/// Sorts `column` stably by (major, minor): an LSD radix sort of the minor
/// word, skipped when the column is already in minor order (distribute's
/// ascending stamps), then of the major word, each skipping trivial byte
/// passes. Stability keeps equal SortKeys in column order. With a `tie`
/// (`tie(a, b)` orders two entries whose SortKeys are equal), each run of
/// equal SortKeys that is out of `tie` order is then stable-sorted by it.
template <typename Tie = std::nullptr_t>
ColumnStats sort_column(std::vector<KeyedIndex>& column, const Tie& tie = nullptr) {
  const std::size_t n = column.size();
  sortlib::RadixStats minor;
  sortlib::RadixStats major;
  {
    std::vector<KeyedIndex> scratch(n);
    if (std::is_sorted(column.begin(), column.end(),
                       [](const KeyedIndex& a, const KeyedIndex& b) {
                         return a.key.minor < b.key.minor;
                       })) {
      minor.skipped_passes = sizeof(std::uint64_t);
    } else {
      sortlib::lsd_radix_sort_seq(
          std::span<KeyedIndex>(column), std::span<KeyedIndex>(scratch),
          [](const KeyedIndex& e) { return e.key.minor; }, &minor);
    }
    sortlib::lsd_radix_sort_seq(
        std::span<KeyedIndex>(column), std::span<KeyedIndex>(scratch),
        [](const KeyedIndex& e) { return e.key.major; }, &major);
  }
  if constexpr (!std::is_null_pointer_v<Tie>) {
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && column[j].key.major == column[i].key.major &&
             column[j].key.minor == column[i].key.minor) {
        ++j;
      }
      const auto first = column.begin() + static_cast<std::ptrdiff_t>(i);
      const auto last = column.begin() + static_cast<std::ptrdiff_t>(j);
      if (j - i > 1 && !std::is_sorted(first, last, tie)) std::stable_sort(first, last, tie);
      i = j;
    }
  }
  return ColumnStats{minor.passes + major.passes, minor.skipped_passes + major.skipped_passes};
}

/// A sampled record, and a sample_sort_u64 splitter: the directed
/// projection plus, for composite splitters, views of the record's bytes.
struct SampleView {
  std::uint64_t proj = 0;
  std::string_view key;
  std::string_view value;
};

/// The sample sort's total order: projection, then key bytes, then value
/// bytes.
inline bool sample_less(const SampleView& a, const SampleView& b) {
  if (a.proj != b.proj) return a.proj < b.proj;
  const int by_key = a.key.compare(b.key);
  return by_key != 0 ? by_key < 0 : a.value < b.value;
}

/// The minor word of the sample sort's SortKey under its byte tie-break: an
/// empty key gives its value's big-endian first 7 bytes, any other key
/// `1<<56` | its own first 7. Zero-padded, it never contradicts (key bytes,
/// value bytes) order, since empty keys sort first.
inline std::uint64_t byte_prefix(std::string_view key, std::string_view value) {
  return key.empty() ? be_bytes(value, 0, 7) : (std::uint64_t{1} << 56) | be_bytes(key, 0, 7);
}

/// Rank 0's splitter pick: the samples at ranks i·n/p (0 < i < p) of
/// `sample` under sample_less — the bytes a comparator sort of the whole
/// sample picks, since samples equal under sample_less are byte-identical.
/// The sample is ordered through a sort_column keyed as sample_sort_u64's
/// final local sort keys its records (major: the projection; minor:
/// byte_prefix for `composite` samples, else 0), with sample_less settling
/// equal-SortKey runs. The column is charged to `budget` at `rank`; where
/// it would cross a spill-ready budget's soft watermark, the views are
/// sorted by sample_less instead. An empty sample gives p−1 sentinels with
/// the largest projection: with no records anywhere, no boundary is
/// consulted.
std::vector<SampleView> pick_splitters(std::vector<SampleView> sample, int p, bool composite,
                                       MemoryBudget* budget = nullptr, int rank = 0);

}  // namespace papar::mr::detail
