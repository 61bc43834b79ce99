// Differential tests of MapReduce's local-sort entry point: sort_by_key and
// the grouping order reduce() builds on it, on both sort engines and on the
// budget-spill path, against std::stable_sort with the record comparators
// the operators used before the entry point existed. Sizes straddle
// sortlib::kRadixAutoCutoff so the dispatch takes both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
#include "sortlib/sort.hpp"
#include "util/membudget.hpp"
#include "util/rng.hpp"

namespace papar::mr {
namespace {

using Record = std::pair<std::string, std::string>;
using Records = std::vector<Record>;
using RecordLess = std::function<bool(const Record&, const Record&)>;

constexpr std::size_t kSizes[] = {0, 1, 8191, 8192, 50000};

std::vector<unsigned char> page_bytes(const Records& records) {
  KvBuffer page;
  for (const auto& [k, v] : records) page.add(k, v);
  return page.bytes();
}

/// What one run of `op` on a single-rank page did.
struct Outcome {
  std::vector<unsigned char> bytes;
  std::uint64_t radix_sorts = 0;
  std::uint64_t merge_sorts = 0;
};

/// Loads `input` into a one-rank MapReduce (under `budget` when non-null),
/// runs `op`, and returns the resulting page.
Outcome run_op(const Records& input, MemoryBudget* budget,
               const std::function<void(MapReduce&)>& op) {
  obs::Recorder recorder;
  Outcome out;
  mp::Runtime rt(1, mp::NetworkModel::zero());
  rt.set_recorder(&recorder);
  if (budget != nullptr) rt.set_memory_budget(budget);
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.mutable_local().adopt_bytes(page_bytes(input));
    op(mr);
    out.bytes = mr.local().bytes();
  });
  out.radix_sorts = recorder.counter("sort.engine_radix");
  out.merge_sorts = recorder.counter("sort.engine_merge");
  return out;
}

Records stable_sorted(Records records, const RecordLess& less) {
  std::stable_sort(records.begin(), records.end(), less);
  return records;
}

std::string distribute_key(std::uint32_t partition, std::uint64_t stamp) {
  std::string key(sizeof(partition) + sizeof(stamp), '\0');
  std::memcpy(key.data(), &partition, sizeof(partition));
  std::memcpy(key.data() + sizeof(partition), &stamp, sizeof(stamp));
  return key;
}

/// Group keys for reduce(): empty keys, keys that are prefixes of each
/// other (including trailing NULs), keys sharing a full 8-byte prefix,
/// keys longer than 8 bytes, and bytes >= 0x80. Values carry the input
/// index so stability within a group is visible.
Records byte_key_records(std::size_t n, std::uint64_t seed) {
  static const std::vector<std::string> fixed = {
      std::string(),
      std::string("ab"),
      std::string("ab\0", 3),
      std::string("ab\0\0", 4),
      std::string("ab\0\0\0\0\0\0", 8),
      std::string("ab\0\0\0\0\0\0\0", 9),
      std::string("ab\0\0\0\0\0\0\x01", 9),
      std::string("prefix00"),
      std::string("prefix00a"),
      std::string("prefix00b"),
      std::string("prefix00ab"),
      std::string("prefix00\xff"),
      std::string("prefix0"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\x80"),
  };
  Rng rng(seed);
  Records out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    if (rng.next_below(2) == 0) {
      key = fixed[rng.next_below(fixed.size())];
    } else {
      key.resize(rng.next_below(14));
      for (auto& c : key) c = static_cast<char>(rng.next_below(4) == 0 ? 0 : rng.next_below(256));
    }
    out.emplace_back(std::move(key), std::to_string(i));
  }
  return out;
}

/// Distribute's final page: (u32 partition, u64 stamp) keys with many
/// duplicate pairs, values drawn from a small set so some records are
/// fully identical.
Records distribute_records(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Records out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto partition = static_cast<std::uint32_t>(rng.next_below(7));
    const std::uint64_t stamp =
        rng.next_below(3) == 0 ? rng.next_u64() : rng.next_below(n / 4 + 1);
    std::string value(rng.next_below(6), 'v');
    for (auto& c : value) c = static_cast<char>('a' + rng.next_below(3));
    out.emplace_back(distribute_key(partition, stamp), std::move(value));
  }
  return out;
}

/// The key projection and the pre-entry-point comparator of distribute's
/// final sort.
SortKey distribute_sort_key(const KvPair& kv) {
  std::uint32_t partition;
  std::uint64_t stamp;
  std::memcpy(&partition, kv.key.data(), sizeof(partition));
  std::memcpy(&stamp, kv.key.data() + sizeof(partition), sizeof(stamp));
  return SortKey{partition, stamp};
}

bool distribute_less(const Record& a, const Record& b) {
  std::uint32_t pa, pb;
  std::uint64_t sa, sb;
  std::memcpy(&pa, a.first.data(), sizeof(pa));
  std::memcpy(&pb, b.first.data(), sizeof(pb));
  std::memcpy(&sa, a.first.data() + sizeof(pa), sizeof(sa));
  std::memcpy(&sb, b.first.data() + sizeof(pb), sizeof(sb));
  if (pa != pb) return pa < pb;
  if (sa != sb) return sa < sb;
  return a.second < b.second;
}

/// A sample-sort style projection with heavy ties: the key's first byte.
std::uint64_t first_byte(std::string_view key) {
  return key.empty() ? 0 : static_cast<unsigned char>(key[0]);
}

/// reduce() that re-emits every value under its group key: the output page
/// is the grouping order itself.
void regroup(MapReduce& mr) {
  mr.reduce([](std::string_view key, std::span<const std::string_view> values,
               KvEmitter& emit) {
    for (const auto v : values) emit.emit(key, v);
  });
}

/// Group keys around the 16-byte edge of reduce()'s sort key: keys of 0,
/// 1, 15, 16, 17 and 40 bytes, keys sharing their first 15 bytes, keys
/// that differ only in trailing NULs, and one 16-byte key holding half the
/// records. Each key travels inside its value as [u8 length][key][index],
/// under an empty record key, so reduce() groups through a projection.
Records long_key_records(std::size_t n, std::uint64_t seed) {
  const std::string base = "abcdefghijklmno";  // 15 bytes
  static const std::size_t kLengths[] = {0, 1, 15, 16, 17, 40};
  const std::vector<std::string> fixed = {
      std::string(),
      std::string("a"),
      base,
      base + std::string("\0", 1),
      base + std::string("\0\0", 2),
      base + "p",
      base + "pq",
      base + std::string("p\0", 2),
      base + std::string("\0p", 2),
      base + std::string(25, 'z'),
      base + std::string(24, 'z') + "y",
      std::string("ab"),
      std::string("ab\0", 3),
      std::string(16, '\xff'),
  };
  const std::string heavy = base + "x";
  Rng rng(seed);
  Records out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        key = heavy;
        break;
      case 2:
        key = fixed[rng.next_below(fixed.size())];
        break;
      default:
        key.resize(kLengths[rng.next_below(std::size(kLengths))]);
        for (auto& c : key) c = "\0a\xff"[rng.next_below(3)];
        break;
    }
    std::string value(1, static_cast<char>(key.size()));
    value += key;
    value += std::to_string(i);
    out.emplace_back(std::string(), std::move(value));
  }
  return out;
}

std::string_view value_key(std::string_view value) {
  return value.substr(1, static_cast<unsigned char>(value[0]));
}

/// reduce() through value_key(), re-emitting every value under its group
/// key.
void regroup_by_value_key(MapReduce& mr) {
  mr.reduce([](const KvPair& kv) { return value_key(kv.value); },
            [](std::string_view key, std::span<const std::string_view> values,
               KvEmitter& emit) {
              for (const auto v : values) emit.emit(key, v);
            });
}

/// What regroup_by_value_key() must produce: every record under its group
/// key, stably sorted by it.
Records regrouped_by_value_key(const Records& input) {
  Records want = stable_sorted(input, [](const Record& a, const Record& b) {
    return value_key(a.second) < value_key(b.second);
  });
  for (auto& [k, v] : want) k = std::string(value_key(v));
  return want;
}

/// Checks an outcome and that the dispatch took radix exactly at or past
/// the cutoff.
void expect_outcome(const Outcome& got, const Records& want, std::size_t n) {
  EXPECT_EQ(got.bytes, page_bytes(want));
  const bool radix = n >= sortlib::kRadixAutoCutoff;
  EXPECT_EQ(got.radix_sorts, radix ? 1u : 0u);
  EXPECT_EQ(got.merge_sorts, radix ? 0u : 1u);
}

TEST(SortByKey, ReduceGroupsInKeyByteOrderUnderEveryEngine) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const Records input = byte_key_records(n, 31 + n);
    const Records want = stable_sorted(
        input, [](const Record& a, const Record& b) { return a.first < b.first; });
    expect_outcome(run_op(input, nullptr, regroup), want, n);
  }
}

TEST(SortByKey, ReduceThroughProjectionOrdersKeysAroundSixteenBytes) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const Records input = long_key_records(n, 97 + n);
    expect_outcome(run_op(input, nullptr, regroup_by_value_key),
                   regrouped_by_value_key(input), n);
  }
}

TEST(SortByKey, DistributeOrderMatchesComparatorUnderEveryEngine) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const Records input = distribute_records(n, 47 + n);
    const Records want = stable_sorted(input, distribute_less);
    expect_outcome(run_op(input, nullptr,
                          [](MapReduce& mr) {
                            mr.sort_by_key(distribute_sort_key, TieBreak::kValue);
                          }),
                   want, n);
  }
}

TEST(SortByKey, ProjectionTieBreaksMatchComparatorUnderEveryEngine) {
  const auto key = [](const KvPair& kv) { return SortKey{first_byte(kv.key), 0}; };
  for (const std::size_t n : kSizes) {
    const Records input = byte_key_records(n, 59 + n);
    // kNone keeps page order among equal projections; kKeyValue orders
    // them by bytes.
    const Records want_stable =
        stable_sorted(input, [](const Record& a, const Record& b) {
          return first_byte(a.first) < first_byte(b.first);
        });
    const Records want_total =
        stable_sorted(input, [](const Record& a, const Record& b) {
          if (first_byte(a.first) != first_byte(b.first)) {
            return first_byte(a.first) < first_byte(b.first);
          }
          if (a.first != b.first) return a.first < b.first;
          return a.second < b.second;
        });
    SCOPED_TRACE(testing::Message() << "n=" << n);
    expect_outcome(
        run_op(input, nullptr, [&](MapReduce& mr) { mr.sort_by_key(key, TieBreak::kNone); }),
        want_stable, n);
    expect_outcome(
        run_op(input, nullptr,
               [&](MapReduce& mr) { mr.sort_by_key(key, TieBreak::kKeyValue); }),
        want_total, n);
  }
}

TEST(SortByKey, BudgetPastSoftWatermarkSpillsByteIdentically) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_sort_key_spill";
  std::filesystem::remove_all(dir);
  for (const std::size_t n : kSizes) {
    const Records dist_input = distribute_records(n, 71 + n);
    const Records dist_want = stable_sorted(dist_input, distribute_less);
    const Records group_input = byte_key_records(n, 83 + n);
    const Records group_want = stable_sorted(
        group_input, [](const Record& a, const Record& b) { return a.first < b.first; });
    SCOPED_TRACE(testing::Message() << "n=" << n);
    // Every page copy and key column lands past the soft watermark: the
    // sort runs externally and reduce falls back to the comparator order.
    MemoryBudget budget({.hard_limit = 64u << 20,
                         .soft_limit = 4096,
                         .mailbox_limit = 0,
                         .spill_dir = dir.string()});
    const Outcome sorted = run_op(dist_input, &budget, [](MapReduce& mr) {
      mr.sort_by_key(distribute_sort_key, TieBreak::kValue);
    });
    EXPECT_EQ(sorted.bytes, page_bytes(dist_want));
    const Outcome grouped = run_op(group_input, &budget, regroup);
    EXPECT_EQ(grouped.bytes, page_bytes(group_want));
    const Records long_input = long_key_records(n, 101 + n);
    const Outcome long_grouped = run_op(long_input, &budget, regroup_by_value_key);
    EXPECT_EQ(long_grouped.bytes, page_bytes(regrouped_by_value_key(long_input)));
    if (n >= sortlib::kRadixAutoCutoff) {
      EXPECT_EQ(sorted.radix_sorts, 0u);
      EXPECT_EQ(grouped.radix_sorts, 0u);
      EXPECT_EQ(long_grouped.radix_sorts, 0u);
      EXPECT_GT(budget.spill_bytes(), 0u);
    }
  }
  EXPECT_TRUE(!std::filesystem::exists(dir) || std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace papar::mr
