// Differential tests of MapReduce's local-sort entry point: sort_by_key and
// the grouping order reduce() builds on it, on both sort engines and on the
// budget-spill path, against std::stable_sort with the record comparators
// the operators used before the entry point existed. Sizes run from an
// empty page to 50000 records; unbudgeted, every page takes the radix
// column. The sample sort's splitter pick, which orders its sample through
// the same radix column, is checked against a comparator sort of the whole
// sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "mapreduce/sort_column.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
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

/// Checks an outcome and that the dispatch took the radix column.
void expect_outcome(const Outcome& got, const Records& want) {
  EXPECT_EQ(got.bytes, page_bytes(want));
  EXPECT_EQ(got.radix_sorts, 1u);
  EXPECT_EQ(got.merge_sorts, 0u);
}

TEST(SortByKey, ReduceGroupsInKeyByteOrderUnderEveryEngine) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const Records input = byte_key_records(n, 31 + n);
    const Records want = stable_sorted(
        input, [](const Record& a, const Record& b) { return a.first < b.first; });
    expect_outcome(run_op(input, nullptr, regroup), want);
  }
}

TEST(SortByKey, ReduceThroughProjectionOrdersKeysAroundSixteenBytes) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const Records input = long_key_records(n, 97 + n);
    expect_outcome(run_op(input, nullptr, regroup_by_value_key),
                   regrouped_by_value_key(input));
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
                   want);
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
        want_stable);
    expect_outcome(
        run_op(input, nullptr,
               [&](MapReduce& mr) { mr.sort_by_key(key, TieBreak::kKeyValue); }),
        want_total);
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
    if (detail::column_bytes(n) > budget.config().soft_limit) {
      EXPECT_EQ(sorted.radix_sorts, 0u);
      EXPECT_EQ(grouped.radix_sorts, 0u);
      EXPECT_EQ(long_grouped.radix_sorts, 0u);
      EXPECT_GT(budget.spill_bytes(), 0u);
    }
  }
  EXPECT_TRUE(!std::filesystem::exists(dir) || std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// -- The sample sort's splitter pick ------------------------------------------

/// A gathered sample: views into bytes it owns, as rank 0 holds them.
struct Sample {
  std::deque<std::string> bytes;
  std::vector<detail::SampleView> views;

  void add(std::uint64_t proj, std::string key, std::string value) {
    const std::string& k = bytes.emplace_back(std::move(key));
    const std::string& v = bytes.emplace_back(std::move(value));
    views.push_back(detail::SampleView{proj, k, v});
  }
};

/// Short strings over bytes that stress a byte-prefix key: NULs, bytes at
/// and past 0x80, and prefixes shared for 7 bytes or more.
std::string tricky_bytes(Rng& rng) {
  static const char kAlphabet[] = {'\0', '\x01', 'a', 'b', '\x7f', '\x80', '\xff'};
  std::string s;
  switch (rng.next_below(4)) {
    case 0: s = "SHARED7"; break;                       // a 7-byte prefix many share
    case 1: s = std::string("ab\0", 3); break;          // a NUL inside the prefix
    case 2: s = "\xff\xff\xff\xff\xff\xff\xff"; break;  // an all-ones prefix
    default: break;
  }
  const std::size_t tail = rng.next_below(6);
  for (std::size_t i = 0; i < tail; ++i) s += kAlphabet[rng.next_below(sizeof(kAlphabet))];
  if (rng.next_below(4) == 0) s.append(rng.next_below(3) + 1, '\0');  // trailing NULs
  return s;
}

/// `n` seeded adversarial samples: projections with many duplicates (or one
/// constant projection), empty and non-empty keys, values sharing 7-byte
/// prefixes, trailing NULs, high bytes and duplicated records. Plain
/// samples carry only their projection, as on the wire.
Sample adversarial_sample(std::size_t n, bool composite, bool constant_proj, std::uint64_t seed) {
  Rng rng(seed);
  Sample sample;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.next_below(5) == 0) {
      const detail::SampleView& twin = sample.views[rng.next_below(i)];
      sample.add(twin.proj, std::string(twin.key), std::string(twin.value));
      continue;
    }
    std::uint64_t proj = 42;
    if (!constant_proj) {
      switch (rng.next_below(4)) {
        case 0: proj = rng.next_u64(); break;
        case 1: proj = std::numeric_limits<std::uint64_t>::max() - rng.next_below(2); break;
        default: proj = rng.next_below(6); break;
      }
    }
    if (!composite) {
      sample.add(proj, {}, {});
      continue;
    }
    std::string key = rng.next_below(2) == 0 ? std::string() : tricky_bytes(rng);
    sample.add(proj, std::move(key), tricky_bytes(rng));
  }
  return sample;
}

using Picked = std::vector<std::tuple<std::uint64_t, std::string, std::string>>;

Picked owned(const std::vector<detail::SampleView>& views) {
  Picked out;
  for (const auto& s : views) out.emplace_back(s.proj, std::string(s.key), std::string(s.value));
  return out;
}

/// The pick a comparator sort of the whole sample makes.
Picked reference_pick(std::vector<detail::SampleView> sample, int p) {
  if (sample.empty()) {
    return Picked(static_cast<std::size_t>(p - 1),
                  {std::numeric_limits<std::uint64_t>::max(), {}, {}});
  }
  std::sort(sample.begin(), sample.end(), detail::sample_less);
  std::vector<detail::SampleView> picked;
  for (int i = 1; i < p; ++i) {
    picked.push_back(sample[static_cast<std::size_t>(i) * sample.size() / static_cast<std::size_t>(p)]);
  }
  return owned(picked);
}

class SplitterPick : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SplitterPick, PicksTheBytesAComparatorSortPicks) {
  const auto [p, composite] = GetParam();
  const std::size_t full = 32u * static_cast<std::size_t>(p) * static_cast<std::size_t>(p);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{300}, full}) {
    for (const bool constant_proj : {false, true}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " constant_proj=" << constant_proj);
      const Sample sample = adversarial_sample(n, composite, constant_proj, 17 * n + p);
      EXPECT_EQ(owned(detail::pick_splitters(sample.views, p, composite)),
                reference_pick(sample.views, p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RanksAndWire, SplitterPick,
                         testing::Combine(testing::Values(2, 3, 16, 64), testing::Bool()));

TEST(SplitterPickBudget, ChargesTheColumnOrSortsTheViewsPastTheSoftWatermark) {
  const auto dir = std::filesystem::temp_directory_path() / "papar_splitter_pick";
  const int p = 16;
  const Sample sample = adversarial_sample(32 * p * p, true, false, 5);
  const Picked want = reference_pick(sample.views, p);
  const std::size_t column = detail::column_bytes(sample.views.size());

  MemoryBudget roomy({.hard_limit = 64u << 20, .soft_limit = 32u << 20, .mailbox_limit = 0,
                      .spill_dir = dir.string()});
  roomy.bind(1);
  EXPECT_EQ(owned(detail::pick_splitters(sample.views, p, true, &roomy, 0)), want);
  EXPECT_GE(roomy.high_water(0), column);
  EXPECT_EQ(roomy.used(0), 0u);

  MemoryBudget tight({.hard_limit = 64u << 20, .soft_limit = column - 1, .mailbox_limit = 0,
                      .spill_dir = dir.string()});
  tight.bind(1);
  EXPECT_EQ(owned(detail::pick_splitters(sample.views, p, true, &tight, 0)), want);
  EXPECT_EQ(tight.high_water(0), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace papar::mr
