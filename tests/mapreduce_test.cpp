// Tests for the MapReduce engine: KV pages, map/aggregate/reduce cycles,
// sampling-based global sort, and reducer balance properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mapreduce/mapreduce.hpp"
#include "obs/obs.hpp"
#include "mpsim/runtime.hpp"
#include "util/rng.hpp"

namespace papar::mr {
namespace {

std::string pod_key(std::uint64_t x) {
  return std::string(reinterpret_cast<const char*>(&x), sizeof(x));
}

std::uint64_t key_u64(std::string_view key) {
  std::uint64_t x;
  std::memcpy(&x, key.data(), sizeof(x));
  return x;
}

TEST(KvBuffer, AddAndIterate) {
  KvBuffer buf;
  buf.add("k1", "v1");
  buf.add("k2", "value-two");
  buf.add("", "");
  EXPECT_EQ(buf.count(), 3u);
  std::vector<std::pair<std::string, std::string>> seen;
  buf.for_each([&](std::string_view k, std::string_view v) {
    seen.emplace_back(std::string(k), std::string(v));
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"k1", "v1"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"k2", "value-two"}));
  EXPECT_EQ(seen[2], (std::pair<std::string, std::string>{"", ""}));
}

TEST(KvBuffer, AppendPageConcatenates) {
  KvBuffer a, b;
  a.add("x", "1");
  b.add("y", "2");
  b.add("z", "3");
  a.append_page(b.bytes().data(), b.bytes().size());
  EXPECT_EQ(a.count(), 3u);
}

TEST(KvBuffer, AppendTruncatedPageThrows) {
  KvBuffer a, b;
  b.add("key", "value");
  EXPECT_THROW(a.append_page(b.bytes().data(), b.bytes().size() - 1), DataError);
}

TEST(KvBuffer, ReorderPermutesRecords) {
  KvBuffer buf;
  buf.add("a", "0");
  buf.add("b", "1");
  buf.add("c", "2");
  auto offs = buf.offsets();
  std::reverse(offs.begin(), offs.end());
  buf.reorder(offs);
  std::vector<std::string> keys;
  buf.for_each([&](std::string_view k, std::string_view) { keys.emplace_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"c", "b", "a"}));
}

TEST(KvBuffer, TakeAndAdoptRoundTrip) {
  KvBuffer buf;
  buf.add("k", "v");
  auto raw = buf.take_bytes();
  EXPECT_EQ(buf.count(), 0u);
  KvBuffer other;
  other.adopt_bytes(std::move(raw));
  EXPECT_EQ(other.count(), 1u);
}

TEST(KvBuffer, PodHelpers) {
  KvBuffer buf;
  buf.add_pod<std::uint32_t, double>(7, 2.5);
  buf.for_each([](std::string_view k, std::string_view v) {
    std::uint32_t key;
    double value;
    std::memcpy(&key, k.data(), sizeof(key));
    std::memcpy(&value, v.data(), sizeof(value));
    EXPECT_EQ(key, 7u);
    EXPECT_DOUBLE_EQ(value, 2.5);
  });
}

class MapReduceRanksTest : public ::testing::TestWithParam<int> {};

TEST_P(MapReduceRanksTest, WordCountPipeline) {
  // The canonical MapReduce smoke test across rank counts.
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    const std::vector<std::string> words{"a", "b", "a", "c", "b", "a"};
    mr.map(12, [&](int itask, KvEmitter& emit) {
      emit.emit(words[static_cast<std::size_t>(itask) % words.size()], "1");
    });
    mr.aggregate();
    mr.reduce([](std::string_view key, std::span<const std::string_view> values,
                 KvEmitter& emit) {
      const auto n = static_cast<std::uint64_t>(values.size());
      emit.emit(key, std::string(reinterpret_cast<const char*>(&n), sizeof(n)));
    });
    mr.gather(0);
    if (comm.rank() == 0) {
      std::map<std::string, std::uint64_t> counts;
      mr.local().for_each([&](std::string_view k, std::string_view v) {
        std::uint64_t n;
        std::memcpy(&n, v.data(), sizeof(n));
        counts[std::string(k)] = n;
      });
      // 12 tasks cycle the 6-word list twice: a=6, b=4, c=2.
      EXPECT_EQ(counts.at("a"), 6u);
      EXPECT_EQ(counts.at("b"), 4u);
      EXPECT_EQ(counts.at("c"), 2u);
    }
  });
}

TEST_P(MapReduceRanksTest, AggregateColocatesKeys) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(64, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask % 8)),
                std::to_string(itask));
    });
    mr.aggregate();
    // Each key must now live on exactly one rank.
    std::set<std::uint64_t> local_keys;
    mr.local().for_each([&](std::string_view k, std::string_view) {
      local_keys.insert(key_u64(k));
    });
    ByteWriter w;
    for (auto k : local_keys) w.put(k);
    auto all = comm.allgather(w.take());
    std::map<std::uint64_t, int> owners;
    for (const auto& part : all) {
      ByteReader r(part);
      while (!r.done()) owners[r.get<std::uint64_t>()] += 1;
    }
    EXPECT_EQ(owners.size(), 8u);
    for (const auto& [k, n] : owners) EXPECT_EQ(n, 1) << "key " << k;
  });
}

TEST_P(MapReduceRanksTest, ReduceValuesKeepPageOrder) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    // All tasks emit under one key; values are task ids in task order per
    // rank, and page order after the shuffle is rank-major.
    mr.map(20, [](int itask, KvEmitter& emit) {
      emit.emit("shared", std::to_string(itask));
    });
    mr.aggregate();
    mr.reduce([&](std::string_view, std::span<const std::string_view> values,
                  KvEmitter& emit) {
      EXPECT_EQ(values.size(), 20u);
      // Within one source rank the task order must be preserved: extract
      // this rank's subsequence and check monotonicity per residue class.
      std::map<int, std::vector<int>> by_residue;
      for (auto v : values) {
        const int t = std::stoi(std::string(v));
        by_residue[t % comm.size()].push_back(t);
      }
      for (const auto& [residue, tasks] : by_residue) {
        EXPECT_TRUE(std::is_sorted(tasks.begin(), tasks.end()))
            << "residue " << residue;
      }
      emit.emit("done", "1");
    });
  });
}

TEST_P(MapReduceRanksTest, SampleSortOrdersGlobally) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t k = rng.next_below(10000);
      mr.mutable_local().add(pod_key(k), "payload");
    }
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); });
    // Local pages sorted...
    std::vector<std::uint64_t> local;
    mr.local().for_each(
        [&](std::string_view k, std::string_view) { local.push_back(key_u64(k)); });
    EXPECT_TRUE(std::is_sorted(local.begin(), local.end()));
    // ...and rank ranges ordered: my max <= next rank's min.
    const std::uint64_t my_max = local.empty() ? 0 : local.back();
    const std::uint64_t my_min = local.empty() ? UINT64_MAX : local.front();
    ByteWriter w;
    w.put(my_min);
    w.put(my_max);
    auto all = comm.allgather(w.take());
    std::uint64_t prev_max = 0;
    for (int r = 0; r < comm.size(); ++r) {
      ByteReader br(all[static_cast<std::size_t>(r)]);
      const auto mn = br.get<std::uint64_t>();
      const auto mx = br.get<std::uint64_t>();
      if (mn != UINT64_MAX) {
        EXPECT_GE(mn, prev_max);
        prev_max = mx;
      }
    }
    // Nothing lost.
    EXPECT_EQ(mr.global_count(), static_cast<std::uint64_t>(comm.size()) * 500u);
  });
}

TEST_P(MapReduceRanksTest, SampleSortDescending) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    Rng rng(7 + static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < 200; ++i) {
      mr.mutable_local().add(pod_key(rng.next_below(1000)), "");
    }
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); },
        /*ascending=*/false);
    std::vector<std::uint64_t> local;
    mr.local().for_each(
        [&](std::string_view k, std::string_view) { local.push_back(key_u64(k)); });
    EXPECT_TRUE(std::is_sorted(local.rbegin(), local.rend()));
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, MapReduceRanksTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(MapReduce, SampledSplittersBalanceSkewedKeys) {
  // §III-D: on a heavily skewed distribution the sampled splitters keep the
  // reducer loads far more even than naive min/max interpolation.
  const int p = 8;
  const int per_rank = 2000;
  auto imbalance = [&](SplitterMethod method) {
    mp::Runtime rt(p, mp::NetworkModel::zero());
    double result = 0;
    rt.run([&](mp::Comm& comm) {
      MapReduce mr(comm);
      Rng rng(99 + static_cast<std::uint64_t>(comm.rank()));
      for (int i = 0; i < per_rank; ++i) {
        // Zipf-skewed keys plus one extreme outlier per rank.
        std::uint64_t k = rng.next_zipf(1 << 20, 1.1);
        if (i == 0) k = 1ULL << 40;
        mr.mutable_local().add(pod_key(k), "");
      }
      mr.sample_sort_u64(
          [](std::string_view key, std::string_view) { return key_u64(key); },
          true, method);
      auto counts = mr.rank_counts();
      const auto total = std::accumulate(counts.begin(), counts.end(), 0ULL);
      const auto mx = *std::max_element(counts.begin(), counts.end());
      if (comm.rank() == 0) {
        result = static_cast<double>(mx) /
                 (static_cast<double>(total) / static_cast<double>(counts.size()));
      }
    });
    return result;
  };
  const double sampled = imbalance(SplitterMethod::kSampled);
  const double naive = imbalance(SplitterMethod::kNaive);
  EXPECT_LT(sampled, 1.6);  // near-even
  EXPECT_GT(naive, 4.0);    // outlier-stretched ranges collapse onto rank 0
}

TEST(MapReduce, SampleSortAllEqualKeysSpreadAcrossRanks) {
  // Regression: when every record projects to the same key, all sampled
  // splitters coincide. Routing by upper_bound alone sent the entire dataset
  // to the last rank; duplicates must be spread across the run of coinciding
  // splitters instead.
  const int p = 4;
  const int per_rank = 500;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    for (int i = 0; i < per_rank; ++i) {
      mr.mutable_local().add(pod_key(42), "v" + std::to_string(i));
    }
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); });
    auto counts = mr.rank_counts();
    const auto total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * per_rank);
    const auto mx = *std::max_element(counts.begin(), counts.end());
    EXPECT_LT(static_cast<double>(mx),
              1.5 * static_cast<double>(total) / static_cast<double>(p));
    for (auto c : counts) EXPECT_GT(c, 0u);
  });
}

TEST(MapReduce, SampleSortIdenticalRecordsSpreadWithTieBreak) {
  // Fully identical records cannot be ordered even by raw bytes; they are the
  // only ties left under tie_break_bytes and must still be spread, not routed
  // wholesale to one reducer.
  const int p = 4;
  const int per_rank = 300;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    for (int i = 0; i < per_rank; ++i) mr.mutable_local().add(pod_key(7), "same");
    mr.sample_sort_u64(
        [](std::string_view key, std::string_view) { return key_u64(key); },
        true, SplitterMethod::kSampled, 32, /*tie_break_bytes=*/true);
    auto counts = mr.rank_counts();
    const auto total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * per_rank);
    const auto mx = *std::max_element(counts.begin(), counts.end());
    EXPECT_LT(static_cast<double>(mx),
              1.5 * static_cast<double>(total) / static_cast<double>(p));
  });
}

TEST(MapReduce, SampleSortTieBreakBytesGlobalTotalOrder) {
  // Heavy duplication under tie_break_bytes: the concatenation of rank pages
  // must equal the reference sort of all inputs under the promised total
  // order (projection, then key bytes, then value bytes). The projection is
  // deliberately lossy so the key-byte tie-break is exercised too.
  const int p = 4;
  const int per_rank = 400;
  using Rec = std::tuple<std::uint64_t, std::string, std::string>;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    const auto proj = [](std::string_view key, std::string_view) {
      return key_u64(key) & 3;  // 8 distinct keys fold onto 4 projections
    };
    MapReduce mr(comm);
    std::vector<Rec> expected;  // every rank rebuilds the full input set
    for (int r = 0; r < comm.size(); ++r) {
      Rng gen(500 + static_cast<std::uint64_t>(r));
      for (int i = 0; i < per_rank; ++i) {
        std::string key = pod_key(gen.next_below(8));
        std::string value = std::to_string(gen.next_below(16));
        expected.emplace_back(key_u64(key) & 3, key, value);
        if (r == comm.rank()) mr.mutable_local().add(key, value);
      }
    }
    mr.sample_sort_u64(proj, true, SplitterMethod::kSampled, 32,
                       /*tie_break_bytes=*/true);

    // Gather every rank's page in rank order.
    ByteWriter w;
    w.put<std::uint64_t>(mr.local().count());
    mr.local().for_each([&](std::string_view k, std::string_view v) {
      w.put_string(k);
      w.put_string(v);
    });
    auto all = comm.allgather(w.take());
    std::vector<Rec> got;
    for (int r = 0; r < comm.size(); ++r) {
      ByteReader br(all[static_cast<std::size_t>(r)]);
      const auto n = br.get<std::uint64_t>();
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = br.get_string();
        std::string value = br.get_string();
        got.emplace_back(key_u64(key) & 3, key, value);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  });
}

/// Records whose byte order the sort's minor word cannot settle alone:
/// empty and non-empty keys, values sharing 7-byte prefixes, trailing NULs
/// and bytes >= 0x80, drawn mostly from small sets so projections, minor
/// words and whole records all tie.
std::vector<std::pair<std::string, std::string>> tie_break_records(std::size_t n,
                                                                   std::uint64_t seed) {
  static const std::vector<std::string> keys = {
      std::string(),
      std::string(),
      std::string("k"),
      std::string("k\0", 2),
      std::string("prefix7"),
      std::string("prefix7\0", 8),
      std::string("prefix7x"),
      std::string("\x80\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\x01", 9),
  };
  static const std::vector<std::string> values = {
      std::string(),
      std::string("\0", 1),
      std::string("sevenby"),
      std::string("sevenby\0", 8),
      std::string("sevenby\0\0", 9),
      std::string("sevenbya"),
      std::string("sevenby\x80"),
      std::string("sevenby\xff\x01", 9),
      std::string("\x80\x80\x80\x80\x80\x80\x80\x80"),
      std::string("\xff"),
  };
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = keys[rng.next_below(keys.size())];
    std::string value;
    if (rng.next_below(4) == 0) {
      value.resize(rng.next_below(12));
      for (auto& c : value) {
        c = static_cast<char>(rng.next_below(4) == 0 ? 0 : rng.next_below(256));
      }
    } else {
      value = values[rng.next_below(values.size())];
    }
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

/// Sorts tie_break_records on `p` ranks with tie_break_bytes and checks the
/// concatenated rank pages against one host-side sort of (projection, key,
/// value), and how many ranks' final local sorts took the radix path.
void expect_tie_break_total_order(int p, std::size_t per_rank, bool ascending,
                                  std::uint64_t radix_sorts) {
  using Rec = std::tuple<std::uint64_t, std::string, std::string>;
  // Lossy: three projections over every key and value length.
  const auto proj = [](std::string_view key, std::string_view value) -> std::uint64_t {
    return (key.size() + value.size()) % 3;
  };
  std::vector<std::vector<std::pair<std::string, std::string>>> input;
  std::vector<Rec> expected;
  for (int r = 0; r < p; ++r) {
    input.push_back(tie_break_records(per_rank, 900 + static_cast<std::uint64_t>(r)));
    for (const auto& [k, v] : input.back()) expected.emplace_back(proj(k, v), k, v);
  }
  std::sort(expected.begin(), expected.end(), [ascending](const Rec& a, const Rec& b) {
    if (std::get<0>(a) != std::get<0>(b)) {
      return ascending ? std::get<0>(a) < std::get<0>(b) : std::get<0>(a) > std::get<0>(b);
    }
    return std::tie(std::get<1>(a), std::get<2>(a)) < std::tie(std::get<1>(b), std::get<2>(b));
  });

  std::vector<std::vector<Rec>> pages(static_cast<std::size_t>(p));
  obs::Recorder recorder;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.set_recorder(&recorder);
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    for (const auto& [k, v] : input[static_cast<std::size_t>(comm.rank())]) {
      mr.mutable_local().add(k, v);
    }
    mr.sample_sort_u64(proj, ascending, SplitterMethod::kSampled, 32,
                       /*tie_break_bytes=*/true);
    auto& page = pages[static_cast<std::size_t>(comm.rank())];
    mr.local().for_each([&](std::string_view k, std::string_view v) {
      page.emplace_back(proj(k, v), std::string(k), std::string(v));
    });
  });
  std::vector<Rec> got;
  for (const auto& page : pages) got.insert(got.end(), page.begin(), page.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(recorder.counter("sort.engine_radix"), radix_sorts);
}

TEST(MapReduce, SampleSortTieBreakBytesTotalOrderOnTheRadixPath) {
  // Every rank ends with about 12000 records, so the final local sort
  // orders many ties by the minor word first and the byte comparator after.
  for (const bool ascending : {true, false}) {
    SCOPED_TRACE(ascending ? "ascending" : "descending");
    expect_tie_break_total_order(4, 12000, ascending, /*radix_sorts=*/4);
  }
}

TEST(MapReduce, SampleSortTieBreakBytesTotalOrderAt64Ranks) {
  // Rank 0 picks 63 composite splitters from the gathered sample, and each
  // rank's small final page takes the radix column too.
  expect_tie_break_total_order(64, 300, /*ascending=*/true, /*radix_sorts=*/64);
}

TEST(MapReduce, SampleSortBroadcastsOnlyTheSplitters) {
  // Rank 0 orders the gathered sample and broadcasts only the p-1
  // splitters. Broadcasting the whole sample (p * 200 records here) down the
  // tree would ship about 26 MB. A composite sample of an empty key and a
  // 16-byte value is 32 bytes: its u64 projection, the u32 key and value
  // lengths of a KvBuffer frame, and the value.
  const int p = 64;
  constexpr std::uint64_t kRecords = 200;
  constexpr std::uint64_t kSampleBytes = 8 + 4 + 4 + 16;
  constexpr std::uint64_t kFrameBytes = 4 + 4 + 16;
  obs::Recorder rec;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.set_recorder(&rec);
  std::atomic<std::uint64_t> moved{0};
  const auto stats = rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    Rng rng(300 + static_cast<std::uint64_t>(comm.rank()));
    std::set<std::string> own;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      std::string value(16, '\0');
      for (auto& c : value) c = static_cast<char>(rng.next_below(256));
      own.insert(value);
      mr.mutable_local().add("", value);
    }
    mr.sample_sort_u64(
        [](std::string_view, std::string_view value) { return key_u64(value); }, true,
        SplitterMethod::kSampled, 32, /*tie_break_bytes=*/true);
    std::uint64_t kept = 0;
    mr.local().for_each(
        [&](std::string_view, std::string_view value) { kept += own.count(std::string(value)); });
    moved += kRecords - kept;
  });
  rt.set_recorder(nullptr);
  // Every rank but 0 gathers its 200 samples into rank 0, the bcast tree
  // carries the 63 splitters over 63 edges, and the shuffle ships each
  // record that changes rank as its frame.
  const std::uint64_t q = p - 1;
  EXPECT_EQ(rec.counter("mpsim.bytes.gather"), q * kRecords * kSampleBytes);
  EXPECT_EQ(rec.counter("mpsim.bytes.bcast"), q * q * kSampleBytes);
  EXPECT_EQ(rec.counter("mpsim.bytes.alltoall"), moved.load() * kFrameBytes);
  EXPECT_EQ(stats.remote_bytes,
            q * kRecords * kSampleBytes + q * q * kSampleBytes + moved.load() * kFrameBytes);
  // One gather, one binomial-tree bcast and one alltoallv: the messages of
  // an allgather followed by the shuffle.
  EXPECT_EQ(stats.remote_messages, static_cast<std::uint64_t>((p - 1) + (p - 1) + p * (p - 1)));
}

TEST(MapReduce, MapKvTransformsInPlace) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.mutable_local().add("k", "1");
    mr.mutable_local().add("k", "2");
    mr.map_kv([](std::string_view k, std::string_view v, KvEmitter& emit) {
      emit.emit(std::string(k) + "!", std::string(v) + std::string(v));
    });
    std::vector<std::string> vals;
    mr.local().for_each([&](std::string_view k, std::string_view v) {
      EXPECT_EQ(k, "k!");
      vals.emplace_back(v);
    });
    EXPECT_EQ(vals, (std::vector<std::string>{"11", "22"}));
  });
}

TEST(MapReduce, CustomPartitioner) {
  mp::Runtime rt(4, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(40, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask)), "");
    });
    // Route everything to rank 2.
    mr.aggregate([](std::string_view, std::string_view) { return 2; });
    auto counts = mr.rank_counts();
    EXPECT_EQ(counts[2], 40u);
    EXPECT_EQ(counts[0] + counts[1] + counts[3], 0u);
  });
}

TEST(MapReduce, EmptyPipelineSurvives) {
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.aggregate();
    mr.reduce([](std::string_view, std::span<const std::string_view>, KvEmitter&) {
      FAIL() << "no groups expected";
    });
    mr.sample_sort_u64([](std::string_view, std::string_view) { return 0ULL; });
    EXPECT_EQ(mr.global_count(), 0u);
  });
}

TEST(MapReduce, RepeatedAggregateReusesArenaAndPreservesRecords) {
  // The shuffle serializes through an arena recycled from the previous
  // round's received buffers. Run several aggregate rounds with different
  // routing functions and verify the global record multiset is preserved
  // every time — including rounds that concentrate everything on one rank
  // (wildly uneven per-destination sizes) and rounds after the page shrank.
  const int p = 4;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(97, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask)),
                std::string(static_cast<std::size_t>(itask % 17), 'v'));
    });
    auto snapshot = [&]() {
      std::multiset<std::pair<std::string, std::string>> all;
      mr.local().for_each([&](std::string_view k, std::string_view v) {
        all.emplace(std::string(k), std::string(v));
      });
      ByteWriter w;
      for (const auto& [k, v] : all) {
        w.put_string(k);
        w.put_string(v);
      }
      auto parts = comm.allgather(w.take());
      std::multiset<std::pair<std::string, std::string>> global;
      for (const auto& part : parts) {
        ByteReader r(part);
        while (!r.done()) {
          std::string k = r.get_string();
          std::string v = r.get_string();
          global.emplace(std::move(k), std::move(v));
        }
      }
      return global;
    };
    const auto before = snapshot();
    ASSERT_EQ(before.size(), 97u);

    mr.aggregate();  // hash routing
    EXPECT_EQ(snapshot(), before);
    mr.aggregate([&](std::string_view, std::string_view) { return 2; });  // all→rank 2
    EXPECT_EQ(snapshot(), before);
    int rr = comm.rank();  // round-robin from a per-rank phase
    mr.aggregate([&, p](std::string_view, std::string_view) mutable {
      return (rr++) % p;
    });
    EXPECT_EQ(snapshot(), before);
    mr.aggregate();  // steady-state round on recycled arena storage
    EXPECT_EQ(snapshot(), before);
  });
}

TEST(MapReduce, ShuffleCountersMatchRoutedBytes) {
  // mr.shuffle.wire_bytes counts every routed byte (self-destined
  // included), mr.shuffle.records every routed record.
  const int p = 3;
  obs::Recorder rec;
  mp::Runtime rt(p, mp::NetworkModel::zero());
  rt.set_recorder(&rec);
  std::atomic<std::uint64_t> page_bytes{0};
  std::atomic<std::uint64_t> page_records{0};
  rt.run([&](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.map(50, [](int itask, KvEmitter& emit) {
      emit.emit(pod_key(static_cast<std::uint64_t>(itask)), std::to_string(itask));
    });
    page_bytes += mr.local().byte_size();
    page_records += mr.local().count();
    comm.barrier();
    mr.aggregate();
  });
  EXPECT_EQ(rec.counter("mr.shuffle.wire_bytes"), page_bytes.load());
  EXPECT_EQ(rec.counter("mr.shuffle.records"), page_records.load());
}

TEST(MapReduce, LocalSortIsStable) {
  mp::Runtime rt(1, mp::NetworkModel::zero());
  rt.run([](mp::Comm& comm) {
    MapReduce mr(comm);
    mr.mutable_local().add("b", "1");
    mr.mutable_local().add("a", "2");
    mr.mutable_local().add("b", "3");
    mr.mutable_local().add("a", "4");
    mr.local_sort([](const KvPair& x, const KvPair& y) { return x.key < y.key; });
    std::vector<std::string> vals;
    mr.local().for_each([&](std::string_view, std::string_view v) { vals.emplace_back(v); });
    EXPECT_EQ(vals, (std::vector<std::string>{"2", "4", "1", "3"}));
  });
}

}  // namespace
}  // namespace papar::mr
