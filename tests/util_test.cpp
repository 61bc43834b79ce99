// Unit tests for src/util: byte serialization, RNG determinism and
// distributions, hashing, CRC32C, thread pool, timers, error machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace papar {
namespace {

TEST(Bytes, RoundTripPods) {
  ByteWriter w;
  w.put<std::int32_t>(-7);
  w.put<std::uint64_t>(123456789ULL);
  w.put<double>(3.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_EQ(r.get<std::uint64_t>(), 123456789ULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RoundTripStrings) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string(10000, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string(10000, 'x'));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, OverrunThrows) {
  ByteWriter w;
  w.put<std::int32_t>(1);
  ByteReader r(w.bytes());
  (void)r.get<std::int32_t>();
  EXPECT_THROW((void)r.get<std::int32_t>(), DataError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.put<std::uint32_t>(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_string(), DataError);
}

TEST(Bytes, GetBytesViews) {
  ByteWriter w;
  w.put_bytes("abcdef", 6);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_bytes(3), "abc");
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.get_bytes(3), "def");
  EXPECT_TRUE(r.done());
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.next_pareto(5.0, 2.0), 5.0);
}

TEST(Rng, ZipfWithinRangeAndSkewed) {
  Rng rng(13);
  const std::uint64_t n = 1000;
  std::uint64_t low = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const auto r = rng.next_zipf(n, 1.2);
    ASSERT_LT(r, n);
    low += r < 10;
  }
  // A zipf(1.2) over 1000 ranks concentrates heavily on the smallest ranks.
  EXPECT_GT(low, draws / 4);
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hash, KeyHashSpreadsShortIntegers) {
  // Hash of sequential little-endian integers should spread across buckets.
  std::set<std::uint64_t> buckets;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::string key(reinterpret_cast<const char*>(&i), sizeof(i));
    buckets.insert(key_hash(key) % 16);
  }
  EXPECT_EQ(buckets.size(), 16u);
}

TEST(Crc32c, MatchesKnownAnswersOnBothPaths) {
  std::vector<unsigned char> zeros(32, 0x00), ones(32, 0xFF), up(32), down(32);
  for (int i = 0; i < 32; ++i) {
    up[static_cast<std::size_t>(i)] = static_cast<unsigned char>(i);
    down[static_cast<std::size_t>(i)] = static_cast<unsigned char>(31 - i);
  }
  const std::string check = "123456789";
  const std::vector<std::pair<std::vector<unsigned char>, std::uint32_t>> cases = {
      {{check.begin(), check.end()}, 0xE3069283u},
      // RFC 3720 section B.4.
      {zeros, 0x8A9136AAu},
      {ones, 0x62A8AB43u},
      {up, 0x46DD794Eu},
      {down, 0x113FDB5Cu},
  };
  for (const auto& [bytes, want] : cases) {
    EXPECT_EQ(crc32c(bytes.data(), bytes.size()), want);
    EXPECT_EQ(crc32c_extend_slice4(0, bytes.data(), bytes.size()), want);
  }
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, DispatchedPathAgreesWithSliceBy4) {
  std::vector<unsigned char> buf(64 + 8);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  // Every length 0..64 at every start offset 0..7 covers each word
  // alignment and each tail length of both implementations.
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32c(buf.data() + off, len),
                crc32c_extend_slice4(0, buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
  // Streaming: a buffer checksummed in pieces equals the one-shot value.
  std::vector<unsigned char> big(4099);
  for (auto& b : big) b = static_cast<unsigned char>(rng.next_below(256));
  const std::uint32_t whole = crc32c_extend_slice4(0, big.data(), big.size());
  EXPECT_EQ(crc32c(big.data(), big.size()), whole);
  for (std::size_t piece : {1u, 3u, 7u, 8u, 13u, 64u, 1000u}) {
    std::uint32_t crc = 0;
    for (std::size_t pos = 0; pos < big.size(); pos += piece) {
      crc = crc32c_extend(crc, big.data() + pos, std::min(piece, big.size() - pos));
    }
    EXPECT_EQ(crc, whole) << "piece " << piece;
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t b, std::size_t e, std::size_t) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  // Regression: exceptions thrown inside parallel_for chunks used to escape a
  // worker thread and std::terminate the process. The first exception must be
  // rethrown on the calling thread instead.
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t b, std::size_t, std::size_t) {
                          if (b >= 500) throw DataError("bad chunk");
                        }),
      DataError);
}

TEST(ThreadPool, ParallelForUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   100, [](std::size_t, std::size_t, std::size_t) {
                     throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool must survive a throwing body and run later work normally.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e, std::size_t) {
    covered += e - b;
  });
  EXPECT_EQ(covered.load(), 1000u);
}

TEST(Timer, ThreadCpuAdvancesUnderWork) {
  ThreadCpuTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Error, CheckMacroThrowsInternalError) {
  EXPECT_THROW(PAPAR_CHECK_MSG(false, "boom"), InternalError);
  EXPECT_NO_THROW(PAPAR_CHECK(true));
}

TEST(Error, HierarchyCatchableAsBase) {
  try {
    throw ConfigError("x");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("config error"), std::string::npos);
  }
}

}  // namespace
}  // namespace papar
