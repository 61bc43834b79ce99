// LSD (least-significant-digit) radix sort for fixed-width keys.
//
// Complements the comparison path in sort.hpp: for plain integer/float keys
// a byte-wise counting sort does O(passes * n) work with no comparisons at
// all, which is why parallel_sort auto-selects it for large fixed-width
// inputs (see SortEngine in sort.hpp).
//
// Key normalization: every supported type maps onto an unsigned integer
// whose byte-wise ascending order equals the type's natural ascending
// order — unsigned types map to themselves, signed integers flip the sign
// bit, and IEEE floats use the classic "float flip" (negative values flip
// all bits, non-negative values flip just the sign bit). For floats this
// induces a *total* order over bit patterns that refines operator< — it
// additionally orders -0.0 before +0.0 and ranks NaNs by payload — so a
// radix-sorted float span is always a valid std::less ordering, but equal-
// comparing values with distinct bit patterns land in a deterministic
// bit-pattern order rather than their input order. parallel_sort therefore
// auto-dispatches to radix only for *integral* keys (where value equality
// implies byte equality and the output multiset is unique) and floats opt
// in explicitly via SortEngine::kRadix.
//
// Algorithm: one up-front scan histograms every digit position (digit
// counts are permutation-invariant, so a pass whose 256 counts collapse
// onto a single digit can be skipped before any data moves, and a
// one-chunk sort never recounts). Each later active pass of a chunked
// sort counts per-chunk digit occurrences, prefix-sums (digit, chunk) in
// digit-major order so the scatter is stable with chunks laid out in input
// order, and scatters src -> dst in parallel. Passes ping-pong data <->
// scratch; an odd number of active passes ends in scratch and costs one
// parallel copy back (reported in RadixStats).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace papar::sortlib {

/// Maps a sortable value onto an unsigned key whose byte-wise order equals
/// the type's ascending order. Specialized for the supported key types;
/// unsupported types leave the primary template undefined.
template <typename T>
struct RadixKey;

template <>
struct RadixKey<std::uint32_t> {
  using Key = std::uint32_t;
  static Key to_key(std::uint32_t v) { return v; }
};

template <>
struct RadixKey<std::uint64_t> {
  using Key = std::uint64_t;
  static Key to_key(std::uint64_t v) { return v; }
};

template <>
struct RadixKey<std::int32_t> {
  using Key = std::uint32_t;
  static Key to_key(std::int32_t v) {
    return static_cast<std::uint32_t>(v) ^ 0x80000000u;
  }
};

template <>
struct RadixKey<std::int64_t> {
  using Key = std::uint64_t;
  static Key to_key(std::int64_t v) {
    return static_cast<std::uint64_t>(v) ^ 0x8000000000000000ull;
  }
};

template <>
struct RadixKey<float> {
  using Key = std::uint32_t;
  static Key to_key(float v) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    const std::uint32_t mask =
        static_cast<std::uint32_t>(-static_cast<std::int32_t>(bits >> 31)) | 0x80000000u;
    return bits ^ mask;
  }
};

template <>
struct RadixKey<double> {
  using Key = std::uint64_t;
  static Key to_key(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t mask =
        static_cast<std::uint64_t>(-static_cast<std::int64_t>(bits >> 63)) |
        0x8000000000000000ull;
    return bits ^ mask;
  }
};

namespace radix_detail {

template <typename T, typename = void>
struct is_radix_key : std::false_type {};

template <typename T>
struct is_radix_key<T, std::void_t<typename RadixKey<T>::Key>> : std::true_type {};

}  // namespace radix_detail

/// True when RadixKey<T> is specialized (the span's element type has a
/// fixed-width normalized key).
template <typename T>
inline constexpr bool radix_sortable = radix_detail::is_radix_key<std::remove_cv_t<T>>::value;

/// What one lsd_radix_sort call did; filled when a non-null pointer is
/// passed.
struct RadixStats {
  /// Scatter passes actually executed.
  std::size_t passes = 0;
  /// Byte positions whose digit histogram was a single spike (all keys
  /// share that byte), skipped without moving data.
  std::size_t skipped_passes = 0;
  /// True when an odd number of active passes left the result in scratch
  /// and one parallel copy moved it back.
  bool copied_back = false;
  /// Parallel chunks used (1 = sequential).
  std::size_t chunks = 0;
};

namespace radix_detail {

/// Below this many elements per chunk, extra chunks cost more in recounting
/// than they recover in parallelism.
inline constexpr std::size_t kMinChunkElements = 8192;

template <typename Fn>
void run_chunks(ThreadPool* pool, std::size_t chunks, Fn&& fn) {
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t c = begin; c < end; ++c) fn(c);
    });
  } else {
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
  }
}

/// Stable byte-wise LSD radix sort of `data` using `scratch` (same length)
/// as the ping-pong buffer; result always lands back in `data`. `key_of`
/// maps an element to its unsigned fixed-width key. `pool` may be null for
/// a sequential sort.
template <typename T, typename KeyFn>
void lsd_radix_sort_impl(std::span<T> data, std::span<T> scratch, KeyFn key_of,
                         ThreadPool* pool, RadixStats* stats) {
  static_assert(std::is_trivially_copyable_v<T>,
                "radix sort moves elements with plain assignment");
  using Key = decltype(key_of(data[0]));
  static_assert(std::is_unsigned_v<Key>, "normalized radix keys must be unsigned");
  constexpr std::size_t kPasses = sizeof(Key);
  constexpr std::size_t kRadix = 256;

  if (stats != nullptr) *stats = RadixStats{};
  const std::size_t n = data.size();
  PAPAR_CHECK_MSG(scratch.size() >= n, "radix scratch smaller than input");
  if (n <= 1) {
    if (stats != nullptr) stats->chunks = 1;
    return;
  }

  std::size_t chunks = 1;
  if (pool != nullptr && pool->size() > 1) {
    chunks = std::min(pool->size(), std::max<std::size_t>(1, n / kMinChunkElements));
  }
  std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
  {
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t size = (n + c) / chunks;
      ranges[c] = {begin, begin + size};
      begin += size;
    }
  }

  // Up-front histogram of every byte position, kept per chunk so the first
  // active pass can reuse it without recounting.
  std::vector<std::uint64_t> chunk_hist(chunks * kPasses * kRadix, 0);
  run_chunks(pool, chunks, [&](std::size_t c) {
    std::uint64_t* hist = chunk_hist.data() + c * kPasses * kRadix;
    for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
      const Key key = key_of(data[i]);
      for (std::size_t p = 0; p < kPasses; ++p) {
        ++hist[p * kRadix + ((key >> (8 * p)) & 0xFF)];
      }
    }
  });

  // A pass is trivial when one digit accounts for every key.
  std::array<bool, kPasses> active{};
  std::size_t active_count = 0;
  for (std::size_t p = 0; p < kPasses; ++p) {
    std::uint64_t top = 0;
    for (std::size_t d = 0; d < kRadix; ++d) {
      std::uint64_t total = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        total += chunk_hist[c * kPasses * kRadix + p * kRadix + d];
      }
      top = std::max(top, total);
    }
    active[p] = top != n;
    if (active[p]) ++active_count;
  }
  if (stats != nullptr) {
    stats->passes = active_count;
    stats->skipped_passes = kPasses - active_count;
    stats->chunks = chunks;
  }
  if (active_count == 0) return;

  T* src = data.data();
  T* dst = scratch.data();
  std::vector<std::uint64_t> counts(chunks * kRadix);
  std::vector<std::size_t> positions(chunks * kRadix);
  bool first_active = true;
  for (std::size_t p = 0; p < kPasses; ++p) {
    if (!active[p]) continue;
    const std::size_t shift = 8 * p;
    if (first_active || chunks == 1) {
      // The up-front per-chunk histogram still describes `src` exactly:
      // before the first scatter nothing has moved, and one chunk's digit
      // counts do not depend on element order.
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t* hist = chunk_hist.data() + c * kPasses * kRadix + p * kRadix;
        std::copy(hist, hist + kRadix, counts.begin() + static_cast<std::ptrdiff_t>(c * kRadix));
      }
      first_active = false;
    } else {
      run_chunks(pool, chunks, [&](std::size_t c) {
        std::uint64_t* cnt = counts.data() + c * kRadix;
        std::fill(cnt, cnt + kRadix, 0);
        for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
          ++cnt[(key_of(src[i]) >> shift) & 0xFF];
        }
      });
    }
    // Digit-major prefix sums: all of digit d's elements (chunk 0 first,
    // then chunk 1, ...) precede digit d+1's, which is exactly the stable
    // scatter order.
    std::size_t running = 0;
    for (std::size_t d = 0; d < kRadix; ++d) {
      for (std::size_t c = 0; c < chunks; ++c) {
        positions[c * kRadix + d] = running;
        running += counts[c * kRadix + d];
      }
    }
    run_chunks(pool, chunks, [&](std::size_t c) {
      std::size_t* pos = positions.data() + c * kRadix;
      for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
        dst[pos[(key_of(src[i]) >> shift) & 0xFF]++] = src[i];
      }
    });
    std::swap(src, dst);
  }

  if (src != data.data()) {
    // Odd number of active passes: the result sits in scratch.
    run_chunks(pool, chunks, [&](std::size_t c) {
      std::copy(src + ranges[c].first, src + ranges[c].second, data.data() + ranges[c].first);
    });
    if (stats != nullptr) stats->copied_back = true;
  }
}

}  // namespace radix_detail

/// Pool-parallel stable LSD radix sort with an explicit key extractor.
/// `scratch` must be at least data.size() elements; the result lands in
/// `data`.
template <typename T, typename KeyFn>
void lsd_radix_sort(std::span<T> data, std::span<T> scratch, KeyFn key_of,
                    ThreadPool& pool, RadixStats* stats = nullptr) {
  radix_detail::lsd_radix_sort_impl(data, scratch, key_of, &pool, stats);
}

/// Sequential variant (no pool; one chunk).
template <typename T, typename KeyFn>
void lsd_radix_sort_seq(std::span<T> data, std::span<T> scratch, KeyFn key_of,
                        RadixStats* stats = nullptr) {
  radix_detail::lsd_radix_sort_impl(data, scratch, key_of, nullptr, stats);
}

/// Convenience front end for the supported key types: allocates scratch and
/// sorts ascending in the type's natural order (floats: normalized
/// bit-pattern order, see the header comment).
template <typename T>
void radix_sort(std::span<T> data, ThreadPool& pool, RadixStats* stats = nullptr) {
  static_assert(radix_sortable<T>, "no RadixKey specialization for this type");
  std::vector<T> scratch(data.size());
  lsd_radix_sort(data, std::span<T>(scratch), [](const T& v) {
    return RadixKey<std::remove_cv_t<T>>::to_key(v);
  }, pool, stats);
}

}  // namespace papar::sortlib
