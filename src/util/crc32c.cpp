#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#define PAPAR_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace papar {

namespace {

struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xffu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xffu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xffu];
    }
  }
};

const Crc32cTables& crc32c_tables() {
  static const Crc32cTables tables;
  return tables;
}

#if PAPAR_CRC32C_X86
// The `crc32` instruction computes the same reflected Castagnoli CRC as the
// tables, without the pre- and post-inversion, so the two paths agree bit
// for bit. This file compiles without -msse4.2; the dispatcher below only
// calls this after checking the CPU.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_extend_sse42(
    std::uint32_t crc, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc64 = ~crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc64);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p);
    ++p;
    --n;
  }
  return ~crc32;
}
#endif

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

ExtendFn select_extend() {
#if PAPAR_CRC32C_X86
  if (__builtin_cpu_supports("sse4.2")) return crc32c_extend_sse42;
#endif
  return crc32c_extend_slice4;
}

}  // namespace

std::uint32_t crc32c_extend_slice4(std::uint32_t crc, const void* data,
                                   std::size_t n) {
  const auto& t = crc32c_tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xffu] ^ t[2][(crc >> 8) & 0xffu] ^
          t[1][(crc >> 16) & 0xffu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
    ++p;
    --n;
  }
  return ~crc;
}

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t n) {
  static const ExtendFn extend = select_extend();
  return extend(crc, data, n);
}

}  // namespace papar
