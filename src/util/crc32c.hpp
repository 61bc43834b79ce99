// CRC32C (Castagnoli) — the end-to-end integrity checksum of the runtime.
//
// Every shuffle page is stamped with a CRC32C at the transport layer, spill
// files accumulate one over everything appended, and checkpoint blobs carry
// one from save to restore. CRC32C detects all
// single-bit flips and all burst errors up to 32 bits, which is exactly the
// fault model the `corrupt=p` injector exercises: a detected mismatch is
// repaired by retransmission or surfaced as a typed DataError, never
// silently trusted.
//
// Software slice-by-4 implementation (no SSE4.2 dependency); tables are
// built once at first use. The polynomial is the Castagnoli 0x1EDC6F41
// (reflected 0x82F63B78), the same one iSCSI, ext4, and LevelDB use.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace papar {

namespace detail {

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

inline const Crc32cTables& crc32c_tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace detail

/// Extends a running CRC32C over `n` more bytes. Seed a fresh checksum with
/// crc = 0 via crc32c() below; this entry point exists for streaming use
/// (spill files accumulate across appends).
inline std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                                   std::size_t n) {
  const auto& t = detail::crc32c_tables().t;
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

/// CRC32C of one complete buffer.
inline std::uint32_t crc32c(const void* data, std::size_t n) {
  return crc32c_extend(0, data, n);
}

}  // namespace papar
