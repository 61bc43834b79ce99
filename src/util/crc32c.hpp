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
// crc32c_extend runs the SSE4.2 `crc32` instruction, 8 bytes at a time,
// when the CPU has it; the choice is made once, at the first call. Other
// CPUs and architectures get the software slice-by-4 implementation, which
// the tests also use as the reference. The polynomial is the Castagnoli
// 0x1EDC6F41 (reflected 0x82F63B78), the same one iSCSI, ext4, and LevelDB
// use.
#pragma once

#include <cstddef>
#include <cstdint>

namespace papar {

/// Extends a running CRC32C over `n` more bytes. Seed a fresh checksum with
/// crc = 0 via crc32c() below; this entry point exists for streaming use
/// (spill files accumulate across appends).
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data, std::size_t n);

/// The software slice-by-4 CRC32C: crc32c_extend's fallback, and the
/// reference the tests compare it against. Same contract as crc32c_extend.
std::uint32_t crc32c_extend_slice4(std::uint32_t crc, const void* data,
                                   std::size_t n);

/// CRC32C of one complete buffer.
inline std::uint32_t crc32c(const void* data, std::size_t n) {
  return crc32c_extend(0, data, n);
}

}  // namespace papar
