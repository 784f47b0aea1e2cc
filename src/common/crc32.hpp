// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
// 0xFFFFFFFF) — the checksum of both the SCWCWIRE frame header and the ZIP
// entries of the .npz exporter. One function serves both: it folds 64 bytes
// per step with carry-less multiplies (PCLMULQDQ) where the CPU has them and
// runs slice-by-8 elsewhere, chosen once (common/crc32_kernel.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace scwc {

/// CRC-32 of `size` bytes at `data`. `seed` makes it incremental: pass the
/// CRC of the preceding bytes, so crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t seed = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), seed);
}

[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                         std::uint32_t seed = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace scwc
