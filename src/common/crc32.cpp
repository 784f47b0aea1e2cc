#include "common/crc32.hpp"

#include <algorithm>
#include <array>

#include "common/crc32_kernel.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace scwc {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, which lets the main
/// loop fold eight input bytes with eight independent lookups.
constexpr CrcTables make_tables() {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFU];
    }
  }
  return t;
}

constexpr CrcTables kTables = make_tables();

/// Little-endian 32-bit load; compilers fold it into one load on LE hosts.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the running (inverted) CRC `c` over `size` bytes at `p`.
std::uint32_t slice8_update(std::uint32_t c, const unsigned char* p,
                            std::size_t size) noexcept {
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFU] ^ kTables[6][(lo >> 8) & 0xFFU] ^
        kTables[5][(lo >> 16) & 0xFFU] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFU] ^ kTables[2][(hi >> 8) & 0xFFU] ^
        kTables[1][(hi >> 16) & 0xFFU] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = kTables[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  }
  return c;
}

std::uint32_t crc32_slice8(const void* data, std::size_t size,
                           std::uint32_t seed) noexcept {
  return slice8_update(seed ^ 0xFFFFFFFFU,
                       static_cast<const unsigned char*>(data), size) ^
         0xFFFFFFFFU;
}

#if defined(__x86_64__)

[[gnu::always_inline]] inline __m128i load(
    const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One fold step: the low quadword of `x` times the low one of `k`, the
/// high times the high, both added to the next 16 bytes.
[[gnu::target("pclmul"), gnu::always_inline]] inline __m128i fold(
    __m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the running
/// CRC `c` with carry-less multiplies: four 128-bit lanes fold 64 bytes
/// per step, collapse into one lane, take the remaining 16-byte blocks,
/// and a Barrett reduction brings the 128-bit remainder back to 32 bits.
/// The constants are the bit-reflected x^k mod P(x) values for the IEEE
/// polynomial from Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), the same ones
/// Chromium's zlib uses in crc32_sse42_simd_.
[[gnu::target("pclmul,sse4.1")]] std::uint32_t fold_pclmul(
    const unsigned char* p, std::size_t size, std::uint32_t c) noexcept {
  // _mm_set_epi64x takes the high quadword first.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;

  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = fold(x1, k3k4, load(p));
  }

  // 128 → 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5k0, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

std::uint32_t crc32_pclmul(const void* data, std::size_t size,
                           std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  if (size >= 64) {
    const std::size_t folded = size & ~std::size_t{15};
    c = fold_pclmul(p, folded, c);
    p += folded;
    size -= folded;
  }
  return slice8_update(c, p, size) ^ 0xFFFFFFFFU;
}

#endif

}  // namespace

std::span<const Crc32Kernel> crc32_kernels() {
  // Probed on first use, never at namespace scope: a static initializer
  // could run before libgcc has read the CPU's feature bits.
  static const auto table = std::array{
#if defined(__x86_64__)
      Crc32Kernel{"pclmul", &crc32_pclmul,
                  __builtin_cpu_supports("pclmul") != 0 &&
                      __builtin_cpu_supports("sse4.1") != 0},
#endif
      Crc32Kernel{"slice8", &crc32_slice8, true},
  };
  return table;
}

const Crc32Kernel& best_crc32_kernel() {
  static const Crc32Kernel& best =
      *std::ranges::find_if(crc32_kernels(), &Crc32Kernel::supported);
  return best;
}

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  static const auto best = best_crc32_kernel().crc;
  return best(data, size, seed);
}

}  // namespace scwc
