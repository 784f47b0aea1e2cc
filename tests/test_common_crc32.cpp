// CRC-32 (common/crc32.*), the one checksum behind SCWCWIRE frames and the
// .npz exporter's ZIP entries: the standard known answers, seeded
// (incremental) use, and differential checks of every compiled instance
// (common/crc32_kernel.hpp) against a bit-at-a-time reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "common/crc32_kernel.hpp"
#include "common/rng.hpp"

namespace scwc {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

/// The textbook definition, one bit at a time — shares no table or code
/// with the implementation under test. `seed` continues a CRC as crc32 does.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t n,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

TEST(Crc32, KnownVectors) {
  // Standard test vectors for CRC-32/IEEE.
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
  // The string_view overload agrees with the byte-span one.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  // Seeding with the CRC of the prefix continues the computation, at every
  // split point — including splits inside an 8-byte slice.
  const auto all = bytes_of("hello, npz world — long enough for slices");
  const std::uint32_t one_shot = crc32(all);
  const std::span<const std::uint8_t> bytes(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const std::uint32_t head = crc32(bytes.first(split));
    EXPECT_EQ(crc32(bytes.subspan(split), head), one_shot)
        << "split at " << split;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = random_bytes(64 + 8, 7);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32(buf.data() + align, len),
                crc32_reference(buf.data() + align, len))
          << "length " << len << " at offset " << align;
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnASubmitWindowPayload) {
  // 3,405 bytes: the SCWCWIRE payload of one 60×7 SubmitWindow.
  const std::vector<std::uint8_t> buf = random_bytes(3405, 11);
  EXPECT_EQ(crc32(buf), crc32_reference(buf.data(), buf.size()));
}

TEST(Crc32, EveryInstanceMatchesBitwiseReference) {
  // Every length 0..1024 covers the short path (< 64 bytes), the 64-byte
  // fold and the 16-byte and bytewise tails; 16 alignments cover every
  // offset of a 16-byte load; a nonzero seed is the incremental use the
  // .npz writer makes.
  constexpr std::size_t kMaxLen = 1024;
  constexpr std::size_t kAlignments = 16;
  const std::vector<std::uint8_t> buf = random_bytes(kMaxLen + kAlignments, 17);
  std::size_t checked = 0;
  for (const std::uint32_t seed : {0U, 0x9E3779B9U}) {
    for (std::size_t align = 0; align < kAlignments; ++align) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        const std::uint8_t* p = buf.data() + align;
        const std::uint32_t want = crc32_reference(p, len, seed);
        for (const Crc32Kernel& kernel : crc32_kernels()) {
          if (!kernel.supported) continue;
          ASSERT_EQ(kernel.crc(p, len, seed), want)
              << kernel.name << ": length " << len << " at offset " << align
              << ", seed " << seed;
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 2 * kAlignments * (kMaxLen + 1));
}

TEST(Crc32, SliceBy8InstanceMatchesReference) {
  // The fallback and tail path stays checked on CPUs that never pick it.
  const auto kernels = crc32_kernels();
  ASSERT_FALSE(kernels.empty());
  const Crc32Kernel& slice8 = kernels.back();
  ASSERT_STREQ(slice8.name, "slice8");
  EXPECT_TRUE(slice8.supported);
  EXPECT_EQ(slice8.crc("123456789", 9, 0), 0xCBF43926u);
  const std::vector<std::uint8_t> buf = random_bytes(3405, 11);
  EXPECT_EQ(slice8.crc(buf.data(), buf.size(), 0),
            crc32_reference(buf.data(), buf.size()));
  EXPECT_EQ(slice8.crc(buf.data() + 5, 100, 0x12345678U),
            crc32_reference(buf.data() + 5, 100, 0x12345678U));
}

TEST(Crc32, DispatchRunsTheBestSupportedInstance) {
  const Crc32Kernel& best = best_crc32_kernel();
  EXPECT_TRUE(best.supported);
  for (const Crc32Kernel& kernel : crc32_kernels()) {
    if (&kernel == &best) break;
    EXPECT_FALSE(kernel.supported) << kernel.name << " outranks " << best.name;
  }
  const std::vector<std::uint8_t> buf = random_bytes(5000, 23);
  EXPECT_EQ(crc32(buf), best.crc(buf.data(), buf.size(), 0));
}

}  // namespace
}  // namespace scwc
