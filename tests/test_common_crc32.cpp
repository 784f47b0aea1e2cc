// CRC-32 (common/crc32.*), the one checksum behind SCWCWIRE frames and the
// .npz exporter's ZIP entries: the standard known answers, seeded
// (incremental) use, and a differential check of the slice-by-8 kernel
// against a bit-at-a-time reference at every short length and alignment.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace scwc {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

/// The textbook definition, one bit at a time — shares no table or code
/// with the implementation under test.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFU;
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

}  // namespace
}  // namespace scwc
