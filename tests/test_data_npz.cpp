// Tests for the .npz exporter: NPY headers, ZIP structure.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "data/npz.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::data {
namespace {

TEST(Npy, HeaderIsWellFormedAndAligned) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const ZipEntry member = npy_member("x.npy", values, {2, 3});
  const auto& npy = member.bytes;
  ASSERT_GT(npy.size(), 10u);
  EXPECT_EQ(npy[0], 0x93);
  EXPECT_EQ(std::memcmp(npy.data() + 1, "NUMPY", 5), 0);
  EXPECT_EQ(npy[6], 1);  // v1.0
  EXPECT_EQ(npy[7], 0);
  const std::size_t header_len =
      npy[8] | (static_cast<std::size_t>(npy[9]) << 8);
  EXPECT_EQ((10 + header_len) % 64, 0u);  // spec: 64-byte alignment
  const std::string header(npy.begin() + 10,
                           npy.begin() + 10 + static_cast<long>(header_len));
  EXPECT_NE(header.find("'descr': '<f8'"), std::string::npos);
  EXPECT_NE(header.find("'fortran_order': False"), std::string::npos);
  EXPECT_NE(header.find("(2, 3)"), std::string::npos);
  EXPECT_EQ(header.back(), '\n');
  // Payload: 6 little-endian doubles right after the header, as the
  // archive writes them behind the 30-byte local header and the name.
  EXPECT_EQ(npy.size(), 10 + header_len);
  ByteWriter w;
  write_zip(w, {member});
  const std::string zip = w.take();
  const std::size_t payload = 30 + member.name.size() + npy.size();
  ASSERT_GE(zip.size(), payload + 6 * 8);
  double first = 0;
  double last = 0;
  std::memcpy(&first, zip.data() + payload, 8);
  std::memcpy(&last, zip.data() + payload + 5 * 8, 8);
  EXPECT_DOUBLE_EQ(first, 1.0);
  EXPECT_DOUBLE_EQ(last, 6.0);
}

TEST(Npy, OneDimensionalShapeHasTrailingComma) {
  const auto npy = npy_from_labels(std::vector<int>{7, 8, 9});
  const std::size_t header_len =
      npy[8] | (static_cast<std::size_t>(npy[9]) << 8);
  const std::string header(npy.begin() + 10,
                           npy.begin() + 10 + static_cast<long>(header_len));
  EXPECT_NE(header.find("(3,)"), std::string::npos);
  EXPECT_NE(header.find("'<i8'"), std::string::npos);
  // int64 payload: 7 first.
  std::int64_t first = 0;
  std::memcpy(&first, npy.data() + 10 + header_len, 8);
  EXPECT_EQ(first, 7);
}

TEST(Npy, StringsAreFixedWidthUtf32) {
  const auto npy = npy_from_strings({"VGG11", "Bert"});
  const std::size_t header_len =
      npy[8] | (static_cast<std::size_t>(npy[9]) << 8);
  const std::string header(npy.begin() + 10,
                           npy.begin() + 10 + static_cast<long>(header_len));
  EXPECT_NE(header.find("'<U32'"), std::string::npos);
  EXPECT_EQ(npy.size(), 10 + header_len + 2 * 32 * 4);
  // 'V' encoded as a UTF-32LE code unit.
  const std::uint8_t* payload = npy.data() + 10 + header_len;
  EXPECT_EQ(payload[0], 'V');
  EXPECT_EQ(payload[1], 0);
  EXPECT_EQ(payload[2], 0);
  EXPECT_EQ(payload[3], 0);
}

TEST(Npy, ShapeMismatchThrows) {
  const std::vector<double> values{1.0, 2.0};
  EXPECT_THROW((void)npy_member("x.npy", values, {3}), Error);
}

TEST(Zip, StructureIsParseable) {
  std::vector<ZipEntry> entries;
  entries.push_back({"a.npy", {1, 2, 3, 4}});
  entries.push_back({"b.npy", {9, 8, 7}});
  ByteWriter w;
  write_zip(w, entries);
  const std::string zip = w.take();

  // Local header signature at the start.
  ASSERT_GE(zip.size(), 22u);
  EXPECT_EQ(static_cast<unsigned char>(zip[0]), 0x50);
  EXPECT_EQ(static_cast<unsigned char>(zip[1]), 0x4b);
  EXPECT_EQ(static_cast<unsigned char>(zip[2]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(zip[3]), 0x04);
  // EOCD signature at the end (no comment).
  const std::size_t eocd = zip.size() - 22;
  EXPECT_EQ(static_cast<unsigned char>(zip[eocd]), 0x50);
  EXPECT_EQ(static_cast<unsigned char>(zip[eocd + 1]), 0x4b);
  EXPECT_EQ(static_cast<unsigned char>(zip[eocd + 2]), 0x05);
  EXPECT_EQ(static_cast<unsigned char>(zip[eocd + 3]), 0x06);
  // Entry count in the EOCD.
  EXPECT_EQ(static_cast<unsigned char>(zip[eocd + 10]), 2);
  // Member names appear in order.
  EXPECT_NE(zip.find("a.npy"), std::string::npos);
  EXPECT_NE(zip.find("b.npy"), std::string::npos);
}

TEST(Npz, SaveProducesSixMembers) {
  ChallengeDataset ds;
  ds.name = "60-test-1";
  ds.policy = WindowPolicy::kStart;
  ds.x_train = Tensor3(3, 4, 2);
  ds.x_test = Tensor3(2, 4, 2);
  for (double& v : ds.x_train.raw()) v = 0.25;
  ds.y_train = {0, 1, 2};
  ds.y_test = {1, 2};
  for (const int y : ds.y_train) {
    ds.model_train.push_back(telemetry::architecture(y).name);
  }
  for (const int y : ds.y_test) {
    ds.model_test.push_back(telemetry::architecture(y).name);
  }
  ds.job_train = {1, 2, 3};
  ds.job_test = {4, 5};

  const auto path = std::filesystem::temp_directory_path() / "scwc_test.npz";
  save_npz(ds, path);
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open());
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  for (const char* member :
       {"X_train.npy", "y_train.npy", "model_train.npy", "X_test.npy",
        "y_test.npy", "model_test.npy"}) {
    EXPECT_NE(content.find(member), std::string::npos) << member;
  }
  std::filesystem::remove(path);
}

TEST(Npz, RejectsInvalidDataset) {
  ChallengeDataset ds;  // empty → validate() fails
  EXPECT_THROW(save_npz(ds, "/tmp/never.npz"), Error);
}

}  // namespace
}  // namespace scwc::data
