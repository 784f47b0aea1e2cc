// Tests for .scb serialisation, CSV export and dataset validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "data/serialize.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::data {
namespace {

ChallengeDataset tiny_dataset() {
  ChallengeDataset ds;
  ds.name = "60-test-1";
  ds.policy = WindowPolicy::kRandom;
  ds.x_train = Tensor3(4, 3, 2);
  ds.x_test = Tensor3(2, 3, 2);
  double v = 0.5;
  for (double& x : ds.x_train.raw()) x = v += 1.0;
  for (double& x : ds.x_test.raw()) x = v -= 0.25;
  ds.y_train = {0, 1, 2, 1};
  ds.y_test = {0, 2};
  for (const int y : ds.y_train) {
    ds.model_train.push_back(telemetry::architecture(y).name);
  }
  for (const int y : ds.y_test) {
    ds.model_test.push_back(telemetry::architecture(y).name);
  }
  ds.job_train = {11, 22, 33, 22};
  ds.job_test = {44, 55};
  return ds;
}

std::string scb_bytes(const ChallengeDataset& ds) {
  ByteWriter w;
  write_scb(ds, w);
  return w.take();
}

ChallengeDataset read_bytes(std::string_view bytes) {
  ByteReader r(bytes, "scb");
  return read_scb(r);
}

TEST(Scb, RoundTripsThroughMemory) {
  const ChallengeDataset ds = tiny_dataset();
  const ChallengeDataset back = read_bytes(scb_bytes(ds));
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.policy, ds.policy);
  EXPECT_EQ(back.y_train, ds.y_train);
  EXPECT_EQ(back.y_test, ds.y_test);
  EXPECT_EQ(back.model_train, ds.model_train);
  EXPECT_EQ(back.job_train, ds.job_train);
  ASSERT_EQ(back.x_train.trials(), ds.x_train.trials());
  for (std::size_t i = 0; i < ds.x_train.raw().size(); ++i) {
    EXPECT_EQ(back.x_train.raw()[i], ds.x_train.raw()[i]);
  }
}

TEST(Scb, RoundTripsThroughFile) {
  const auto path = std::filesystem::temp_directory_path() / "scwc_test.scb";
  const ChallengeDataset ds = tiny_dataset();
  save_scb(ds, path);
  const ChallengeDataset back = load_scb(path);
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.test_trials(), 2u);
  std::filesystem::remove(path);
}

TEST(Scb, RejectsBadMagic) {
  EXPECT_THROW((void)read_bytes("NOTSCWC1garbagegarbage"), Error);
}

TEST(Scb, RejectsTruncatedStream) {
  const ChallengeDataset ds = tiny_dataset();
  const std::string full = scb_bytes(ds);
  for (const double frac : {0.3, 0.6, 0.95}) {
    const std::string cut = full.substr(
        0, static_cast<std::size_t>(static_cast<double>(full.size()) * frac));
    EXPECT_THROW((void)read_bytes(cut), Error) << "at fraction " << frac;
  }
}

TEST(Scb, MissingFileThrows) {
  EXPECT_THROW((void)load_scb("/nonexistent/dir/x.scb"), Error);
}

std::string error_message(std::string_view bytes) {
  try {
    (void)read_bytes(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Magic + dataset name "x" — the valid prefix of a hand-built .scb.
std::string scb_prefix() {
  std::string out = "SCWCB001";
  append_u64(out, 1);
  out.push_back('x');
  return out;
}

TEST(Scb, BadMagicNamesTheProblem) {
  const std::string what = error_message("NOTSCWC1garbagegarbage");
  EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
}

TEST(Scb, TruncationErrorsCarryByteOffset) {
  const ChallengeDataset ds = tiny_dataset();
  const std::string bytes = scb_bytes(ds);
  // Cut mid-magic, mid-header and mid-tensor: every failure must say that
  // the input was truncated and at which byte offset it ended — from a
  // byte view and through the file reader alike.
  const auto path = std::filesystem::temp_directory_path() / "scwc_cut.scb";
  for (const std::size_t cut : {std::size_t{4}, std::size_t{20},
                                bytes.size() / 2}) {
    const std::string at = "at byte offset " + std::to_string(cut);
    const std::string what = error_message(bytes.substr(0, cut));
    EXPECT_NE(what.find("truncated"), std::string::npos)
        << "cut=" << cut << ": " << what;
    EXPECT_NE(what.find(at), std::string::npos)
        << "cut=" << cut << ": " << what;
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << bytes.substr(0, cut);
    }
    std::string file_what;
    try {
      (void)load_scb(path);
    } catch (const Error& e) {
      file_what = e.what();
    }
    EXPECT_NE(file_what.find(at), std::string::npos)
        << "cut=" << cut << ": " << file_what;
  }
  std::filesystem::remove(path);
}

TEST(Scb, RejectsBadWindowPolicy) {
  std::string bytes = scb_prefix();
  append_u64(bytes, 9);  // policy must be 0..2
  const std::string what = error_message(bytes);
  EXPECT_NE(what.find("bad window policy 9"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
}

TEST(Scb, RejectsImplausibleTensorDimensions) {
  // A corrupted header claiming 2^40 trials must fail the dimension cap
  // instead of attempting a petabyte allocation (or overflowing size_t).
  std::string bytes = scb_prefix();
  append_u64(bytes, 0);            // policy
  append_u64(bytes, 1ULL << 40);   // trials
  append_u64(bytes, 3);            // steps
  append_u64(bytes, 2);            // sensors
  const std::string what = error_message(bytes);
  EXPECT_NE(what.find("implausible tensor dimensions"), std::string::npos)
      << what;
}

TEST(Scb, RejectsTensorSizeMismatch) {
  // Header claims 2×3×2 but only one double follows the length field.
  std::string bytes = scb_prefix();
  append_u64(bytes, 0);  // policy
  append_u64(bytes, 2);  // trials
  append_u64(bytes, 3);  // steps
  append_u64(bytes, 2);  // sensors
  append_u64(bytes, 1);  // tensor length: 1 ≠ 12
  bytes.append(sizeof(double), '\0');
  const std::string what = error_message(bytes);
  EXPECT_NE(what.find("tensor size mismatch"), std::string::npos) << what;
}

TEST(Scb, RejectsUnreasonableStringLength) {
  // The name length field claims 2^32 characters on a 9-byte stream.
  std::string bytes = "SCWCB001";
  append_u64(bytes, 1ULL << 32);
  const std::string what = error_message(bytes);
  EXPECT_NE(what.find("unreasonable"), std::string::npos) << what;
}

TEST(Scb, RejectsLabelCountMismatch) {
  std::string bytes = scb_prefix();
  append_u64(bytes, 0);  // policy
  append_u64(bytes, 1);  // trials
  append_u64(bytes, 1);  // steps
  append_u64(bytes, 1);  // sensors
  append_u64(bytes, 1);  // tensor length
  bytes.append(sizeof(double), '\0');
  append_u64(bytes, 5);  // label count ≠ trials
  const std::string what = error_message(bytes);
  EXPECT_NE(what.find("label count mismatch"), std::string::npos) << what;
}

TEST(CsvExport, WritesHeaderAndRows) {
  const ChallengeDataset ds = tiny_dataset();
  const auto path = std::filesystem::temp_directory_path() / "scwc_trial.csv";
  export_trial_csv(ds.x_train, 1, path);
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("utilization_gpu_pct"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 3);  // steps
  std::filesystem::remove(path);
}

TEST(CsvExport, RejectsBadTrialIndex) {
  const ChallengeDataset ds = tiny_dataset();
  EXPECT_THROW(export_trial_csv(ds.x_train, 99, "/tmp/x.csv"), Error);
}

TEST(Validate, AcceptsConsistentDataset) {
  EXPECT_NO_THROW(tiny_dataset().validate());
}

TEST(Validate, CatchesLengthMismatch) {
  ChallengeDataset ds = tiny_dataset();
  ds.y_train.pop_back();
  EXPECT_THROW(ds.validate(), Error);
}

TEST(Validate, CatchesWrongModelName) {
  ChallengeDataset ds = tiny_dataset();
  ds.model_train[0] = "WrongNet";
  EXPECT_THROW(ds.validate(), Error);
}

TEST(Validate, CatchesLabelOutOfRange) {
  ChallengeDataset ds = tiny_dataset();
  ds.y_test[0] = 26;
  ds.model_test[0] = "whatever";
  EXPECT_THROW(ds.validate(), Error);
}

TEST(Validate, CatchesShapeMismatch) {
  ChallengeDataset ds = tiny_dataset();
  ds.x_test = Tensor3(2, 4, 2);  // wrong steps
  EXPECT_THROW(ds.validate(), Error);
}

}  // namespace
}  // namespace scwc::data
