// Numpy .npz export — the paper's release format.
//
// "Each dataset is saved in the Numpy npz format and contains following
//  the files: X_train, y_train, model_train, X_test, y_test, model_test."
//
// This module writes byte-exact NPY v1.0 members inside an uncompressed
// ("stored") ZIP container, through common/byte_io and its bounded file
// buffer, so a standard `numpy.load` reads the result with no extra
// dependencies on our side:
//   X_*      float64, shape (trials, samples, sensors)
//   y_*      int64,   shape (trials,)
//   model_*  unicode '<U32', shape (trials,)
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "data/challenge_dataset.hpp"

namespace scwc::data {

/// Encodes int labels as "<i8" NPY bytes.
std::vector<std::uint8_t> npy_from_labels(std::span<const int> labels);

/// Encodes strings as fixed-width "<U32" NPY bytes (UTF-32LE, truncating
/// anything longer than 32 code points — class names are far shorter).
std::vector<std::uint8_t> npy_from_strings(
    const std::vector<std::string>& values);

/// One member of a ZIP archive: `bytes`, then `values` as little-endian
/// doubles. A tensor member keeps only its NPY header in `bytes` and views
/// the tensor, so it streams into the archive without an encoded copy.
struct ZipEntry {
  std::string name;                   ///< e.g. "X_train.npy"
  std::vector<std::uint8_t> bytes;    ///< raw member contents (or head)
  std::span<const double> values{};  ///< written after `bytes`
};

/// The "<f8" NPY member `name` of `values` viewed as `shape`; throws when
/// `shape` does not multiply out to values.size(). `values` must outlive
/// the entry.
ZipEntry npy_member(std::string name, std::span<const double> values,
                    const std::vector<std::size_t>& shape);

/// Writes an uncompressed ZIP archive (method 0 "stored").
void write_zip(ByteWriter& w, const std::vector<ZipEntry>& entries);

/// Writes `dataset` to `path` as the six-member npz the challenge releases.
void save_npz(const ChallengeDataset& dataset,
              const std::filesystem::path& path);

}  // namespace scwc::data
