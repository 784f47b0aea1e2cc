// Numpy .npz export — the paper's release format.
//
// "Each dataset is saved in the Numpy npz format and contains following
//  the files: X_train, y_train, model_train, X_test, y_test, model_test."
//
// This module writes byte-exact NPY v1.0 members inside an uncompressed
// ("stored") ZIP container so a standard `numpy.load` reads the result with
// no extra dependencies on our side:
//   X_*      float64, shape (trials, samples, sensors)
//   y_*      int64,   shape (trials,)
//   model_*  unicode '<U32', shape (trials,)
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "data/challenge_dataset.hpp"

namespace scwc::data {

/// Serialises one array into NPY v1.0 bytes.
/// `descr` is the numpy dtype string (e.g. "<f8", "<i8", "<U32") and
/// `shape` the dimensions; `payload` must already be in the dtype's wire
/// format (little-endian).
std::vector<std::uint8_t> npy_encode(const std::string& descr,
                                     const std::vector<std::size_t>& shape,
                                     std::span<const std::uint8_t> payload);

/// Encodes a double array as "<f8" NPY bytes.
std::vector<std::uint8_t> npy_from_doubles(
    std::span<const double> values, const std::vector<std::size_t>& shape);

/// Encodes int labels as "<i8" NPY bytes.
std::vector<std::uint8_t> npy_from_labels(std::span<const int> labels);

/// Encodes strings as fixed-width "<U32" NPY bytes (UTF-32LE, truncating
/// anything longer than 32 code points — class names are far shorter).
std::vector<std::uint8_t> npy_from_strings(
    const std::vector<std::string>& values);

/// One member of a ZIP archive.
struct ZipEntry {
  std::string name;                 ///< e.g. "X_train.npy"
  std::vector<std::uint8_t> bytes;  ///< raw member contents
};

/// Writes an uncompressed ZIP archive (method 0 "stored") to a stream.
void write_zip(std::ostream& os, const std::vector<ZipEntry>& entries);

/// Writes `dataset` to `path` as the six-member npz the challenge releases.
void save_npz(const ChallengeDataset& dataset,
              const std::filesystem::path& path);

}  // namespace scwc::data
