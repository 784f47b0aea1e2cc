// Dataset serialisation.
//
// The released challenge data ships as Numpy .npz archives; the C++
// counterpart here is a little-endian binary container (.scb) holding the
// same six arrays plus provenance, written through common/byte_io (doubles
// little-endian on every host), and a CSV exporter for interoperability
// with the original Python baselines.
#pragma once

#include <filesystem>

#include "common/byte_io.hpp"
#include "data/challenge_dataset.hpp"

namespace scwc::data {

/// Writes `dataset` to `path` in SCB v1 format. Overwrites existing files.
void save_scb(const ChallengeDataset& dataset, const std::filesystem::path& path);

/// Reads an SCB v1 file. Throws scwc::Error "scb: … at byte offset N" on
/// malformed input (bad magic, truncated arrays, inconsistent lengths).
ChallengeDataset load_scb(const std::filesystem::path& path);

/// The format itself, over any writer or reader; the file functions above
/// stream through a bounded buffer.
void write_scb(const ChallengeDataset& dataset, ByteWriter& w);
ChallengeDataset read_scb(ByteReader& r);

/// Exports one trial as CSV: header of sensor names, one row per time step.
void export_trial_csv(const Tensor3& x, std::size_t trial,
                      const std::filesystem::path& path);

}  // namespace scwc::data
