#include "data/npz.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::data {

namespace {

/// The NPY v1.0 header of an array of `descr` and `shape`; the
/// little-endian payload follows it.
std::string npy_header(const std::string& descr,
                       const std::vector<std::size_t>& shape) {
  std::ostringstream header;
  header << "{'descr': '" << descr << "', 'fortran_order': False, 'shape': (";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    header << shape[i];
    if (shape.size() == 1 || i + 1 < shape.size()) header << ",";
    if (i + 1 < shape.size()) header << " ";
  }
  header << "), }";
  std::string h = header.str();
  // Pad with spaces so magic(6)+version(2)+len(2)+header is 64-aligned and
  // the header ends with a newline, per the NPY v1.0 spec.
  const std::size_t base = 6 + 2 + 2;
  const std::size_t total = ((base + h.size() + 1 + 63) / 64) * 64;
  h.resize(total - base - 1, ' ');
  h += '\n';
  SCWC_CHECK(h.size() <= 65535, "npy: header too long for v1.0");
  ByteWriter w(total);
  w.bytes("\x93NUMPY");
  w.u8(1);  // version 1.0
  w.u8(0);
  w.u16(static_cast<std::uint16_t>(h.size()));
  w.bytes(h);
  return w.take();
}

std::vector<std::uint8_t> to_bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

/// CRC-32 of a member as write_zip writes it: `bytes`, then `values`
/// little-endian. On a little-endian host those are the values' own bytes;
/// elsewhere they are encoded chunk by chunk.
std::uint32_t member_crc(const ZipEntry& entry) {
  std::uint32_t crc = crc32(entry.bytes);
  if constexpr (kLittleEndianHost) {
    return crc32(entry.values.data(), entry.values.size_bytes(), crc);
  }
  constexpr std::size_t kChunk = kStreamBufferBytes / sizeof(double);
  for (std::size_t i = 0; i < entry.values.size(); i += kChunk) {
    ByteWriter w(kStreamBufferBytes);
    w.f64s(entry.values.subspan(i, std::min(kChunk, entry.values.size() - i)));
    crc = crc32(w.take(), crc);
  }
  return crc;
}

}  // namespace

ZipEntry npy_member(std::string name, std::span<const double> values,
                    const std::vector<std::size_t>& shape) {
  std::size_t count = 1;
  for (const std::size_t s : shape) count *= s;
  SCWC_REQUIRE(count == values.size(), "npy: shape does not match data size");
  return {std::move(name), to_bytes(npy_header("<f8", shape)), values};
}

std::vector<std::uint8_t> npy_from_labels(std::span<const int> labels) {
  ByteWriter w(npy_header("<i8", {labels.size()}));
  for (const int label : labels) w.i64(label);
  return to_bytes(w.take());
}

std::vector<std::uint8_t> npy_from_strings(
    const std::vector<std::string>& values) {
  constexpr std::size_t kWidth = 32;
  ByteWriter w(npy_header("<U32", {values.size()}));
  for (const auto& s : values) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      // ASCII → UTF-32LE code units; zero-padded beyond the string.
      w.u32(i < s.size() ? static_cast<std::uint8_t>(s[i]) : 0U);
    }
  }
  return to_bytes(w.take());
}

void write_zip(ByteWriter& w, const std::vector<ZipEntry>& entries) {
  struct Record {
    std::uint32_t crc;
    std::uint32_t size;
    std::uint32_t offset;
  };
  std::vector<Record> records;
  records.reserve(entries.size());
  const std::uint64_t start = w.offset();
  const auto offset = [&w, start] {
    return static_cast<std::uint32_t>(w.offset() - start);
  };

  // Local file headers + data.
  for (const auto& entry : entries) {
    const std::uint64_t size =
        entry.bytes.size() + entry.values.size() * sizeof(double);
    SCWC_REQUIRE(size < 0xFFFFFFFFull, "zip: member too large for zip32");
    Record rec;
    rec.offset = offset();
    rec.crc = member_crc(entry);
    rec.size = static_cast<std::uint32_t>(size);
    records.push_back(rec);

    w.u32(0x04034b50);  // local header signature
    w.u16(20);          // version needed
    w.u16(0);           // flags
    w.u16(0);           // method: stored
    w.u16(0);           // mod time
    w.u16(0x21);        // mod date (1980-01-01)
    w.u32(rec.crc);
    w.u32(rec.size);  // compressed size
    w.u32(rec.size);  // uncompressed size
    w.u16(static_cast<std::uint16_t>(entry.name.size()));
    w.u16(0);  // extra length
    w.bytes(entry.name);
    w.bytes({reinterpret_cast<const char*>(entry.bytes.data()),
             entry.bytes.size()});
    w.f64s(entry.values);
  }

  // Central directory.
  const std::uint32_t central_start = offset();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    const Record& rec = records[i];
    w.u32(0x02014b50);  // central directory signature
    w.u16(20);          // version made by
    w.u16(20);          // version needed
    w.u16(0);           // flags
    w.u16(0);           // method
    w.u16(0);           // mod time
    w.u16(0x21);        // mod date
    w.u32(rec.crc);
    w.u32(rec.size);
    w.u32(rec.size);
    w.u16(static_cast<std::uint16_t>(entry.name.size()));
    w.u16(0);  // extra
    w.u16(0);  // comment
    w.u16(0);  // disk number
    w.u16(0);  // internal attrs
    w.u32(0);  // external attrs
    w.u32(rec.offset);
    w.bytes(entry.name);
  }
  const std::uint32_t central_size = offset() - central_start;

  // End of central directory.
  w.u32(0x06054b50);
  w.u16(0);  // disk
  w.u16(0);  // central directory disk
  w.u16(static_cast<std::uint16_t>(entries.size()));
  w.u16(static_cast<std::uint16_t>(entries.size()));
  w.u32(central_size);
  w.u32(central_start);
  w.u16(0);  // comment length
}

void save_npz(const ChallengeDataset& dataset,
              const std::filesystem::path& path) {
  const obs::TraceSpan span("npz.write");
  dataset.validate();
  // The tensors stream straight into the archive; only the small label
  // and name members are encoded up front.
  std::vector<ZipEntry> entries;
  entries.push_back(npy_member(
      "X_train.npy", dataset.x_train.raw(),
      {dataset.x_train.trials(), dataset.x_train.steps(),
       dataset.x_train.sensors()}));
  entries.push_back({"y_train.npy", npy_from_labels(dataset.y_train)});
  entries.push_back(
      {"model_train.npy", npy_from_strings(dataset.model_train)});
  entries.push_back(npy_member(
      "X_test.npy", dataset.x_test.raw(),
      {dataset.x_test.trials(), dataset.x_test.steps(),
       dataset.x_test.sensors()}));
  entries.push_back({"y_test.npy", npy_from_labels(dataset.y_test)});
  entries.push_back({"model_test.npy", npy_from_strings(dataset.model_test)});

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  ByteWriter w(os);
  write_zip(w, entries);
  w.flush();
  std::uint64_t payload = 0;
  for (const ZipEntry& e : entries) {
    payload += e.bytes.size() + e.values.size() * sizeof(double);
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_npz_writes_total").inc();
  reg.counter("scwc_data_npz_bytes_written_total").inc(payload);
}

}  // namespace scwc::data
