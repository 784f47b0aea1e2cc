#include "data/npz.hpp"

#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::data {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

std::vector<std::uint8_t> npy_encode(const std::string& descr,
                                     const std::vector<std::size_t>& shape,
                                     std::span<const std::uint8_t> payload) {
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

  std::vector<std::uint8_t> out;
  out.reserve(base + h.size() + payload.size());
  const char magic[6] = {'\x93', 'N', 'U', 'M', 'P', 'Y'};
  out.insert(out.end(), magic, magic + 6);
  out.push_back(1);  // major
  out.push_back(0);  // minor
  put_u16(out, static_cast<std::uint16_t>(h.size()));
  out.insert(out.end(), h.begin(), h.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> npy_from_doubles(
    std::span<const double> values, const std::vector<std::size_t>& shape) {
  std::size_t count = 1;
  for (const std::size_t s : shape) count *= s;
  SCWC_REQUIRE(count == values.size(), "npy: shape does not match data size");
  std::vector<std::uint8_t> payload(values.size() * 8);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &values[i], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      payload[i * 8 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>((bits >> (8 * b)) & 0xFF);
    }
  }
  return npy_encode("<f8", shape, payload);
}

std::vector<std::uint8_t> npy_from_labels(std::span<const int> labels) {
  std::vector<std::uint8_t> payload;
  payload.reserve(labels.size() * 8);
  for (const int label : labels) {
    put_u64(payload, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(label)));
  }
  return npy_encode("<i8", {labels.size()}, payload);
}

std::vector<std::uint8_t> npy_from_strings(
    const std::vector<std::string>& values) {
  constexpr std::size_t kWidth = 32;
  std::vector<std::uint8_t> payload;
  payload.reserve(values.size() * kWidth * 4);
  for (const auto& s : values) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      // ASCII → UTF-32LE code units; zero-padded beyond the string.
      const std::uint32_t cp =
          i < s.size() ? static_cast<std::uint8_t>(s[i]) : 0u;
      put_u32(payload, cp);
    }
  }
  return npy_encode("<U32", {values.size()}, payload);
}

void write_zip(std::ostream& os, const std::vector<ZipEntry>& entries) {
  struct Record {
    std::uint32_t crc;
    std::uint32_t size;
    std::uint32_t offset;
  };
  std::vector<Record> records;
  records.reserve(entries.size());
  std::uint32_t offset = 0;

  const auto emit = [&os, &offset](const std::vector<std::uint8_t>& bytes) {
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    offset += static_cast<std::uint32_t>(bytes.size());
  };

  // Local file headers + data.
  for (const auto& entry : entries) {
    SCWC_REQUIRE(entry.bytes.size() < 0xFFFFFFFFull,
                 "zip: member too large for zip32");
    Record rec;
    rec.offset = offset;
    rec.crc = crc32(entry.bytes);
    rec.size = static_cast<std::uint32_t>(entry.bytes.size());
    records.push_back(rec);

    std::vector<std::uint8_t> header;
    put_u32(header, 0x04034b50);                     // local header signature
    put_u16(header, 20);                             // version needed
    put_u16(header, 0);                              // flags
    put_u16(header, 0);                              // method: stored
    put_u16(header, 0);                              // mod time
    put_u16(header, 0x21);                           // mod date (1980-01-01)
    put_u32(header, rec.crc);
    put_u32(header, rec.size);                       // compressed size
    put_u32(header, rec.size);                       // uncompressed size
    put_u16(header, static_cast<std::uint16_t>(entry.name.size()));
    put_u16(header, 0);                              // extra length
    header.insert(header.end(), entry.name.begin(), entry.name.end());
    emit(header);
    emit(entry.bytes);
  }

  // Central directory.
  const std::uint32_t central_start = offset;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    const Record& rec = records[i];
    std::vector<std::uint8_t> header;
    put_u32(header, 0x02014b50);  // central directory signature
    put_u16(header, 20);          // version made by
    put_u16(header, 20);          // version needed
    put_u16(header, 0);           // flags
    put_u16(header, 0);           // method
    put_u16(header, 0);           // mod time
    put_u16(header, 0x21);        // mod date
    put_u32(header, rec.crc);
    put_u32(header, rec.size);
    put_u32(header, rec.size);
    put_u16(header, static_cast<std::uint16_t>(entry.name.size()));
    put_u16(header, 0);           // extra
    put_u16(header, 0);           // comment
    put_u16(header, 0);           // disk number
    put_u16(header, 0);           // internal attrs
    put_u32(header, 0);           // external attrs
    put_u32(header, rec.offset);
    header.insert(header.end(), entry.name.begin(), entry.name.end());
    emit(header);
  }
  const std::uint32_t central_size = offset - central_start;

  // End of central directory.
  std::vector<std::uint8_t> eocd;
  put_u32(eocd, 0x06054b50);
  put_u16(eocd, 0);  // disk
  put_u16(eocd, 0);  // central directory disk
  put_u16(eocd, static_cast<std::uint16_t>(entries.size()));
  put_u16(eocd, static_cast<std::uint16_t>(entries.size()));
  put_u32(eocd, central_size);
  put_u32(eocd, central_start);
  put_u16(eocd, 0);  // comment length
  emit(eocd);
  SCWC_REQUIRE(os.good(), "zip: write failed");
}

void save_npz(const ChallengeDataset& dataset,
              const std::filesystem::path& path) {
  const obs::TraceSpan span("npz.write");
  dataset.validate();
  std::vector<ZipEntry> entries;
  entries.push_back(
      {"X_train.npy",
       npy_from_doubles(dataset.x_train.raw(),
                        {dataset.x_train.trials(), dataset.x_train.steps(),
                         dataset.x_train.sensors()})});
  entries.push_back({"y_train.npy", npy_from_labels(dataset.y_train)});
  entries.push_back(
      {"model_train.npy", npy_from_strings(dataset.model_train)});
  entries.push_back(
      {"X_test.npy",
       npy_from_doubles(dataset.x_test.raw(),
                        {dataset.x_test.trials(), dataset.x_test.steps(),
                         dataset.x_test.sensors()})});
  entries.push_back({"y_test.npy", npy_from_labels(dataset.y_test)});
  entries.push_back({"model_test.npy", npy_from_strings(dataset.model_test)});

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  write_zip(os, entries);
  std::uint64_t payload = 0;
  for (const ZipEntry& e : entries) payload += e.bytes.size();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_npz_writes_total").inc();
  reg.counter("scwc_data_npz_bytes_written_total").inc(payload);
}

}  // namespace scwc::data
