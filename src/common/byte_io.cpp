#include "common/byte_io.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace scwc {

ByteWriter::ByteWriter(std::ostream& os) : os_(&os) {
  buf_.reserve(kStreamBufferBytes);
}

void ByteWriter::f64s(std::span<const double> values) {
  if constexpr (kLittleEndianHost) {
    put(values.data(), values.size() * sizeof(double));
  } else {
    for (const double v : values) f64(v);
  }
}

void ByteWriter::spill(const void* data, std::size_t n) {
  os_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  flushed_ += buf_.size();
  buf_.clear();
  if (n < kStreamBufferBytes) {
    buf_.append(static_cast<const char*>(data), n);
    return;
  }
  // A bulk array goes straight to the stream, not through the buffer.
  os_->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  flushed_ += n;
}

void ByteWriter::flush() {
  if (os_ == nullptr) return;
  spill(nullptr, 0);  // writes out the buffer
  os_->flush();
  SCWC_REQUIRE(os_->good(), "byte writer: stream write failed before byte " +
                                std::to_string(flushed_));
}

ByteReader::ByteReader(std::istream& is, std::string_view context)
    : sized_(false), context_(context), is_(&is) {
  const std::istream::pos_type start = is.tellg();
  if (start == std::istream::pos_type(-1)) {
    is.clear();  // a pipe: read to end of input, length unknown
    return;
  }
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(start);
  require(is.good() && end >= start, "stream is not seekable");
  size_ = static_cast<std::uint64_t>(end - start);
  sized_ = true;
}

template <typename Buffer>
void ByteReader::read_values(Buffer& out, std::size_t n, std::size_t width) {
  if (sized_ && (size_ - offset()) / width < n) truncated();
  const std::size_t chunk = kStreamBufferBytes / width;
  out.reserve(sized_ ? n : std::min(n, chunk));
  while (out.size() < n) {
    const std::size_t done = out.size();
    const std::size_t k = std::min(chunk, n - done);
    out.resize(done + k);
    read(reinterpret_cast<char*>(out.data() + done), k * width);
  }
}

std::string ByteReader::bytes(std::size_t n) {
  std::string out;
  read_values(out, n, 1);
  return out;
}

std::vector<double> ByteReader::f64s(std::size_t n) {
  std::vector<double> out;
  read_values(out, n, sizeof(double));
  if constexpr (!kLittleEndianHost) {
    for (double& v : out) {
      auto bits = std::bit_cast<std::array<unsigned char, 8>>(v);
      std::reverse(bits.begin(), bits.end());
      v = std::bit_cast<double>(bits);
    }
  }
  return out;
}

void ByteReader::read(char* dst, std::size_t n) {
  for (;;) {
    const std::size_t k = std::min(n, data_.size() - pos_);
    if (k > 0) std::memcpy(dst, data_.data() + pos_, k);
    pos_ += k;
    dst += k;
    n -= k;
    if (n == 0) return;
    if (!refill()) truncated();
  }
}

bool ByteReader::refill() {
  if (is_ == nullptr) return false;
  buf_.erase(0, pos_);
  base_ += pos_;
  pos_ = 0;
  const std::size_t kept = buf_.size();
  // Never past the length measured at the start, so offset() ≤ size_ even
  // if the file grows while it is read.
  std::size_t want = kStreamBufferBytes - kept;
  if (sized_) {
    want = static_cast<std::size_t>(
        std::min<std::uint64_t>(want, size_ - base_ - kept));
  }
  buf_.resize(kept + want);
  is_->read(buf_.data() + kept, static_cast<std::streamsize>(want));
  buf_.resize(kept + static_cast<std::size_t>(is_->gcount()));
  data_ = buf_;
  return buf_.size() > kept;
}

void ByteReader::truncated() {
  // Unsized, a truncation is only found once refill() came back empty, so
  // the input ends after the bytes still buffered.
  base_ = sized_ ? size_ : base_ + data_.size();
  data_ = {};
  pos_ = 0;
  fail("truncated input");
}

void ByteReader::expect_end() {
  if (pos_ < data_.size() || refill()) fail("trailing bytes");
}

void ByteReader::fail(std::string_view what) const {
  SCWC_FAIL(std::string(context_) + ": " + std::string(what) +
            " at byte offset " + std::to_string(offset()));
}

}  // namespace scwc
