// The one little-endian byte codec of the tree. Every binary format reads
// and writes through it: SCWCWIRE frames (net/wire), SCWCBNDL model bundles
// (serve/bundle_io), SCWC_RF1 forests (ml/random_forest), .scb datasets
// (data/serialize) and the NPY/ZIP members of the .npz exporter (data/npz).
//
// Integers travel little-endian, doubles as their IEEE-754 bit patterns in
// the same byte order. On a little-endian host the bytes in memory already
// are the encoded bytes, so values and whole double arrays move with one
// memcpy; a big-endian host keeps a byte loop.
//
// A writer fills an in-memory buffer (a wire payload, a bundle pushed to a
// worker) or a stream through a buffer of at most kStreamBufferBytes (a
// file). A reader reads a byte view or a stream (a file, or a pipe) the
// same way, so a file is never held in memory whole.
//
// Every reader failure throws scwc::Error "<context>: <what> at byte offset
// <N>". The context names the format ("wire decode", "load_bundle",
// "model", "scb"); N counts the bytes consumed since the reader started,
// and a truncation reports the offset at which the input ends. Callers
// check each length field against its cap before asking for that many
// values. A byte view or a seekable stream has a known length (the reader
// seeks to the end once), so a bulk read fails before it allocates more
// than the input still holds, and otherwise allocates exactly once; from a
// pipe it grows as bytes arrive, to at most about twice the input.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace scwc {

/// Largest buffer a stream-backed writer or reader holds.
inline constexpr std::size_t kStreamBufferBytes = 1ULL << 16;

inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

/// Little-endian encoder over a memory buffer or a stream.
class ByteWriter {
 public:
  /// In-memory writer; pass the exact encoded size when it is known so the
  /// buffer is allocated once.
  explicit ByteWriter(std::size_t reserve = 0) { buf_.reserve(reserve); }
  /// In-memory writer appending to `prefix` (reserved by the caller).
  explicit ByteWriter(std::string&& prefix) : buf_(std::move(prefix)) {}
  /// Stream writer: bytes go out to `os` whenever the buffer fills, and
  /// the rest at flush().
  explicit ByteWriter(std::ostream& os);

  void u8(std::uint8_t v) { put(&v, 1); }
  void u16(std::uint16_t v) { raw(v); }
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i32(std::int32_t v) { raw(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { raw(static_cast<std::uint64_t>(v)); }
  void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }
  /// Raw bytes, no length prefix.
  void bytes(std::string_view s) { put(s.data(), s.size()); }
  /// Doubles back to back, no length prefix.
  void f64s(std::span<const double> values);

  /// Bytes written so far.
  [[nodiscard]] std::uint64_t offset() const noexcept {
    return flushed_ + buf_.size();
  }
  /// The encoded bytes of an in-memory writer.
  [[nodiscard]] std::string take() { return std::move(buf_); }
  /// Stream writer: writes out the buffered bytes and throws scwc::Error if
  /// the stream has failed. Call it once the last value is written; an
  /// in-memory writer ignores it.
  void flush();

 private:
  template <typename T>
  void raw(T v) {
    if constexpr (kLittleEndianHost) {
      put(&v, sizeof(T));
    } else {
      unsigned char le[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
      }
      put(le, sizeof(T));
    }
  }

  void put(const void* data, std::size_t n) {
    if (os_ != nullptr && buf_.size() + n > kStreamBufferBytes) {
      spill(data, n);
      return;
    }
    buf_.append(static_cast<const char*>(data), n);
  }
  void spill(const void* data, std::size_t n);

  std::string buf_;
  std::ostream* os_ = nullptr;
  std::uint64_t flushed_ = 0;  ///< bytes already handed to os_
};

/// Bounds-checked little-endian decoder over a byte view or a stream.
class ByteReader {
 public:
  /// Reads `bytes`, which must outlive the reader. `context` (a string
  /// literal) prefixes every error.
  ByteReader(std::string_view bytes, std::string_view context)
      : data_(bytes), size_(bytes.size()), context_(context) {}
  /// Reads the rest of `is` (a file, a pipe) through a buffer of at most
  /// kStreamBufferBytes; the stream may be read past the last value taken.
  ByteReader(std::istream& is, std::string_view context);
  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// `n` raw bytes; like f64s, fails before allocating when the input
  /// cannot hold them.
  [[nodiscard]] std::string bytes(std::size_t n);
  /// `n` doubles written by ByteWriter::f64s.
  [[nodiscard]] std::vector<double> f64s(std::size_t n);

  /// Bytes consumed so far.
  [[nodiscard]] std::uint64_t offset() const noexcept { return base_ + pos_; }
  /// Throws unless the input is exhausted: trailing bytes mean a framing
  /// bug or corruption, never something to skip.
  void expect_end();

  /// Throws scwc::Error "<context>: <what> at byte offset <offset()>".
  [[noreturn]] void fail(std::string_view what) const;
  void require(bool ok, std::string_view what) const {
    if (!ok) fail(what);
  }

 private:
  /// The next `n` (≤ 8) bytes, contiguous.
  std::string_view take(std::size_t n) {
    while (data_.size() - pos_ < n) {
      if (!refill()) truncated();
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  T raw() {
    const std::string_view s = take(sizeof(T));
    T v = 0;
    if constexpr (kLittleEndianHost) {
      std::memcpy(&v, s.data(), sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<unsigned char>(s[i])) << (8 * i);
      }
    }
    return v;
  }

  /// Reads `n` values of `width` bytes into `out`: reserved once when the
  /// input's length is known, else grown a stream buffer's worth at a time.
  template <typename Buffer>
  void read_values(Buffer& out, std::size_t n, std::size_t width);
  /// Copies the next `n` bytes to `dst`.
  void read(char* dst, std::size_t n);
  /// Stream reader: keeps the unread bytes and reads more behind them;
  /// false when nothing more arrived (always, for a byte view).
  bool refill();
  /// Fails as if the whole input had been consumed: a truncation names the
  /// offset where the input ends.
  [[noreturn]] void truncated();

  std::string_view data_;  ///< buffered input; data_[pos_] is next
  std::size_t pos_ = 0;
  std::uint64_t base_ = 0;  ///< offset of data_[0]
  std::uint64_t size_ = 0;  ///< length of the whole input, if sized_
  bool sized_ = true;       ///< false for a non-seekable stream
  std::string_view context_;
  std::istream* is_ = nullptr;
  std::string buf_;  ///< a stream reader's backing store for data_
};

}  // namespace scwc
