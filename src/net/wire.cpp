#include "net/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace scwc::net {

namespace {

// ------------------------------------------------------------- primitives

// On a little-endian host the in-memory bytes of an integer or double ARE
// its wire bytes, so both codec directions move them with memcpy; the
// byte loops are the portable big-endian fallback.
constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Length-prefixed string: u32 length + bytes.
constexpr std::size_t string_bytes(std::string_view s) { return 4 + s.size(); }

/// Append-only little-endian encoder. Callers pass the exact encoded size
/// so the buffer is allocated once.
class Writer {
 public:
  explicit Writer(std::size_t size) { buf_.reserve(size); }
  /// Appends to `prefix` (already reserved by the caller).
  explicit Writer(std::string&& prefix) : buf_(std::move(prefix)) {}

  void u8(std::uint8_t v) { buf_ += static_cast<char>(v); }
  void u16(std::uint16_t v) { raw(v); }
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i64(std::int64_t v) { raw(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { raw(static_cast<std::uint32_t>(v)); }
  void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }

  void string(std::string_view s) {
    SCWC_REQUIRE(s.size() <= kMaxStringBytes,
                 "wire encode: string exceeds kMaxStringBytes");
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  void bytes(std::string_view s) { buf_.append(s.data(), s.size()); }

  void f64_span(std::span<const double> values) {
    u32(static_cast<std::uint32_t>(values.size()));
    if constexpr (kLittleEndianHost) {
      buf_.append(reinterpret_cast<const char*>(values.data()),
                  values.size() * sizeof(double));
    } else {
      for (const double v : values) f64(v);
    }
  }

  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void raw(T v) {
    if constexpr (kLittleEndianHost) {
      buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_ += static_cast<char>((v >> (8 * i)) & 0xffU);
      }
    }
  }

  std::string buf_;
};

/// Bounds-checked little-endian decoder; every overrun throws scwc::Error.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string string() {
    const std::uint32_t n = u32();
    SCWC_REQUIRE(n <= kMaxStringBytes,
                 "wire decode: string length exceeds cap");
    const std::string_view s = take(n);
    return std::string(s);
  }

  /// Raw trailing bytes of known length (SwapChunk payload body).
  std::string bytes(std::size_t n) { return std::string(take(n)); }

  std::vector<double> f64_span(std::size_t cap) {
    const std::uint32_t n = u32();
    SCWC_REQUIRE(n <= cap, "wire decode: value array exceeds cap");
    SCWC_REQUIRE(remaining() >= static_cast<std::size_t>(n) * 8,
                 "wire decode: truncated value array");
    std::vector<double> out(n);
    if constexpr (kLittleEndianHost) {
      const std::string_view s = take(out.size() * sizeof(double));
      if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
    } else {
      for (double& v : out) v = f64();
    }
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  /// Every decode_* ends with this: trailing bytes mean a framing bug (or
  /// corruption the CRC did not catch), never something to ignore.
  void expect_end() const {
    SCWC_REQUIRE(remaining() == 0, "wire decode: trailing bytes in payload");
  }

 private:
  std::string_view take(std::size_t n) {
    SCWC_REQUIRE(remaining() >= n, "wire decode: truncated payload");
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

  std::string_view data_;
  std::size_t pos_ = 0;
};

bool known_frame_type(std::uint16_t t) noexcept {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kSubmitWindow:
    case FrameType::kVerdict:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kSwapBegin:
    case FrameType::kSwapChunk:
    case FrameType::kSwapCommit:
    case FrameType::kSwapAck:
    case FrameType::kSwapAbort:
    case FrameType::kShutdown:
    case FrameType::kError:
    case FrameType::kMetricsScrape:
    case FrameType::kMetricsReply:
      return true;
  }
  return false;  // unassigned, or retired (4, 13, 14)
}

}  // namespace

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kSubmitWindow: return "submit_window";
    case FrameType::kVerdict: return "verdict";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kSwapBegin: return "swap_begin";
    case FrameType::kSwapChunk: return "swap_chunk";
    case FrameType::kSwapCommit: return "swap_commit";
    case FrameType::kSwapAck: return "swap_ack";
    case FrameType::kSwapAbort: return "swap_abort";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kError: return "error";
    case FrameType::kMetricsScrape: return "metrics_scrape";
    case FrameType::kMetricsReply: return "metrics_reply";
  }
  return "?";
}

void append_frame(std::string& out, FrameType type, std::string_view payload) {
  SCWC_REQUIRE(payload.size() <= kMaxPayloadBytes,
               "wire encode: payload exceeds kMaxPayloadBytes");
  out.reserve(out.size() + kHeaderBytes + payload.size());
  Writer w(std::move(out));
  w.u64(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  w.u32(0);  // reserved
  w.bytes(payload);
  out = w.take();
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  append_frame(out, type, payload);
  return out;
}

FrameHeader decode_header(std::string_view header) {
  SCWC_REQUIRE(header.size() == kHeaderBytes,
               "wire decode: header must be exactly 24 bytes");
  Reader r(header);
  SCWC_REQUIRE(r.u64() == kWireMagic, "wire decode: bad magic");
  SCWC_REQUIRE(r.u16() == kWireVersion,
               "wire decode: unsupported protocol version");
  const std::uint16_t type = r.u16();
  SCWC_REQUIRE(known_frame_type(type), "wire decode: unknown frame type");
  FrameHeader h;
  h.type = static_cast<FrameType>(type);
  h.payload_len = r.u32();
  SCWC_REQUIRE(h.payload_len <= kMaxPayloadBytes,
               "wire decode: payload length exceeds cap");
  h.payload_crc = r.u32();
  SCWC_REQUIRE(r.u32() == 0, "wire decode: nonzero reserved word");
  return h;
}

Frame assemble_frame(const FrameHeader& header, std::string payload) {
  SCWC_REQUIRE(payload.size() == header.payload_len,
               "wire decode: payload length mismatch");
  SCWC_REQUIRE(crc32(payload) == header.payload_crc,
               "wire decode: payload CRC mismatch");
  return Frame{header.type, std::move(payload)};
}

Frame decode_frame(std::string_view bytes) {
  SCWC_REQUIRE(bytes.size() >= kHeaderBytes, "wire decode: truncated header");
  const FrameHeader h = decode_header(bytes.substr(0, kHeaderBytes));
  SCWC_REQUIRE(bytes.size() == kHeaderBytes + h.payload_len,
               "wire decode: frame length mismatch");
  return assemble_frame(h, std::string(bytes.substr(kHeaderBytes)));
}

// --------------------------------------------------------------- per-type

std::string encode_hello(const HelloFrame& f) {
  Writer w(3 * 4 + string_bytes(f.model_version));
  w.u32(f.shard_id);
  w.u32(f.window_steps);
  w.u32(f.sensors);
  w.string(f.model_version);
  return w.take();
}

HelloFrame decode_hello(std::string_view payload) {
  Reader r(payload);
  HelloFrame f;
  f.shard_id = r.u32();
  f.window_steps = r.u32();
  f.sensors = r.u32();
  SCWC_REQUIRE(f.window_steps <= kMaxWindowValues && f.sensors <= kMaxSensors,
               "wire decode: hello geometry exceeds caps");
  f.model_version = r.string();
  r.expect_end();
  return f;
}

std::string encode_submit_window(const SubmitWindowFrame& f) {
  SCWC_REQUIRE(f.values.size() <= kMaxWindowValues,
               "wire encode: window exceeds kMaxWindowValues");
  Writer w(3 * 8 + 2 * 4 + 4 + f.values.size() * 8 + 8 + 1);
  w.u64(f.request_id);
  w.i64(f.job_id);
  w.u64(f.deadline_ns);
  w.u32(f.steps);
  w.u32(f.sensors);
  w.f64_span(f.values);
  w.u64(f.trace_id);
  w.u8(f.trace_sampled ? 1 : 0);
  return w.take();
}

SubmitWindowFrame decode_submit_window(std::string_view payload) {
  Reader r(payload);
  SubmitWindowFrame f;
  f.request_id = r.u64();
  f.job_id = r.i64();
  f.deadline_ns = r.u64();
  f.steps = r.u32();
  f.sensors = r.u32();
  SCWC_REQUIRE(f.sensors <= kMaxSensors,
               "wire decode: sensor count exceeds cap");
  SCWC_REQUIRE(static_cast<std::uint64_t>(f.steps) * f.sensors <=
                   kMaxWindowValues,
               "wire decode: window geometry exceeds cap");
  f.values = r.f64_span(kMaxWindowValues);
  SCWC_REQUIRE(f.values.size() ==
                   static_cast<std::size_t>(f.steps) * f.sensors,
               "wire decode: window value count != steps*sensors");
  f.trace_id = r.u64();
  const std::uint8_t sampled = r.u8();
  SCWC_REQUIRE(sampled <= 1, "wire decode: trace sampled not boolean");
  f.trace_sampled = sampled != 0;
  r.expect_end();
  return f;
}

std::string encode_verdict(const VerdictFrame& f) {
  Writer w(3 * 8 + 5 * 1 + 2 * 4 + 2 * 8 + 2 * 4 +
           string_bytes(f.model_version) + 3 * 8);
  w.u64(f.request_id);
  w.u64(f.trace_id);
  w.i64(f.job_id);
  w.u8(f.accepted ? 1 : 0);
  w.u8(f.reject_reason);
  w.u8(f.degrade_level);
  w.u8(f.abstained ? 1 : 0);
  w.u8(f.abstain_reason);
  w.i32(f.label);
  w.u32(f.batch_size);
  w.f64(f.quality);
  w.f64(f.worker_latency_s);
  w.u32(f.missing_values);
  w.u32(f.repaired_values);
  w.string(f.model_version);
  w.f64(f.worker_queue_s);
  w.f64(f.worker_transform_s);
  w.f64(f.worker_predict_s);
  return w.take();
}

VerdictFrame decode_verdict(std::string_view payload) {
  Reader r(payload);
  VerdictFrame f;
  f.request_id = r.u64();
  f.trace_id = r.u64();
  f.job_id = r.i64();
  const std::uint8_t accepted = r.u8();
  SCWC_REQUIRE(accepted <= 1, "wire decode: verdict accepted not boolean");
  f.accepted = accepted != 0;
  f.reject_reason = r.u8();
  SCWC_REQUIRE(f.reject_reason <= 7, "wire decode: unknown reject reason");
  f.degrade_level = r.u8();
  SCWC_REQUIRE(f.degrade_level <= 2, "wire decode: unknown degrade level");
  const std::uint8_t abstained = r.u8();
  SCWC_REQUIRE(abstained <= 1, "wire decode: verdict abstained not boolean");
  f.abstained = abstained != 0;
  f.abstain_reason = r.u8();
  SCWC_REQUIRE(f.abstain_reason <= 4, "wire decode: unknown abstain reason");
  f.label = r.i32();
  f.batch_size = r.u32();
  f.quality = r.f64();
  SCWC_REQUIRE(std::isfinite(f.quality) && f.quality >= 0.0 &&
                   f.quality <= 1.0,
               "wire decode: verdict quality out of [0,1]");
  f.worker_latency_s = r.f64();
  SCWC_REQUIRE(std::isfinite(f.worker_latency_s) && f.worker_latency_s >= 0.0,
               "wire decode: negative/non-finite worker latency");
  f.missing_values = r.u32();
  f.repaired_values = r.u32();
  f.model_version = r.string();
  f.worker_queue_s = r.f64();
  f.worker_transform_s = r.f64();
  f.worker_predict_s = r.f64();
  SCWC_REQUIRE(std::isfinite(f.worker_queue_s) && f.worker_queue_s >= 0.0 &&
                   std::isfinite(f.worker_transform_s) &&
                   f.worker_transform_s >= 0.0 &&
                   std::isfinite(f.worker_predict_s) &&
                   f.worker_predict_s >= 0.0,
               "wire decode: negative/non-finite worker phase");
  r.expect_end();
  return f;
}

std::string encode_ping(const PingFrame& f) {
  Writer w(8);
  w.u64(f.nonce);
  return w.take();
}

PingFrame decode_ping(std::string_view payload) {
  Reader r(payload);
  PingFrame f;
  f.nonce = r.u64();
  r.expect_end();
  return f;
}

std::string encode_pong(const PongFrame& f) {
  Writer w(2 * 8);
  w.u64(f.nonce);
  w.u64(f.t_mono_ns);
  return w.take();
}

PongFrame decode_pong(std::string_view payload) {
  Reader r(payload);
  PongFrame f;
  f.nonce = r.u64();
  f.t_mono_ns = r.u64();
  r.expect_end();
  return f;
}

std::string encode_swap_begin(const SwapBeginFrame& f) {
  SCWC_REQUIRE(f.total_bytes <= kMaxSwapBytes,
               "wire encode: bundle exceeds kMaxSwapBytes");
  Writer w(string_bytes(f.version) + 8);
  w.string(f.version);
  w.u64(f.total_bytes);
  return w.take();
}

SwapBeginFrame decode_swap_begin(std::string_view payload) {
  Reader r(payload);
  SwapBeginFrame f;
  f.version = r.string();
  f.total_bytes = r.u64();
  SCWC_REQUIRE(f.total_bytes <= kMaxSwapBytes,
               "wire decode: bundle size exceeds cap");
  r.expect_end();
  return f;
}

std::string encode_swap_chunk(const SwapChunkFrame& f) {
  SCWC_REQUIRE(f.bytes.size() <= kMaxSwapChunkBytes,
               "wire encode: swap chunk exceeds cap");
  Writer w(8 + 4 + f.bytes.size());
  w.u64(f.offset);
  w.u32(static_cast<std::uint32_t>(f.bytes.size()));
  w.bytes(f.bytes);
  return w.take();
}

SwapChunkFrame decode_swap_chunk(std::string_view payload) {
  Reader r(payload);
  SwapChunkFrame f;
  f.offset = r.u64();
  const std::uint32_t n = r.u32();
  SCWC_REQUIRE(n <= kMaxSwapChunkBytes, "wire decode: swap chunk exceeds cap");
  SCWC_REQUIRE(f.offset <= kMaxSwapBytes - n,
               "wire decode: swap chunk offset exceeds cap");
  f.bytes = r.bytes(n);
  r.expect_end();
  return f;
}

std::string encode_swap_commit(const SwapCommitFrame& f) {
  Writer w(4);
  w.u32(f.crc32);
  return w.take();
}

SwapCommitFrame decode_swap_commit(std::string_view payload) {
  Reader r(payload);
  SwapCommitFrame f;
  f.crc32 = r.u32();
  r.expect_end();
  return f;
}

std::string encode_swap_ack(const SwapAckFrame& f) {
  Writer w(1 + string_bytes(f.active_version) + string_bytes(f.message));
  w.u8(f.ok ? 1 : 0);
  w.string(f.active_version);
  w.string(f.message);
  return w.take();
}

SwapAckFrame decode_swap_ack(std::string_view payload) {
  Reader r(payload);
  SwapAckFrame f;
  const std::uint8_t ok = r.u8();
  SCWC_REQUIRE(ok <= 1, "wire decode: swap ack ok not boolean");
  f.ok = ok != 0;
  f.active_version = r.string();
  f.message = r.string();
  r.expect_end();
  return f;
}

std::string encode_swap_abort(const SwapAbortFrame& f) {
  Writer w(string_bytes(f.reason));
  w.string(f.reason);
  return w.take();
}

SwapAbortFrame decode_swap_abort(std::string_view payload) {
  Reader r(payload);
  SwapAbortFrame f;
  f.reason = r.string();
  r.expect_end();
  return f;
}

std::string encode_error(const ErrorFrame& f) {
  Writer w(2 + string_bytes(f.message));
  w.u16(f.code);
  w.string(f.message);
  return w.take();
}

ErrorFrame decode_error(std::string_view payload) {
  Reader r(payload);
  ErrorFrame f;
  f.code = r.u16();
  f.message = r.string();
  r.expect_end();
  return f;
}

std::string encode_metrics_reply(const MetricsReplyFrame& f) {
  SCWC_REQUIRE(f.counters.size() <= kMaxMetricsEntries &&
                   f.gauges.size() <= kMaxMetricsEntries &&
                   f.rolling.size() <= kMaxMetricsEntries,
               "wire encode: metrics reply exceeds kMaxMetricsEntries");
  std::size_t size = 3 * 4;
  for (const auto& [name, value] : f.counters) size += string_bytes(name) + 8;
  for (const auto& [name, value] : f.gauges) size += string_bytes(name) + 8;
  for (const MetricsRollingEntry& e : f.rolling) {
    size += string_bytes(e.name) + 4 * 8;
  }
  Writer w(size);
  w.u32(static_cast<std::uint32_t>(f.counters.size()));
  for (const auto& [name, value] : f.counters) {
    w.string(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(f.gauges.size()));
  for (const auto& [name, value] : f.gauges) {
    w.string(name);
    w.f64(value);
  }
  w.u32(static_cast<std::uint32_t>(f.rolling.size()));
  for (const MetricsRollingEntry& e : f.rolling) {
    w.string(e.name);
    w.u64(e.count);
    w.f64(e.p50);
    w.f64(e.p90);
    w.f64(e.p99);
  }
  return w.take();
}

MetricsReplyFrame decode_metrics_reply(std::string_view payload) {
  Reader r(payload);
  MetricsReplyFrame f;
  const std::uint32_t n_counters = r.u32();
  SCWC_REQUIRE(n_counters <= kMaxMetricsEntries,
               "wire decode: metrics counters exceed cap");
  f.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    std::string name = r.string();
    const std::uint64_t value = r.u64();
    f.counters.emplace_back(std::move(name), value);
  }
  const std::uint32_t n_gauges = r.u32();
  SCWC_REQUIRE(n_gauges <= kMaxMetricsEntries,
               "wire decode: metrics gauges exceed cap");
  f.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    std::string name = r.string();
    const double value = r.f64();  // NaN travels intact, like windows
    f.gauges.emplace_back(std::move(name), value);
  }
  const std::uint32_t n_rolling = r.u32();
  SCWC_REQUIRE(n_rolling <= kMaxMetricsEntries,
               "wire decode: metrics rolling entries exceed cap");
  f.rolling.reserve(n_rolling);
  for (std::uint32_t i = 0; i < n_rolling; ++i) {
    MetricsRollingEntry e;
    e.name = r.string();
    e.count = r.u64();
    e.p50 = r.f64();
    e.p90 = r.f64();
    e.p99 = r.f64();
    SCWC_REQUIRE(std::isfinite(e.p50) && e.p50 >= 0.0 &&
                     std::isfinite(e.p90) && e.p90 >= 0.0 &&
                     std::isfinite(e.p99) && e.p99 >= 0.0,
                 "wire decode: negative/non-finite rolling quantile");
    f.rolling.push_back(std::move(e));
  }
  r.expect_end();
  return f;
}

}  // namespace scwc::net
