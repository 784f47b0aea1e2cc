#include "net/wire.hpp"

#include <cmath>

#include "common/byte_io.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace scwc::net {

namespace {

// Every decode error reads "wire decode: <what> at byte offset <N>".
constexpr std::string_view kDecode = "wire decode";

/// Length-prefixed string: u32 length + bytes.
constexpr std::size_t string_bytes(std::string_view s) { return 4 + s.size(); }

void write_string(ByteWriter& w, std::string_view s) {
  SCWC_REQUIRE(s.size() <= kMaxStringBytes,
               "wire encode: string exceeds kMaxStringBytes");
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s);
}

std::string read_string(ByteReader& r) {
  const std::uint32_t n = r.u32();
  r.require(n <= kMaxStringBytes, "string length exceeds cap");
  return r.bytes(n);
}

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

void write_header(ByteWriter& w, FrameType type, std::size_t payload_len,
                  std::uint32_t payload_crc) {
  SCWC_REQUIRE(payload_len <= kMaxPayloadBytes,
               "wire encode: payload exceeds kMaxPayloadBytes");
  w.u64(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload_len));
  w.u32(payload_crc);
  w.u32(0);  // reserved
}

/// Payload bytes of a SubmitWindow of `values` values, checked against the
/// cap before any buffer is sized from it.
std::size_t submit_window_bytes(std::size_t values) {
  SCWC_REQUIRE(values <= kMaxWindowValues,
               "wire encode: window exceeds kMaxWindowValues");
  return 3 * 8 + 2 * 4 + 4 + values * 8 + 8 + 1;
}

/// The SubmitWindow payload of a SubmitWindowFrame or a SubmitWindowView.
template <typename Submit>
void write_submit_window(ByteWriter& w, const Submit& f) {
  w.u64(f.request_id);
  w.i64(f.job_id);
  w.u64(f.deadline_ns);
  w.u32(f.steps);
  w.u32(f.sensors);
  w.u32(static_cast<std::uint32_t>(f.values.size()));
  w.f64s(f.values);
  w.u64(f.trace_id);
  w.u8(f.trace_sampled ? 1 : 0);
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
  out.reserve(out.size() + kHeaderBytes + payload.size());
  ByteWriter w(std::move(out));
  write_header(w, type, payload.size(), crc32(payload));
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
  ByteReader r(header, kDecode);
  r.require(r.u64() == kWireMagic, "bad magic");
  r.require(r.u16() == kWireVersion, "unsupported protocol version");
  const std::uint16_t type = r.u16();
  r.require(known_frame_type(type), "unknown frame type");
  FrameHeader h;
  h.type = static_cast<FrameType>(type);
  h.payload_len = r.u32();
  r.require(h.payload_len <= kMaxPayloadBytes, "payload length exceeds cap");
  h.payload_crc = r.u32();
  r.require(r.u32() == 0, "nonzero reserved word");
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
  ByteWriter w(3 * 4 + string_bytes(f.model_version));
  w.u32(f.shard_id);
  w.u32(f.window_steps);
  w.u32(f.sensors);
  write_string(w, f.model_version);
  return w.take();
}

HelloFrame decode_hello(std::string_view payload) {
  ByteReader r(payload, kDecode);
  HelloFrame f;
  f.shard_id = r.u32();
  f.window_steps = r.u32();
  f.sensors = r.u32();
  r.require(f.window_steps <= kMaxWindowValues && f.sensors <= kMaxSensors,
            "hello geometry exceeds caps");
  f.model_version = read_string(r);
  r.expect_end();
  return f;
}

std::string encode_submit_window(const SubmitWindowFrame& f) {
  ByteWriter w(submit_window_bytes(f.values.size()));
  write_submit_window(w, f);
  return w.take();
}

std::string encode_submit_window_frame(const SubmitWindowView& f) {
  const std::size_t payload_len = submit_window_bytes(f.values.size());
  ByteWriter w(kHeaderBytes + payload_len);
  write_header(w, FrameType::kSubmitWindow, payload_len, 0);
  write_submit_window(w, f);
  std::string out = w.take();
  // The header's CRC word (bytes 16..19, little-endian) is filled in once
  // the payload sits behind the header.
  const std::uint32_t crc = crc32(out.data() + kHeaderBytes, payload_len);
  for (std::size_t i = 0; i < 4; ++i) {
    out[16 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFU);
  }
  return out;
}

SubmitWindowFrame decode_submit_window(std::string_view payload) {
  ByteReader r(payload, kDecode);
  SubmitWindowFrame f;
  f.request_id = r.u64();
  f.job_id = r.i64();
  f.deadline_ns = r.u64();
  f.steps = r.u32();
  f.sensors = r.u32();
  r.require(f.sensors <= kMaxSensors, "sensor count exceeds cap");
  r.require(static_cast<std::uint64_t>(f.steps) * f.sensors <=
                kMaxWindowValues,
            "window geometry exceeds cap");
  const std::uint32_t n = r.u32();
  r.require(n == static_cast<std::uint64_t>(f.steps) * f.sensors,
            "window value count != steps*sensors");
  f.values = r.f64s(n);
  f.trace_id = r.u64();
  const std::uint8_t sampled = r.u8();
  r.require(sampled <= 1, "trace sampled not boolean");
  f.trace_sampled = sampled != 0;
  r.expect_end();
  return f;
}

std::string encode_verdict(const VerdictFrame& f) {
  ByteWriter w(3 * 8 + 5 * 1 + 2 * 4 + 2 * 8 + 2 * 4 +
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
  write_string(w, f.model_version);
  w.f64(f.worker_queue_s);
  w.f64(f.worker_transform_s);
  w.f64(f.worker_predict_s);
  return w.take();
}

VerdictFrame decode_verdict(std::string_view payload) {
  ByteReader r(payload, kDecode);
  VerdictFrame f;
  f.request_id = r.u64();
  f.trace_id = r.u64();
  f.job_id = r.i64();
  const std::uint8_t accepted = r.u8();
  r.require(accepted <= 1, "verdict accepted not boolean");
  f.accepted = accepted != 0;
  f.reject_reason = r.u8();
  r.require(f.reject_reason <= 7, "unknown reject reason");
  f.degrade_level = r.u8();
  r.require(f.degrade_level <= 2, "unknown degrade level");
  const std::uint8_t abstained = r.u8();
  r.require(abstained <= 1, "verdict abstained not boolean");
  f.abstained = abstained != 0;
  f.abstain_reason = r.u8();
  r.require(f.abstain_reason <= 4, "unknown abstain reason");
  f.label = r.i32();
  f.batch_size = r.u32();
  f.quality = r.f64();
  r.require(std::isfinite(f.quality) && f.quality >= 0.0 &&
                f.quality <= 1.0,
            "verdict quality out of [0,1]");
  f.worker_latency_s = r.f64();
  r.require(std::isfinite(f.worker_latency_s) && f.worker_latency_s >= 0.0,
            "negative/non-finite worker latency");
  f.missing_values = r.u32();
  f.repaired_values = r.u32();
  f.model_version = read_string(r);
  f.worker_queue_s = r.f64();
  f.worker_transform_s = r.f64();
  f.worker_predict_s = r.f64();
  r.require(std::isfinite(f.worker_queue_s) && f.worker_queue_s >= 0.0 &&
                std::isfinite(f.worker_transform_s) &&
                f.worker_transform_s >= 0.0 &&
                std::isfinite(f.worker_predict_s) &&
                f.worker_predict_s >= 0.0,
            "negative/non-finite worker phase");
  r.expect_end();
  return f;
}

std::string encode_ping(const PingFrame& f) {
  ByteWriter w(8);
  w.u64(f.nonce);
  return w.take();
}

PingFrame decode_ping(std::string_view payload) {
  ByteReader r(payload, kDecode);
  PingFrame f;
  f.nonce = r.u64();
  r.expect_end();
  return f;
}

std::string encode_pong(const PongFrame& f) {
  ByteWriter w(2 * 8);
  w.u64(f.nonce);
  w.u64(f.t_mono_ns);
  return w.take();
}

PongFrame decode_pong(std::string_view payload) {
  ByteReader r(payload, kDecode);
  PongFrame f;
  f.nonce = r.u64();
  f.t_mono_ns = r.u64();
  r.expect_end();
  return f;
}

std::string encode_swap_begin(const SwapBeginFrame& f) {
  SCWC_REQUIRE(f.total_bytes <= kMaxSwapBytes,
               "wire encode: bundle exceeds kMaxSwapBytes");
  ByteWriter w(string_bytes(f.version) + 8);
  write_string(w, f.version);
  w.u64(f.total_bytes);
  return w.take();
}

SwapBeginFrame decode_swap_begin(std::string_view payload) {
  ByteReader r(payload, kDecode);
  SwapBeginFrame f;
  f.version = read_string(r);
  f.total_bytes = r.u64();
  r.require(f.total_bytes <= kMaxSwapBytes, "bundle size exceeds cap");
  r.expect_end();
  return f;
}

std::string encode_swap_chunk(const SwapChunkFrame& f) {
  SCWC_REQUIRE(f.bytes.size() <= kMaxSwapChunkBytes,
               "wire encode: swap chunk exceeds cap");
  ByteWriter w(8 + 4 + f.bytes.size());
  w.u64(f.offset);
  w.u32(static_cast<std::uint32_t>(f.bytes.size()));
  w.bytes(f.bytes);
  return w.take();
}

SwapChunkFrame decode_swap_chunk(std::string_view payload) {
  ByteReader r(payload, kDecode);
  SwapChunkFrame f;
  f.offset = r.u64();
  const std::uint32_t n = r.u32();
  r.require(n <= kMaxSwapChunkBytes, "swap chunk exceeds cap");
  r.require(f.offset <= kMaxSwapBytes - n, "swap chunk offset exceeds cap");
  f.bytes = r.bytes(n);
  r.expect_end();
  return f;
}

std::string encode_swap_commit(const SwapCommitFrame& f) {
  ByteWriter w(4);
  w.u32(f.crc32);
  return w.take();
}

SwapCommitFrame decode_swap_commit(std::string_view payload) {
  ByteReader r(payload, kDecode);
  SwapCommitFrame f;
  f.crc32 = r.u32();
  r.expect_end();
  return f;
}

std::string encode_swap_ack(const SwapAckFrame& f) {
  ByteWriter w(1 + string_bytes(f.active_version) + string_bytes(f.message));
  w.u8(f.ok ? 1 : 0);
  write_string(w, f.active_version);
  write_string(w, f.message);
  return w.take();
}

SwapAckFrame decode_swap_ack(std::string_view payload) {
  ByteReader r(payload, kDecode);
  SwapAckFrame f;
  const std::uint8_t ok = r.u8();
  r.require(ok <= 1, "swap ack ok not boolean");
  f.ok = ok != 0;
  f.active_version = read_string(r);
  f.message = read_string(r);
  r.expect_end();
  return f;
}

std::string encode_swap_abort(const SwapAbortFrame& f) {
  ByteWriter w(string_bytes(f.reason));
  write_string(w, f.reason);
  return w.take();
}

SwapAbortFrame decode_swap_abort(std::string_view payload) {
  ByteReader r(payload, kDecode);
  SwapAbortFrame f;
  f.reason = read_string(r);
  r.expect_end();
  return f;
}

std::string encode_error(const ErrorFrame& f) {
  ByteWriter w(2 + string_bytes(f.message));
  w.u16(f.code);
  write_string(w, f.message);
  return w.take();
}

ErrorFrame decode_error(std::string_view payload) {
  ByteReader r(payload, kDecode);
  ErrorFrame f;
  f.code = r.u16();
  f.message = read_string(r);
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
  ByteWriter w(size);
  w.u32(static_cast<std::uint32_t>(f.counters.size()));
  for (const auto& [name, value] : f.counters) {
    write_string(w, name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(f.gauges.size()));
  for (const auto& [name, value] : f.gauges) {
    write_string(w, name);
    w.f64(value);
  }
  w.u32(static_cast<std::uint32_t>(f.rolling.size()));
  for (const MetricsRollingEntry& e : f.rolling) {
    write_string(w, e.name);
    w.u64(e.count);
    w.f64(e.p50);
    w.f64(e.p90);
    w.f64(e.p99);
  }
  return w.take();
}

MetricsReplyFrame decode_metrics_reply(std::string_view payload) {
  ByteReader r(payload, kDecode);
  MetricsReplyFrame f;
  const std::uint32_t n_counters = r.u32();
  r.require(n_counters <= kMaxMetricsEntries, "metrics counters exceed cap");
  f.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    std::string name = read_string(r);
    const std::uint64_t value = r.u64();
    f.counters.emplace_back(std::move(name), value);
  }
  const std::uint32_t n_gauges = r.u32();
  r.require(n_gauges <= kMaxMetricsEntries, "metrics gauges exceed cap");
  f.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    std::string name = read_string(r);
    const double value = r.f64();  // NaN travels intact, like windows
    f.gauges.emplace_back(std::move(name), value);
  }
  const std::uint32_t n_rolling = r.u32();
  r.require(n_rolling <= kMaxMetricsEntries,
            "metrics rolling entries exceed cap");
  f.rolling.reserve(n_rolling);
  for (std::uint32_t i = 0; i < n_rolling; ++i) {
    MetricsRollingEntry e;
    e.name = read_string(r);
    e.count = r.u64();
    e.p50 = r.f64();
    e.p90 = r.f64();
    e.p99 = r.f64();
    r.require(std::isfinite(e.p50) && e.p50 >= 0.0 &&
                  std::isfinite(e.p90) && e.p90 >= 0.0 &&
                  std::isfinite(e.p99) && e.p99 >= 0.0,
              "negative/non-finite rolling quantile");
    f.rolling.push_back(std::move(e));
  }
  r.expect_end();
  return f;
}

}  // namespace scwc::net
