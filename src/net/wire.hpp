// SCWCWIRE v2 — the compact binary wire format of the sharded serving
// cluster (DESIGN.md §13).
//
// Every message on a router↔worker connection is one length-prefixed frame:
//
//   offset  size  field
//   0       8     magic   "SCWCWIRE" (0x5343574357495245, big-endian bytes,
//                         stored little-endian like every other integer)
//   8       2     version (must equal kWireVersion)
//   10      2     type    (FrameType)
//   12      4     payload_len  (≤ kMaxPayloadBytes)
//   16      4     crc32   (IEEE 802.3 polynomial, over the payload bytes)
//   20      4     reserved (must be 0)
//   24      n     payload (per-type encoding, all integers/doubles LE)
//
// Versioning: router and worker are built from the same tree, so there is
// exactly one protocol version. The header still carries it, and a frame
// whose version differs from kWireVersion is rejected with a typed error
// rather than half-parsed.
//
// Payloads are read and written through common/byte_io, the codec every
// binary format of the tree shares: every violated bound, bad enum, wrong
// magic or truncation throws a typed scwc::Error "wire decode: … at byte
// offset N" (never crashes, never allocates unbounded memory — all lengths
// are capped BEFORE allocation, which the wire fuzz test proves byte by
// byte). Strings and value arrays are length-prefixed with hard caps;
// doubles travel as IEEE-754 bit patterns.
//
// The codec layer here is pure (bytes in, structs out); the socket I/O
// lives in net/socket.* so the two concerns stay separately testable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace scwc::net {

inline constexpr std::uint64_t kWireMagic = 0x5343574357495245ULL;  // SCWCWIRE
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 24;

// Caps: what a corrupted or hostile peer can make the decoder allocate
// before a typed error fires. Dimensions match the serving geometry caps.
inline constexpr std::size_t kMaxPayloadBytes = 1ULL << 26;  // 64 MiB
inline constexpr std::size_t kMaxStringBytes = 1ULL << 12;
inline constexpr std::size_t kMaxSensors = 1ULL << 12;
inline constexpr std::size_t kMaxWindowValues = 1ULL << 22;
inline constexpr std::size_t kMaxSwapBytes = 1ULL << 28;  // 256 MiB bundle
inline constexpr std::size_t kMaxSwapChunkBytes = 1ULL << 20;
inline constexpr std::size_t kMaxMetricsEntries = 1ULL << 12;

/// Every message kind of SCWCWIRE. Values are wire-stable: new types
/// append, nothing renumbers. 4, 13 and 14 are retired (a streaming
/// telemetry row and a stats pull superseded by the metrics scrape) and
/// decode_header rejects them.
enum class FrameType : std::uint16_t {
  kHello = 1,         ///< worker → router, once per connection
  kSubmitWindow = 2,  ///< router → worker: one complete window
  kVerdict = 3,       ///< worker → router: the serve result
  kPing = 5,          ///< either direction; echoed as kPong
  kPong = 6,
  kSwapBegin = 7,     ///< router → worker: bundle push starts
  kSwapChunk = 8,     ///< router → worker: bundle bytes
  kSwapCommit = 9,    ///< router → worker: verify + activate
  kSwapAck = 10,      ///< worker → router: swap / abort outcome
  kSwapAbort = 11,    ///< router → worker: roll back the last swap
  kShutdown = 12,     ///< router → worker: drain and exit
  kError = 15,        ///< either direction: decode/protocol failure report
  kMetricsScrape = 16,  ///< router → worker: full metrics snapshot request
  kMetricsReply = 17,   ///< worker → router: condensed MetricsSnapshot
};

/// Stable lower-case name for logs ("hello", "submit_window", ...).
[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

/// One decoded frame: its type and the raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// ---------------------------------------------------------------- payloads

/// Worker self-identification, sent once when a connection opens.
struct HelloFrame {
  std::uint32_t shard_id = 0;
  std::uint32_t window_steps = 0;
  std::uint32_t sensors = 0;
  std::string model_version;  ///< active bundle, "" when none
};

/// One complete steps×sensors window for classification.
struct SubmitWindowFrame {
  std::uint64_t request_id = 0;  ///< router-chosen; echoed in the verdict
  std::int64_t job_id = 0;
  std::uint64_t deadline_ns = 0;  ///< relative budget; 0 = no deadline
  std::uint32_t steps = 0;
  std::uint32_t sensors = 0;
  std::vector<double> values;  ///< row-major steps×sensors
  // Trace context: the router-issued RequestTracer id the worker adopts so
  // its RequestPhases land under the same trace. 0 = no router trace.
  std::uint64_t trace_id = 0;
  bool trace_sampled = false;
};

/// The serve result for one window, mirroring serve::ServeResult closely
/// enough for the router to rebuild it (quality evidence included).
struct VerdictFrame {
  std::uint64_t request_id = 0;  ///< echoed from the submit
  std::uint64_t trace_id = 0;    ///< worker-side request trace id
  std::int64_t job_id = 0;
  bool accepted = false;
  std::uint8_t reject_reason = 0;  ///< serve::RejectReason
  std::uint8_t degrade_level = 0;
  bool abstained = false;
  std::uint8_t abstain_reason = 0;  ///< robust::AbstainReason
  std::int32_t label = -1;
  std::uint32_t batch_size = 0;
  double quality = 0.0;
  double worker_latency_s = 0.0;  ///< submit → verdict inside the worker
  std::uint32_t missing_values = 0;
  std::uint32_t repaired_values = 0;
  std::string model_version;
  // Worker phase breakdown (seconds): queue = admission + queue +
  // batch_wait inside the worker's service.
  double worker_queue_s = 0.0;
  double worker_transform_s = 0.0;
  double worker_predict_s = 0.0;
};

struct PingFrame {
  std::uint64_t nonce = 0;
};

/// A pong echoes the nonce and carries the responder's monotonic clock
/// (steady ns since its process start) for the NTP-style clock-offset
/// handshake.
struct PongFrame {
  std::uint64_t nonce = 0;
  std::uint64_t t_mono_ns = 0;
};

/// Announces a bundle push of `total_bytes` for `version`.
struct SwapBeginFrame {
  std::string version;
  std::uint64_t total_bytes = 0;
};

/// One contiguous slice of the bundle stream.
struct SwapChunkFrame {
  std::uint64_t offset = 0;
  std::string bytes;
};

/// Ends the push: the worker verifies the CRC over the assembled bytes,
/// loads the bundle and hot-swaps its registry (or refuses, untouched).
struct SwapCommitFrame {
  std::uint32_t crc32 = 0;
};

/// Outcome of a swap commit or abort on one shard.
struct SwapAckFrame {
  bool ok = false;
  std::string active_version;  ///< what the shard serves after the op
  std::string message;         ///< failure detail, "" on success
};

struct SwapAbortFrame {
  std::string reason;
};

struct ErrorFrame {
  std::uint16_t code = 0;
  std::string message;
};

/// One rolling-histogram summary inside a metrics reply: quantiles only —
/// the router re-exports them as labeled gauges, not full buckets.
struct MetricsRollingEntry {
  std::string name;
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Condensed obs::MetricsSnapshot pulled over the wire: counters and
/// gauges verbatim, rolling histograms as quantile summaries. Each list is
/// capped at kMaxMetricsEntries; names obey kMaxStringBytes. Gauge values
/// travel as raw IEEE-754 bits (NaN intact); rolling quantiles must be
/// finite and ≥ 0.
struct MetricsReplyFrame {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<MetricsRollingEntry> rolling;
};

// ------------------------------------------------------------------ codec

/// Frames `payload` under `type`: header (magic, kWireVersion, type,
/// length, CRC-32 of the payload — common/crc32.hpp) + payload, in one
/// allocation. Throws scwc::Error when payload exceeds the cap.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

/// encode_frame appended to `out`: several frames built into one buffer
/// leave in one write, and the reader sees the same byte stream as if
/// each had been written alone.
void append_frame(std::string& out, FrameType type, std::string_view payload);

/// Validated header of a frame still awaiting its payload bytes.
struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// Decodes and validates the 24-byte header: magic, version equal to
/// kWireVersion, known (non-retired) type, capped length, zero reserved
/// word. Throws scwc::Error on any violation.
[[nodiscard]] FrameHeader decode_header(std::string_view header);

/// Validates `payload` against `header` (length + CRC) and returns the
/// assembled frame. Throws scwc::Error on mismatch.
[[nodiscard]] Frame assemble_frame(const FrameHeader& header,
                                   std::string payload);

/// Decodes a whole in-memory frame (header + payload) — the test/fuzz
/// entry point; socket I/O uses decode_header/assemble_frame separately.
[[nodiscard]] Frame decode_frame(std::string_view bytes);

// Per-type payload codecs. Every decode_* throws scwc::Error on trailing
// bytes, truncation, out-of-cap lengths, bad enums or non-finite counts —
// and is total: any byte string either decodes or throws.
[[nodiscard]] std::string encode_hello(const HelloFrame& f);
[[nodiscard]] HelloFrame decode_hello(std::string_view payload);

[[nodiscard]] std::string encode_submit_window(const SubmitWindowFrame& f);
[[nodiscard]] SubmitWindowFrame decode_submit_window(std::string_view payload);

[[nodiscard]] std::string encode_verdict(const VerdictFrame& f);
[[nodiscard]] VerdictFrame decode_verdict(std::string_view payload);

[[nodiscard]] std::string encode_ping(const PingFrame& f);
[[nodiscard]] PingFrame decode_ping(std::string_view payload);

[[nodiscard]] std::string encode_pong(const PongFrame& f);
[[nodiscard]] PongFrame decode_pong(std::string_view payload);

[[nodiscard]] std::string encode_swap_begin(const SwapBeginFrame& f);
[[nodiscard]] SwapBeginFrame decode_swap_begin(std::string_view payload);

[[nodiscard]] std::string encode_swap_chunk(const SwapChunkFrame& f);
[[nodiscard]] SwapChunkFrame decode_swap_chunk(std::string_view payload);

[[nodiscard]] std::string encode_swap_commit(const SwapCommitFrame& f);
[[nodiscard]] SwapCommitFrame decode_swap_commit(std::string_view payload);

[[nodiscard]] std::string encode_swap_ack(const SwapAckFrame& f);
[[nodiscard]] SwapAckFrame decode_swap_ack(std::string_view payload);

[[nodiscard]] std::string encode_swap_abort(const SwapAbortFrame& f);
[[nodiscard]] SwapAbortFrame decode_swap_abort(std::string_view payload);

[[nodiscard]] std::string encode_error(const ErrorFrame& f);
[[nodiscard]] ErrorFrame decode_error(std::string_view payload);

[[nodiscard]] std::string encode_metrics_reply(const MetricsReplyFrame& f);
[[nodiscard]] MetricsReplyFrame decode_metrics_reply(std::string_view payload);

}  // namespace scwc::net
