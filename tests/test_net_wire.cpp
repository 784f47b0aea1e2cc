// SCWCWIRE codec tests: round-trips for every frame type, golden bytes
// that pin the wire format, header validation (including the strict
// version check and the retired frame types), the buffered FrameReader
// over a real local socket pair, the local socket itself (net::LocalListener
// ids, connect deadlines, shutdown, and a reader that is not woken by its
// own side's sends), and the byte-level fuzz pass the wire header
// promises — every single-byte corruption and every truncation of every
// frame type either decodes (the flip hit a don't-care byte) or throws a
// typed scwc::Error, and a stream of every frame type cut into random
// chunks reads back frame for frame. Nothing may crash, hang, or allocate
// unbounded memory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace scwc::net {
namespace {

// ------------------------------------------------------------- round trips

TEST(WireCodec, HelloRoundTrip) {
  HelloFrame f;
  f.shard_id = 7;
  f.window_steps = 60;
  f.sensors = 7;
  f.model_version = "rf-cov-v1";
  const HelloFrame back = decode_hello(encode_hello(f));
  EXPECT_EQ(back.shard_id, f.shard_id);
  EXPECT_EQ(back.window_steps, f.window_steps);
  EXPECT_EQ(back.sensors, f.sensors);
  EXPECT_EQ(back.model_version, f.model_version);
}

TEST(WireCodec, SubmitWindowRoundTrip) {
  SubmitWindowFrame f;
  f.request_id = 0x123456789abcdef0ULL;
  f.job_id = -42;
  f.deadline_ns = 20'000'000;
  f.steps = 3;
  f.sensors = 2;
  f.values = {1.5, -2.25, 0.0, 1e-300, -1e300, 42.0};
  f.trace_id = 0xabcdULL;
  f.trace_sampled = true;
  const SubmitWindowFrame back = decode_submit_window(encode_submit_window(f));
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.job_id, f.job_id);
  EXPECT_EQ(back.deadline_ns, f.deadline_ns);
  EXPECT_EQ(back.steps, f.steps);
  EXPECT_EQ(back.sensors, f.sensors);
  EXPECT_EQ(back.values, f.values);
  EXPECT_EQ(back.trace_id, f.trace_id);
  EXPECT_EQ(back.trace_sampled, f.trace_sampled);
}

TEST(WireCodec, VerdictRoundTrip) {
  VerdictFrame f;
  f.request_id = 5;
  f.trace_id = 0xfeedULL;
  f.job_id = 3;
  f.accepted = true;
  f.reject_reason = 0;
  f.degrade_level = 1;
  f.abstained = true;
  f.abstain_reason = 2;
  f.label = 11;
  f.batch_size = 64;
  f.quality = 0.875;
  f.worker_latency_s = 0.0125;
  f.missing_values = 4;
  f.repaired_values = 3;
  f.model_version = "rf-cov-v2";
  f.worker_queue_s = 0.001;
  f.worker_transform_s = 0.0005;
  f.worker_predict_s = 0.002;
  const VerdictFrame back = decode_verdict(encode_verdict(f));
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.trace_id, f.trace_id);
  EXPECT_EQ(back.job_id, f.job_id);
  EXPECT_EQ(back.accepted, f.accepted);
  EXPECT_EQ(back.degrade_level, f.degrade_level);
  EXPECT_EQ(back.abstained, f.abstained);
  EXPECT_EQ(back.abstain_reason, f.abstain_reason);
  EXPECT_EQ(back.label, f.label);
  EXPECT_EQ(back.batch_size, f.batch_size);
  EXPECT_DOUBLE_EQ(back.quality, f.quality);
  EXPECT_DOUBLE_EQ(back.worker_latency_s, f.worker_latency_s);
  EXPECT_EQ(back.missing_values, f.missing_values);
  EXPECT_EQ(back.repaired_values, f.repaired_values);
  EXPECT_EQ(back.model_version, f.model_version);
  EXPECT_DOUBLE_EQ(back.worker_queue_s, f.worker_queue_s);
  EXPECT_DOUBLE_EQ(back.worker_transform_s, f.worker_transform_s);
  EXPECT_DOUBLE_EQ(back.worker_predict_s, f.worker_predict_s);
}

TEST(WireCodec, SwapFramesRoundTrip) {
  SwapBeginFrame begin;
  begin.version = "rf-cov-v2";
  begin.total_bytes = 123456;
  const SwapBeginFrame begin_back = decode_swap_begin(encode_swap_begin(begin));
  EXPECT_EQ(begin_back.version, begin.version);
  EXPECT_EQ(begin_back.total_bytes, begin.total_bytes);

  SwapChunkFrame chunk;
  chunk.offset = 4096;
  chunk.bytes = std::string("\x00\x01\xff raw bundle bytes \x7f", 22);
  const SwapChunkFrame chunk_back = decode_swap_chunk(encode_swap_chunk(chunk));
  EXPECT_EQ(chunk_back.offset, chunk.offset);
  EXPECT_EQ(chunk_back.bytes, chunk.bytes);

  SwapCommitFrame commit;
  commit.crc32 = 0xdeadbeef;
  EXPECT_EQ(decode_swap_commit(encode_swap_commit(commit)).crc32,
            commit.crc32);

  SwapAckFrame ack;
  ack.ok = false;
  ack.active_version = "rf-cov-v1";
  ack.message = "bad magic";
  const SwapAckFrame ack_back = decode_swap_ack(encode_swap_ack(ack));
  EXPECT_EQ(ack_back.ok, ack.ok);
  EXPECT_EQ(ack_back.active_version, ack.active_version);
  EXPECT_EQ(ack_back.message, ack.message);

  SwapAbortFrame abort_frame;
  abort_frame.reason = "sibling shard refused";
  EXPECT_EQ(decode_swap_abort(encode_swap_abort(abort_frame)).reason,
            abort_frame.reason);
}

TEST(WireCodec, SmallFramesRoundTrip) {
  PingFrame ping;
  ping.nonce = 0xabcdef;
  EXPECT_EQ(decode_ping(encode_ping(ping)).nonce, ping.nonce);

  PongFrame pong;
  pong.nonce = 0xabcdef;
  pong.t_mono_ns = 123'456'789'000ULL;
  const PongFrame pong_back = decode_pong(encode_pong(pong));
  EXPECT_EQ(pong_back.nonce, pong.nonce);
  EXPECT_EQ(pong_back.t_mono_ns, pong.t_mono_ns);

  ErrorFrame err;
  err.code = 400;
  err.message = "malformed frame";
  const ErrorFrame err_back = decode_error(encode_error(err));
  EXPECT_EQ(err_back.code, err.code);
  EXPECT_EQ(err_back.message, err.message);
}

TEST(WireCodec, MetricsReplyRoundTrip) {
  MetricsReplyFrame f;
  f.counters = {{"scwc_serve_submitted_total", 100},
                {"scwc_serve_shed_total", 3}};
  f.gauges = {{"scwc_serve_inflight", 7.0},
              {"scwc_idle_ratio", std::numeric_limits<double>::quiet_NaN()}};
  MetricsRollingEntry e;
  e.name = "scwc_serve_latency_seconds";
  e.count = 97;
  e.p50 = 0.001;
  e.p90 = 0.004;
  e.p99 = 0.009;
  f.rolling = {e};
  const MetricsReplyFrame back = decode_metrics_reply(encode_metrics_reply(f));
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].first, "scwc_serve_submitted_total");
  EXPECT_EQ(back.counters[0].second, 100u);
  ASSERT_EQ(back.gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(back.gauges[0].second, 7.0);
  EXPECT_TRUE(std::isnan(back.gauges[1].second));  // NaN travels intact
  ASSERT_EQ(back.rolling.size(), 1u);
  EXPECT_EQ(back.rolling[0].name, e.name);
  EXPECT_EQ(back.rolling[0].count, e.count);
  EXPECT_DOUBLE_EQ(back.rolling[0].p99, e.p99);
}

TEST(WireCodec, MetricsReplyRejectsOverCapEntryCounts) {
  MetricsReplyFrame f;
  f.counters.assign(kMaxMetricsEntries + 1,
                    std::pair<std::string, std::uint64_t>{"c", 1});
  EXPECT_THROW((void)encode_metrics_reply(f), Error);
  // A hostile count in the bytes must throw before the decoder allocates.
  MetricsReplyFrame ok;
  ok.counters = {{"c", 1}};
  std::string payload = encode_metrics_reply(ok);
  const std::uint32_t huge =
      static_cast<std::uint32_t>(kMaxMetricsEntries) + 1;
  std::memcpy(payload.data(), &huge, sizeof(huge));
  EXPECT_THROW((void)decode_metrics_reply(payload), Error);
}

// -------------------------------------------------------- frame validation

TEST(WireCodec, FrameRoundTripAndCrc) {
  const std::string payload = encode_ping(PingFrame{77});
  const std::string bytes = encode_frame(FrameType::kPing, payload);
  ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());
  const Frame frame = decode_frame(bytes);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decode_ping(frame.payload).nonce, 77u);
}

TEST(WireCodec, RejectsBadMagicVersionTypeReserved) {
  const std::string good =
      encode_frame(FrameType::kPing, encode_ping(PingFrame{1}));
  {
    std::string bad = good;
    bad[0] = static_cast<char>(bad[0] ^ 0xff);  // magic
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  {
    std::string bad = good;
    bad[8] = static_cast<char>(bad[8] ^ 0xff);  // version
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  // One wire version: the neighbours of kWireVersion are rejected, too.
  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{3}}) {
    std::string bad = good;
    std::memcpy(bad.data() + 8, &version, sizeof(version));
    EXPECT_THROW((void)decode_frame(bad), Error) << "version " << version;
  }
  {
    std::string bad = good;
    bad[10] = static_cast<char>(0xee);  // unknown type
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  // Retired types (telemetry row, stats, stats reply) stay unassigned.
  for (const std::uint16_t type :
       {std::uint16_t{4}, std::uint16_t{13}, std::uint16_t{14}}) {
    std::string bad = good;
    std::memcpy(bad.data() + 10, &type, sizeof(type));
    EXPECT_THROW((void)decode_frame(bad), Error) << "type " << type;
  }
  {
    std::string bad = good;
    bad[20] = 1;  // reserved word must be zero
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
  {
    std::string bad = good;
    bad[16] = static_cast<char>(bad[16] ^ 0x01);  // crc
    EXPECT_THROW((void)decode_frame(bad), Error);
  }
}

TEST(WireCodec, RejectsOversizedPayloadLengthBeforeAllocating) {
  // Hand-build a header announcing a payload over the cap; the decoder must
  // throw from the header alone (a hostile peer cannot make us allocate).
  std::string header =
      encode_frame(FrameType::kPing, encode_ping(PingFrame{1}))
          .substr(0, kHeaderBytes);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  std::memcpy(header.data() + 12, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_header(header), Error);
}

TEST(WireCodec, RejectsGeometryOverCaps) {
  SubmitWindowFrame f;
  f.steps = 8;
  f.sensors = 4;
  f.values.assign(32, 1.0);
  std::string payload = encode_submit_window(f);
  // steps*sensors beyond kMaxWindowValues must throw before the values are
  // even looked at. steps is the first u32 after the three u64s.
  const std::uint32_t huge_steps = 1u << 30;
  std::memcpy(payload.data() + 24, &huge_steps, sizeof(huge_steps));
  EXPECT_THROW((void)decode_submit_window(payload), Error);
}

TEST(WireCodec, NanWindowValuesTravelIntact) {
  // NaN is a legitimate wire value: missing telemetry samples travel as
  // NaN and the worker's quality-repair path (robust/) deals with them.
  // The decoder must pass the exact bit pattern through, not reject it.
  SubmitWindowFrame f;
  f.steps = 1;
  f.sensors = 2;
  f.values = {std::numeric_limits<double>::quiet_NaN(), 1.0};
  const SubmitWindowFrame back = decode_submit_window(encode_submit_window(f));
  ASSERT_EQ(back.values.size(), 2u);
  EXPECT_TRUE(std::isnan(back.values[0]));
  EXPECT_DOUBLE_EQ(back.values[1], 1.0);
}

TEST(WireCodec, RejectsTrailingBytes) {
  std::string payload = encode_ping(PingFrame{5});
  payload.push_back('\0');
  EXPECT_THROW((void)decode_ping(payload), Error);
}

TEST(WireCodec, FrameTypeNamesAreStable) {
  EXPECT_STREQ(frame_type_name(FrameType::kHello), "hello");
  EXPECT_STREQ(frame_type_name(FrameType::kSubmitWindow), "submit_window");
  EXPECT_STREQ(frame_type_name(FrameType::kSwapCommit), "swap_commit");
  EXPECT_STREQ(frame_type_name(FrameType::kError), "error");
}

// ------------------------------------------------------------ golden bytes

std::string to_hex(std::string_view bytes) {
  std::string out;
  char digits[3];
  for (const char c : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x",
                  static_cast<unsigned char>(c));
    out += digits;
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(WireCodec, GoldenBytesPinTheWireFormat) {
  // Captured from the byte-at-a-time codec this format was defined with:
  // a faster codec must put exactly these bytes on the wire.
  SubmitWindowFrame submit;
  submit.request_id = 0x0102030405060708ULL;
  submit.job_id = -7;
  submit.deadline_ns = 20'000'000;
  submit.steps = 2;
  submit.sensors = 3;
  submit.values = {0.5, -1.25, 3.0, 1e-3,
                   std::bit_cast<double>(0x7ff8000000000123ULL), 42.0};
  submit.trace_id = 0xabcdefULL;
  submit.trace_sampled = true;
  EXPECT_EQ(to_hex(encode_frame(FrameType::kSubmitWindow,
                                encode_submit_window(submit))),
            "4552495743574353020002005d000000e9cb5348000000000807060504030201"
            "f9ffffffffffffff002d31010000000002000000030000000600000000000000"
            "0000e03f000000000000f4bf0000000000000840fca9f1d24d62503f23010000"
            "0000f87f0000000000004540efcdab000000000001");

  VerdictFrame verdict;
  verdict.request_id = 0x1122334455667788ULL;
  verdict.trace_id = 0xfeedULL;
  verdict.job_id = -3;
  verdict.accepted = true;
  verdict.degrade_level = 1;
  verdict.abstained = true;
  verdict.abstain_reason = 2;
  verdict.label = 11;
  verdict.batch_size = 64;
  verdict.quality = 0.875;
  verdict.worker_latency_s = 0.0125;
  verdict.missing_values = 4;
  verdict.repaired_values = 3;
  verdict.model_version = "rf-cov-v2";
  verdict.worker_queue_s = 0.001;
  verdict.worker_transform_s = 0.0005;
  verdict.worker_predict_s = 0.002;
  EXPECT_EQ(to_hex(encode_frame(FrameType::kVerdict, encode_verdict(verdict))),
            "45524957435743530200030062000000c911e60a000000008877665544332211"
            "edfe000000000000fdffffffffffffff01000101020b00000040000000000000"
            "000000ec3f9a9999999999893f04000000030000000900000072662d636f762d"
            "7632fca9f1d24d62503ffca9f1d24d62403ffca9f1d24d62603f");

  // The served geometry: one 60×7 window is a 3,405-byte payload.
  SubmitWindowFrame window;
  window.request_id = 9;
  window.job_id = 17;
  window.steps = 60;
  window.sensors = 7;
  for (int i = 0; i < 420; ++i) window.values.push_back(i * 0.25 - 3.0);
  const std::string payload = encode_submit_window(window);
  EXPECT_EQ(payload.size(), 3405u);
  const std::string frame = encode_frame(FrameType::kSubmitWindow, payload);
  EXPECT_EQ(fnv1a64(frame), 0x8d38736730c504efULL);
  EXPECT_EQ(decode_submit_window(decode_frame(frame).payload).values,
            window.values);
}

TEST(WireCodec, AppendFrameEqualsConcatenatedEncodeFrame) {
  const std::string ping = encode_ping(PingFrame{3});
  const std::string error = encode_error(ErrorFrame{2, "late"});
  std::string out;
  append_frame(out, FrameType::kPing, ping);
  append_frame(out, FrameType::kShutdown, "");
  append_frame(out, FrameType::kError, error);
  EXPECT_EQ(out, encode_frame(FrameType::kPing, ping) +
                     encode_frame(FrameType::kShutdown, "") +
                     encode_frame(FrameType::kError, error));
}

TEST(WireCodec, SubmitWindowFrameFromAViewEqualsEncodeFrame) {
  SubmitWindowFrame f;
  f.request_id = 77;
  f.job_id = -3;
  f.deadline_ns = 5'000'000;
  f.steps = 60;
  f.sensors = 7;
  for (std::size_t i = 0; i < 60 * 7; ++i) {
    f.values.push_back(std::sin(static_cast<double>(i)) * 100.0);
  }
  f.trace_id = 0xfeedULL;
  f.trace_sampled = true;
  SubmitWindowView view;
  view.request_id = f.request_id;
  view.job_id = f.job_id;
  view.deadline_ns = f.deadline_ns;
  view.steps = f.steps;
  view.sensors = f.sensors;
  view.values = f.values;
  view.trace_id = f.trace_id;
  view.trace_sampled = f.trace_sampled;
  const std::string frame = encode_submit_window_frame(view);
  EXPECT_EQ(frame, encode_frame(FrameType::kSubmitWindow,
                                encode_submit_window(f)));
  // One 60×7 window: the 24-byte header and a 3,405-byte payload.
  EXPECT_EQ(frame.size(), kHeaderBytes + 3405u);
}

// ---------------------------------------------------------------- fuzzing

/// Every frame type with a representative payload, as full wire frames.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> frames;
  const auto add = [&](const char* name, FrameType type,
                       const std::string& payload) {
    frames.emplace_back(name, encode_frame(type, payload));
  };
  HelloFrame hello;
  hello.shard_id = 1;
  hello.window_steps = 60;
  hello.sensors = 7;
  hello.model_version = "rf-cov-v1";
  add("hello", FrameType::kHello, encode_hello(hello));

  SubmitWindowFrame submit;
  submit.request_id = 42;
  submit.job_id = 17;
  submit.deadline_ns = 50'000'000;
  submit.steps = 4;
  submit.sensors = 3;
  submit.values.assign(12, 1.25);
  add("submit_window", FrameType::kSubmitWindow,
      encode_submit_window(submit));

  VerdictFrame verdict;
  verdict.request_id = 42;
  verdict.accepted = true;
  verdict.label = 2;
  verdict.batch_size = 8;
  verdict.quality = 1.0;
  verdict.model_version = "rf-cov-v1";
  add("verdict", FrameType::kVerdict, encode_verdict(verdict));

  add("ping", FrameType::kPing, encode_ping(PingFrame{7}));
  add("pong", FrameType::kPong, encode_pong(PongFrame{7, 123456}));

  SwapBeginFrame begin;
  begin.version = "v2";
  begin.total_bytes = 1024;
  add("swap_begin", FrameType::kSwapBegin, encode_swap_begin(begin));

  SwapChunkFrame chunk;
  chunk.offset = 0;
  chunk.bytes = "bundle-bytes";
  add("swap_chunk", FrameType::kSwapChunk, encode_swap_chunk(chunk));

  add("swap_commit", FrameType::kSwapCommit,
      encode_swap_commit(SwapCommitFrame{0x1234}));

  SwapAckFrame ack;
  ack.ok = true;
  ack.active_version = "v2";
  add("swap_ack", FrameType::kSwapAck, encode_swap_ack(ack));

  add("swap_abort", FrameType::kSwapAbort,
      encode_swap_abort(SwapAbortFrame{"sibling refused"}));
  add("shutdown", FrameType::kShutdown, "");
  add("error", FrameType::kError,
      encode_error(ErrorFrame{1, "decode failed"}));
  add("metrics_scrape", FrameType::kMetricsScrape, "");

  MetricsReplyFrame metrics;
  metrics.counters = {{"scwc_serve_submitted_total", 10}};
  metrics.gauges = {{"scwc_serve_inflight", 2.0}};
  MetricsRollingEntry rolling;
  rolling.name = "scwc_serve_latency_seconds";
  rolling.count = 9;
  rolling.p50 = 0.001;
  rolling.p90 = 0.002;
  rolling.p99 = 0.003;
  metrics.rolling = {rolling};
  add("metrics_reply", FrameType::kMetricsReply,
      encode_metrics_reply(metrics));
  return frames;
}

/// Full decode: frame layer + the payload codec for the decoded type
/// (exactly what a real reader does). Any input must either fully decode
/// or throw scwc::Error — nothing else.
bool decode_fully(const std::string& bytes) {
  const Frame frame = decode_frame(bytes);
  switch (frame.type) {
    case FrameType::kHello:
      (void)decode_hello(frame.payload);
      break;
    case FrameType::kSubmitWindow:
      (void)decode_submit_window(frame.payload);
      break;
    case FrameType::kVerdict:
      (void)decode_verdict(frame.payload);
      break;
    case FrameType::kPing:
      (void)decode_ping(frame.payload);
      break;
    case FrameType::kPong:
      (void)decode_pong(frame.payload);
      break;
    case FrameType::kSwapBegin:
      (void)decode_swap_begin(frame.payload);
      break;
    case FrameType::kSwapChunk:
      (void)decode_swap_chunk(frame.payload);
      break;
    case FrameType::kSwapCommit:
      (void)decode_swap_commit(frame.payload);
      break;
    case FrameType::kSwapAck:
      (void)decode_swap_ack(frame.payload);
      break;
    case FrameType::kSwapAbort:
      (void)decode_swap_abort(frame.payload);
      break;
    case FrameType::kShutdown:
    case FrameType::kMetricsScrape:
      break;  // empty payloads; the frame layer already validated length
    case FrameType::kError:
      (void)decode_error(frame.payload);
      break;
    case FrameType::kMetricsReply:
      (void)decode_metrics_reply(frame.payload);
      break;
  }
  return true;
}

TEST(WireFuzz, EveryByteFlipOfEveryFrameTypeIsTypedOrClean) {
  for (const auto& [name, bytes] : corpus()) {
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (const unsigned char mask : {0x01, 0x80, 0xff, 0xa5}) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        try {
          (void)decode_fully(mutated);
        } catch (const Error&) {
          ++rejected;  // typed rejection is the expected outcome
        }
        // Any other exception (bad_alloc from an uncapped length,
        // out_of_range from unchecked indexing) escapes and fails the test.
      }
    }
    // A flip can land in a don't-care position (e.g. a value byte that
    // still decodes to a finite double), but the CRC must catch the vast
    // majority; a frame where corruption is mostly accepted is broken.
    EXPECT_GT(rejected, bytes.size() * 2)
        << name << ": only " << rejected << " of " << bytes.size() * 4
        << " corruptions rejected";
  }
}

TEST(WireFuzz, EveryTruncationThrows) {
  for (const auto& [name, bytes] : corpus()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_THROW((void)decode_fully(bytes.substr(0, len)), Error)
          << name << " truncated to " << len << " bytes";
    }
  }
}

TEST(WireFuzz, GarbageBytesNeverCrash) {
  // Deterministic xorshift garbage, decoded at frame and payload level.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 256; ++round) {
    std::string garbage(static_cast<std::size_t>(next() % 512), '\0');
    for (char& c : garbage) c = static_cast<char>(next() & 0xff);
    EXPECT_THROW((void)decode_fully(garbage), Error) << "round " << round;
  }
}

// ------------------------------------------------------------ FrameReader

/// A connected local socket pair, the router↔worker transport: the test
/// writes on `client` and reads `server` through a FrameReader. The
/// server's receive timeout turns a reader that waits for bytes that never
/// come into a failure, not a hang.
struct LocalPair {
  LocalPair() {
    listener.listen(0);
    client = connect_local(listener.id(), 5.0);
    server = listener.accept();
    server.set_io_timeout(10.0);
  }
  LocalListener listener;
  Socket client;
  Socket server;
};

/// Reads frames until EOF. A protocol error fails the test and shuts the
/// socket down, so a writer thread blocked on a full socket can be joined.
std::vector<Frame> read_all(Socket& sock, FrameReader& frames) {
  std::vector<Frame> out;
  try {
    while (std::optional<Frame> f = frames.next(sock)) {
      out.push_back(std::move(*f));
    }
  } catch (const Error& e) {
    ADD_FAILURE() << "stream broke after " << out.size()
                  << " frames: " << e.what();
    sock.shutdown_now();
  }
  return out;
}

void expect_same_frames(const std::vector<Frame>& got,
                        const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "frame " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "frame " << i;
  }
}

TEST(FrameReader, ReassemblesFramesWrittenOneByteAtATime) {
  LocalPair pair;
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  std::string stream;
  std::vector<Frame> want;
  for (const auto& [name, bytes] : corpus()) {
    stream += bytes;
    want.push_back(decode_frame(bytes));
  }
  std::thread writer([&] {
    for (const char c : stream) {
      if (!pair.client.send_all(std::string_view(&c, 1))) break;
      std::this_thread::yield();
    }
    pair.client.shutdown_now();
  });
  FrameReader frames;
  const std::vector<Frame> got = read_all(pair.server, frames);
  writer.join();
  expect_same_frames(got, want);
}

TEST(FrameReader, SplitsManyFramesOutOfOneWrite) {
  LocalPair pair;
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  std::string stream;
  std::vector<Frame> want;
  for (std::uint64_t i = 0; i < 500; ++i) {
    VerdictFrame v;
    v.request_id = i;
    v.label = static_cast<std::int32_t>(i % 26);
    v.model_version = "rf-cov-v1";
    const std::string payload = encode_verdict(v);
    append_frame(stream, FrameType::kVerdict, payload);
    want.push_back(Frame{FrameType::kVerdict, payload});
  }
  std::thread writer([&] {
    (void)pair.client.send_all(stream);
    pair.client.shutdown_now();
  });
  FrameReader frames;
  const std::vector<Frame> got = read_all(pair.server, frames);
  writer.join();
  expect_same_frames(got, want);
}

TEST(FrameReader, OverCapHeaderThrowsBeforeAnyPayloadIsSent) {
  LocalPair pair;
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  std::string header =
      encode_frame(FrameType::kPing, encode_ping(PingFrame{1}))
          .substr(0, kHeaderBytes);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  std::memcpy(header.data() + 12, &huge, sizeof(huge));
  // Only the header goes out and the connection stays open: a reader that
  // awaited (or allocated) the payload first would time out instead.
  ASSERT_TRUE(pair.client.send_all(header));
  FrameReader frames;
  EXPECT_THROW((void)frames.next(pair.server), Error);
}

TEST(FrameReader, EofMidHeaderOrMidPayloadIsNullopt) {
  const std::string frame =
      encode_frame(FrameType::kPing, encode_ping(PingFrame{9}));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                kHeaderBytes - 1, kHeaderBytes,
                                frame.size() - 1}) {
    LocalPair pair;
    ASSERT_TRUE(pair.client.valid() && pair.server.valid());
    ASSERT_TRUE(pair.client.send_all(std::string_view(frame).substr(0, cut)));
    pair.client.close();
    FrameReader frames;
    EXPECT_FALSE(frames.next(pair.server).has_value()) << "cut at " << cut;
  }
}

TEST(FrameReader, BadPayloadCrcThrowsTypedError) {
  LocalPair pair;
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  std::string frame = encode_frame(FrameType::kPing, encode_ping(PingFrame{5}));
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  ASSERT_TRUE(pair.client.send_all(frame));
  FrameReader frames;
  EXPECT_THROW((void)frames.next(pair.server), Error);
}

TEST(WireFuzz, RandomlyChunkedStreamYieldsTheFramesDecodeFrameYields) {
  // The whole corpus, several times over, written in seeded random chunk
  // sizes: the reader must see exactly the frames decode_frame sees one by
  // one, however the bytes were cut.
  const auto frames_in = corpus();
  std::string stream;
  std::vector<Frame> want;
  for (int round = 0; round < 8; ++round) {
    for (const auto& [name, bytes] : frames_in) {
      stream += bytes;
      want.push_back(decode_frame(bytes));
    }
  }
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    LocalPair pair;
    ASSERT_TRUE(pair.client.valid() && pair.server.valid());
    std::thread writer([&pair, &stream, seed] {
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * seed;
      std::size_t pos = 0;
      while (pos < stream.size()) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const std::size_t n =
            std::min<std::size_t>(1 + state % 97, stream.size() - pos);
        if (!pair.client.send_all(std::string_view(stream).substr(pos, n))) {
          break;
        }
        pos += n;
      }
      pair.client.shutdown_now();
    });
    FrameReader frames;
    const std::vector<Frame> got = read_all(pair.server, frames);
    writer.join();
    expect_same_frames(got, want);
  }
}

// ------------------------------------------------------------ LocalSocket

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// voluntary_ctxt_switches of thread `tid` of this process; -1 if unread.
long voluntary_switches(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/status");
  const std::string key = "voluntary_ctxt_switches:";
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(key)) return std::stol(line.substr(key.size()));
  }
  return -1;
}

TEST(LocalSocket, EphemeralListenersGetDistinctIds) {
  LocalListener a;
  LocalListener b;
  a.listen(0);
  b.listen(0);
  EXPECT_GE(a.id(), 1);
  EXPECT_GE(b.id(), 1);
  EXPECT_NE(a.id(), b.id());
}

TEST(LocalSocket, AnIdAlreadyBoundThrowsAndLeavesTheListenerClosed) {
  LocalListener a;
  a.listen(0);
  LocalListener b;
  EXPECT_THROW(b.listen(a.id()), Error);
  EXPECT_FALSE(b.listening());
  // The first owner of the id still takes connections.
  const Socket client = connect_local(a.id(), 5.0);
  EXPECT_TRUE(client.valid());
}

TEST(LocalSocket, ConnectToAnUnboundIdFailsByItsDeadline) {
  std::uint16_t id = 0;
  {
    LocalListener gone;
    gone.listen(0);
    id = gone.id();
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Socket sock = connect_local(id, 0.2);
  const double took = seconds_since(t0);
  EXPECT_FALSE(sock.valid());
  EXPECT_GE(took, 0.2);
  EXPECT_LT(took, 5.0);
}

TEST(LocalSocket, ShutdownUnblocksAReaderWaitingForData) {
  LocalPair pair;
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  pair.server.set_recv_timeout(0);  // wait for data without a bound
  auto reader = std::async(std::launch::async, [&pair] {
    char buf[16];
    return pair.server.recv_some(buf, sizeof(buf));
  });
  EXPECT_EQ(reader.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  pair.server.shutdown_now();
  const bool woke =
      reader.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!woke) pair.client.close();  // EOF frees it, so the test fails, not hangs
  ASSERT_TRUE(woke);
  EXPECT_EQ(reader.get(), 0u);
}

TEST(LocalSocket, ReaderIsNotWokenByItsOwnSidesSends) {
  // The router's shape: one thread waits for frames on a socket while
  // another sends on it and the peer consumes what it sends. A reader
  // asleep inside recv would be woken each time the peer drained a frame;
  // one waiting in poll(POLLIN) sleeps through all of them.
  constexpr int kFrames = 2000;
  LocalPair pair;
  ASSERT_TRUE(pair.client.valid() && pair.server.valid());
  pair.client.set_recv_timeout(10.0);
  std::atomic<pid_t> reader_tid{0};
  std::thread reader([&pair, &reader_tid] {
    reader_tid.store(::gettid());
    FrameReader frames;
    (void)frames.next(pair.client);  // the one frame the peer sends at the end
  });
  while (reader_tid.load() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // parked
  const long before = voluntary_switches(reader_tid.load());

  std::atomic<int> consumed{0};
  std::thread consumer([&pair, &consumed] {
    FrameReader frames;
    for (int i = 0; i < kFrames; ++i) {
      if (!frames.next(pair.server).has_value()) return;
      consumed.fetch_add(1);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool paced = true;
  for (int i = 0; i < kFrames && paced; ++i) {
    paced = write_frame(pair.client, FrameType::kPing,
                        encode_ping(PingFrame{static_cast<std::uint64_t>(i)}));
    // One frame in flight at a time, so each is drained on its own.
    while (paced && consumed.load() <= i) {
      paced = std::chrono::steady_clock::now() < deadline;
      std::this_thread::yield();
    }
  }
  if (!paced) pair.server.shutdown_now();  // ends the consumer and reader
  consumer.join();
  const long after = voluntary_switches(reader_tid.load());
  (void)write_frame(pair.server, FrameType::kPing, encode_ping(PingFrame{0}));
  reader.join();

  ASSERT_TRUE(paced) << "the peer stopped consuming";
  EXPECT_EQ(consumed.load(), kFrames);
  ASSERT_GE(before, 0);
  EXPECT_LT(after - before, 100)
      << "the reader woke " << (after - before) << " times over " << kFrames
      << " frames its own side sent";
}

}  // namespace
}  // namespace scwc::net
