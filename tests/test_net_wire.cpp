// SCWCWIRE codec tests: round-trips for every frame type, header
// validation (including the strict version check and the retired frame
// types), and the byte-level fuzz pass the wire header promises — every single-byte corruption and every truncation of
// every frame type either decodes (the flip hit a don't-care byte) or
// throws a typed scwc::Error. Nothing may crash, hang, or allocate
// unbounded memory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
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

}  // namespace
}  // namespace scwc::net
