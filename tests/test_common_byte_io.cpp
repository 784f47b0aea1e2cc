// Tests for common/byte_io and the formats written through it: the codec's
// little-endian encodings, stream and memory writers and readers agreeing
// byte for byte across buffer boundaries, readers over non-seekable
// streams (pipes), typed errors that name a byte offset, and FNV-1a
// hashes that pin the bytes of every file format the tree writes
// (SCWCBNDL bundle, SCWC_RF1 forest, DecisionTree record, .scb and .npz)
// on the micro corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "core/challenge.hpp"
#include "data/npz.hpp"
#include "data/serialize.hpp"
#include "ml/random_forest.hpp"
#include "net/wire.hpp"
#include "serve/bundle_io.hpp"
#include "telemetry/corpus.hpp"

namespace scwc {
namespace {

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 0xf];
  }
  return out;
}

/// What `fn` throws as scwc::Error, or "" when it does not throw.
template <typename Fn>
std::string error_of(const Fn& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

/// A stream buffer over `bytes` that hands them out a few KiB at a time
/// and cannot seek, as a pipe or FIFO does.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (next_ == bytes_.size()) return traits_type::eof();
    const std::size_t k = std::min<std::size_t>(4093, bytes_.size() - next_);
    char* begin = bytes_.data() + next_;
    setg(begin, begin, begin + k);
    next_ += k;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string bytes_;
  std::size_t next_ = 0;
};

/// An istream whose tellg() is -1: the reader cannot learn its length.
class PipeStream : public std::istream {
 public:
  explicit PipeStream(std::string bytes)
      : std::istream(nullptr), buf_(std::move(bytes)) {
    rdbuf(&buf_);
  }

 private:
  PipeBuf buf_;
};

// ------------------------------------------------------------------ codec


TEST(ByteIo, EncodesLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x0102);
  w.u32(0x03040506);
  w.u64(0x0708090a0b0c0d0eULL);
  w.i32(-2);
  w.i64(-3);
  w.f64(1.0);
  w.bytes("xy");
  w.f64s(std::vector<double>{-2.0});
  EXPECT_EQ(hex(w.take()),
            "ab"
            "0201"
            "06050403"
            "0e0d0c0b0a090807"
            "feffffff"
            "fdffffffffffffff"
            "000000000000f03f"
            "7879"
            "00000000000000c0");
}

/// A record larger than the stream buffer, so writers spill and readers
/// refill mid-value and around a bulk array.
std::vector<double> big_array() {
  std::vector<double> values(3 * kStreamBufferBytes / sizeof(double) + 5);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 0.5 - 7.0;
  }
  return values;
}

void write_record(ByteWriter& w, const std::vector<double>& values) {
  for (std::uint32_t i = 0; i < 9000; ++i) w.u32(i);  // odd-sized spills
  w.u8(7);
  w.u64(values.size());
  w.f64s(values);
  w.bytes("tail");
  w.i64(-9);
}

TEST(ByteIo, StreamAndMemoryWritersWriteTheSameBytes) {
  const std::vector<double> values = big_array();
  ByteWriter memory;
  write_record(memory, values);
  std::ostringstream os;
  ByteWriter stream(os);
  write_record(stream, values);
  EXPECT_EQ(stream.offset(), memory.offset());
  stream.flush();
  EXPECT_EQ(os.str(), memory.take());
}

TEST(ByteIo, StreamAndMemoryReadersReadTheSameValues) {
  const std::vector<double> values = big_array();
  ByteWriter w;
  write_record(w, values);
  const std::string bytes = w.take();
  std::istringstream is(bytes);
  ByteReader from_stream(is, "test");
  PipeStream pipe(bytes);
  ASSERT_EQ(pipe.tellg(), std::istream::pos_type(-1));
  ByteReader from_pipe(pipe, "test");
  ByteReader from_memory(bytes, "test");
  for (ByteReader* r : {&from_stream, &from_pipe, &from_memory}) {
    for (std::uint32_t i = 0; i < 9000; ++i) ASSERT_EQ(r->u32(), i);
    EXPECT_EQ(r->u8(), 7);
    const std::uint64_t n = r->u64();
    EXPECT_EQ(r->f64s(n), values);
    EXPECT_EQ(r->bytes(4), "tail");
    EXPECT_EQ(r->i64(), -9);
    EXPECT_EQ(r->offset(), bytes.size());
    EXPECT_NO_THROW(r->expect_end());
  }
}

TEST(ByteIo, TruncationNamesTheOffsetWhereTheInputEnded) {
  ByteWriter w;
  write_record(w, big_array());
  const std::string bytes = w.take();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{36003},
        bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    const std::string want =
        "test: truncated input at byte offset " + std::to_string(cut);
    const auto read_all = [](ByteReader& r) {
      for (std::uint32_t i = 0; i < 9000; ++i) (void)r.u32();
      (void)r.u8();
      (void)r.f64s(r.u64());
      (void)r.bytes(4);
      (void)r.i64();
    };
    const std::string prefix = bytes.substr(0, cut);
    EXPECT_NE(error_of([&] {
                ByteReader r(prefix, "test");
                read_all(r);
              }).find(want),
              std::string::npos);
    std::istringstream is(prefix);
    EXPECT_NE(error_of([&] {
                ByteReader r(is, "test");
                read_all(r);
              }).find(want),
              std::string::npos);
    PipeStream pipe(prefix);
    EXPECT_NE(error_of([&] {
                ByteReader r(pipe, "test");
                read_all(r);
              }).find(want),
              std::string::npos);
  }
}

TEST(ByteIo, HugeCountsFailTypedBeforeAllocating) {
  // 2^40 doubles is 8 TiB: asking must fail at the end of the real input,
  // from a byte view, a stream and a pipe alike, never with bad_alloc. A
  // pipe's length is unknown, so there the read grows as bytes arrive.
  const std::string bytes(100, '\0');
  ByteReader view(bytes, "test");
  EXPECT_NE(error_of([&] { (void)view.f64s(1ULL << 40); })
                .find("test: truncated input at byte offset 100"),
            std::string::npos);
  std::istringstream is(bytes);
  ByteReader stream(is, "test");
  EXPECT_NE(error_of([&] { (void)stream.bytes(1ULL << 40); })
                .find("test: truncated input at byte offset 100"),
            std::string::npos);
  PipeStream pipe(bytes + bytes);
  ByteReader from_pipe(pipe, "test");
  EXPECT_NE(error_of([&] { (void)from_pipe.bytes(1ULL << 40); })
                .find("test: truncated input at byte offset 200"),
            std::string::npos);
  PipeStream pipe2(bytes);
  ByteReader from_pipe2(pipe2, "test");
  EXPECT_NE(error_of([&] { (void)from_pipe2.f64s(1ULL << 40); })
                .find("test: truncated input at byte offset 100"),
            std::string::npos);
}

TEST(ByteIo, TrailingBytesAndValidationFailuresNameTheOffset) {
  const std::string bytes = "abcdefghij";
  ByteReader view(bytes, "test");
  (void)view.u64();
  EXPECT_NE(error_of([&] { view.expect_end(); })
                .find("test: trailing bytes at byte offset 8"),
            std::string::npos);
  std::istringstream is(bytes);
  ByteReader stream(is, "test");
  (void)stream.u32();
  EXPECT_NE(error_of([&] { stream.require(false, "bad field"); })
                .find("test: bad field at byte offset 4"),
            std::string::npos);
  EXPECT_NE(error_of([&] { stream.expect_end(); })
                .find("test: trailing bytes at byte offset 4"),
            std::string::npos);
  PipeStream pipe(bytes);
  ByteReader from_pipe(pipe, "test");
  (void)from_pipe.bytes(10);
  EXPECT_NO_THROW(from_pipe.expect_end());
  PipeStream pipe2(bytes);
  ByteReader from_pipe2(pipe2, "test");
  (void)from_pipe2.u16();
  EXPECT_NE(error_of([&] { from_pipe2.expect_end(); })
                .find("test: trailing bytes at byte offset 2"),
            std::string::npos);
}

// ------------------------------------------------------------ the formats

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The micro corpus of Challenge.MicroCorpus*: one Table-IV dataset, a
/// covariance bundle trained on it, and a single tree on its features.
struct MicroWorld {
  data::ChallengeDataset ds;
  std::shared_ptr<const serve::ModelBundle> bundle;
  ml::DecisionTree tree;
};

const MicroWorld& micro_world() {
  static const MicroWorld world = [] {
    telemetry::CorpusConfig corpus;
    corpus.jobs_per_class_scale = 0.01;
    corpus.min_jobs_per_class = 3;
    corpus.seed = 11;
    core::ChallengeConfig challenge;
    challenge.window_steps = 30;
    challenge.sample_hz = 0.5;
    challenge.seed = 77;
    MicroWorld w;
    w.ds = core::build_challenge_dataset(telemetry::generate_corpus(corpus),
                                         challenge,
                                         data::WindowPolicy::kRandom, 0);
    serve::RfBundleSpec spec;
    spec.version = "micro-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 8;
    w.bundle = serve::train_rf_bundle(spec, w.ds.x_train, w.ds.y_train);
    w.tree.fit(w.bundle->pipeline().transform(w.ds.x_train), w.ds.y_train);
    return w;
  }();
  return world;
}

const ml::RandomForest& micro_forest() {
  return dynamic_cast<const ml::RandomForest&>(micro_world().bundle->model());
}

template <typename Save>
std::string bytes_of(const Save& save) {
  ByteWriter w;
  save(w);
  return w.take();
}

std::string bundle_bytes() {
  return bytes_of([](ByteWriter& w) {
    serve::save_bundle(*micro_world().bundle, w);
  });
}

std::string forest_bytes() {
  return bytes_of([](ByteWriter& w) { micro_forest().save(w); });
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(FormatBytes, MicroCorpusOutputsHashToPinnedValues) {
  // Computed at commit 7d819a6, where each format still had its own
  // hand-written encoder (and .scb wrote its doubles in host order), so
  // any change to a byte any of them writes shows here.
  const MicroWorld& w = micro_world();
  const auto npz_path =
      std::filesystem::temp_directory_path() / "scwc_pinned_micro.npz";
  data::save_npz(w.ds, npz_path);
  const std::string npz = file_bytes(npz_path);
  std::filesystem::remove(npz_path);
  const struct {
    const char* what;
    std::string bytes;
    std::uint64_t pinned;
  } outputs[] = {
      {"save_bundle", bundle_bytes(), 0x79edd4b597ca5e70ULL},
      {"RandomForest::save", forest_bytes(), 0x7a92a1984cc79f75ULL},
      {"DecisionTree::save",
       bytes_of([&w](ByteWriter& out) { w.tree.save(out); }),
       0xdb1244966c4ad891ULL},
      {"write_scb",
       bytes_of([&w](ByteWriter& out) { data::write_scb(w.ds, out); }),
       0xe170142def7d42f0ULL},
      {"save_npz", npz, 0x746111aa34f744d7ULL},
  };
  for (const auto& o : outputs) {
    EXPECT_EQ(fnv1a64(o.bytes), o.pinned)
        << o.what << " (" << o.bytes.size() << " bytes): 0x" << std::hex
        << fnv1a64(o.bytes);
  }
}

TEST(FormatBytes, FilesStreamTheSameBytesAsMemory) {
  const MicroWorld& w = micro_world();
  const auto dir = std::filesystem::temp_directory_path();
  serve::save_bundle_file(*w.bundle, (dir / "scwc_micro.bundle").string());
  micro_forest().save_file((dir / "scwc_micro.rf").string());
  data::save_scb(w.ds, dir / "scwc_micro.scb");
  EXPECT_EQ(file_bytes(dir / "scwc_micro.bundle"), bundle_bytes());
  EXPECT_EQ(file_bytes(dir / "scwc_micro.rf"), forest_bytes());
  EXPECT_EQ(file_bytes(dir / "scwc_micro.scb"),
            bytes_of([&w](ByteWriter& out) { data::write_scb(w.ds, out); }));

  const auto loaded =
      serve::load_bundle_file((dir / "scwc_micro.bundle").string());
  EXPECT_EQ(loaded->version(), "micro-v1");
  ml::RandomForest forest;
  forest.load_file((dir / "scwc_micro.rf").string());
  EXPECT_EQ(forest.tree_count(), micro_forest().tree_count());
  const data::ChallengeDataset ds = data::load_scb(dir / "scwc_micro.scb");
  EXPECT_EQ(ds.y_test, w.ds.y_test);
  for (const char* name : {"scwc_micro.bundle", "scwc_micro.rf",
                           "scwc_micro.scb"}) {
    std::filesystem::remove(dir / name);
  }
}

TEST(FormatBytes, BundleForestAndScbLoadFromAPipe) {
  // A FIFO or process substitution passed as a file path cannot seek; the
  // loads read it to the end all the same.
  const MicroWorld& w = micro_world();
  PipeStream bundle_pipe(bundle_bytes());
  ByteReader bundle_reader(bundle_pipe, "load_bundle");
  const auto bundle = serve::load_bundle(bundle_reader);
  EXPECT_EQ(bundle->version(), "micro-v1");
  EXPECT_EQ(bytes_of([&bundle](ByteWriter& out) {
              serve::save_bundle(*bundle, out);
            }),
            bundle_bytes());

  PipeStream forest_pipe(forest_bytes());
  ByteReader forest_reader(forest_pipe, "model");
  ml::RandomForest forest;
  forest.load(forest_reader);
  EXPECT_EQ(bytes_of([&forest](ByteWriter& out) { forest.save(out); }),
            forest_bytes());

  const std::string scb =
      bytes_of([&w](ByteWriter& out) { data::write_scb(w.ds, out); });
  PipeStream scb_pipe(scb);
  ByteReader scb_reader(scb_pipe, "scb");
  const data::ChallengeDataset ds = data::read_scb(scb_reader);
  EXPECT_EQ(bytes_of([&ds](ByteWriter& out) { data::write_scb(ds, out); }),
            scb);
}

TEST(FormatBytes, TruncatedBundleForestAndWirePayloadNameTheByteOffset) {
  const std::string bundle = bundle_bytes();
  const std::string forest = forest_bytes();
  net::VerdictFrame verdict;
  verdict.model_version = "micro-v1";
  const std::string payload = net::encode_verdict(verdict);
  for (const double frac : {0.0, 0.1, 0.5, 0.99}) {
    const auto cut_of = [frac](const std::string& s) {
      return static_cast<std::size_t>(static_cast<double>(s.size()) * frac);
    };
    const std::string b = bundle.substr(0, cut_of(bundle));
    EXPECT_NE(error_of([&b] {
                ByteReader r(b, "load_bundle");
                (void)serve::load_bundle(r);
              }).find("load_bundle: truncated input at byte offset " +
                      std::to_string(b.size())),
              std::string::npos)
        << "bundle cut at " << b.size();
    const std::string f = forest.substr(0, cut_of(forest));
    EXPECT_NE(error_of([&f] {
                ByteReader r(f, "model");
                ml::RandomForest restored;
                restored.load(r);
              }).find("model: truncated input at byte offset " +
                      std::to_string(f.size())),
              std::string::npos)
        << "forest cut at " << f.size();
    const std::string p = payload.substr(0, cut_of(payload));
    EXPECT_NE(error_of([&p] { (void)net::decode_verdict(p); })
                  .find("wire decode: truncated input at byte offset " +
                        std::to_string(p.size())),
              std::string::npos)
        << "payload cut at " << p.size();
  }
}

TEST(FormatBytes, TruncatedBundleFileNamesTheByteOffset) {
  // The stream reader behind load_bundle_file reports the same offset.
  const std::string bundle = bundle_bytes();
  const auto path =
      std::filesystem::temp_directory_path() / "scwc_truncated.bundle";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bundle.substr(0, bundle.size() - 3);
  }
  const std::string what =
      error_of([&path] { (void)serve::load_bundle_file(path.string()); });
  std::filesystem::remove(path);
  EXPECT_NE(what.find("load_bundle: truncated input at byte offset " +
                      std::to_string(bundle.size() - 3)),
            std::string::npos)
      << what;
}

}  // namespace
}  // namespace scwc
