#include "serve/bundle_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <utility>

#include "common/byte_io.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace scwc::serve {

namespace {

// "SCWCBNDL" — distinct from the forest's own magic, which follows inside.
constexpr std::uint64_t kBundleMagic = 0x53435743424e444cULL;
constexpr std::uint64_t kFormatVersion = 1;

void write_string(ByteWriter& w, std::string_view s) {
  w.u64(s.size());
  w.bytes(s);
}

// Length caps bound what a corrupted stream can make load_bundle allocate
// before a truncation/validation error fires (the fuzz test flips every
// byte of a valid bundle; a flipped length must fail typed, not OOM).
std::string read_string(ByteReader& r) {
  const std::uint64_t n = r.u64();
  r.require(n <= (1ULL << 16), "implausible string length");
  return r.bytes(n);
}

void write_vec(ByteWriter& w, std::span<const double> v) {
  w.u64(v.size());
  w.f64s(v);
}

linalg::Vector read_vec(ByteReader& r) {
  const std::uint64_t n = r.u64();
  r.require(n <= (1ULL << 24), "implausible vector length");
  return r.f64s(n);
}

void write_matrix(ByteWriter& w, const linalg::Matrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.f64s(m.flat());
}

linalg::Matrix read_matrix(ByteReader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  r.require(rows <= (1ULL << 20) && cols <= (1ULL << 20) &&
                rows * cols <= (1ULL << 26),
            "implausible matrix shape");
  const std::vector<double> values = r.f64s(rows * cols);
  linalg::Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.flat().begin());
  return m;
}

}  // namespace

void save_bundle(const ModelBundle& bundle, ByteWriter& w) {
  const auto* forest = dynamic_cast<const ml::RandomForest*>(&bundle.model());
  SCWC_REQUIRE(forest != nullptr,
               "save_bundle: only RandomForest bundles are serialisable, got " +
                   bundle.model().name());

  w.u64(kBundleMagic);
  w.u64(kFormatVersion);
  write_string(w, bundle.version());

  const robust::GuardedConfig& guard = bundle.guard_config();
  w.u64(guard.window_steps);
  w.u64(guard.sensors);
  w.f64(guard.min_quality);
  w.i64(guard.fallback_label);
  w.u64(static_cast<std::uint64_t>(guard.imputation.policy));
  write_vec(w, guard.imputation.sensor_prior_means);

  const preprocess::FeaturePipeline& pipeline = bundle.pipeline();
  w.u64(static_cast<std::uint64_t>(pipeline.config().reduction));
  w.u64(pipeline.config().pca_components);
  w.u64(pipeline.steps());
  w.u64(pipeline.sensors());
  write_vec(w, pipeline.scaler().means());
  write_vec(w, pipeline.scaler().scales());
  w.u64(pipeline.pca().has_value() ? 1 : 0);
  if (pipeline.pca().has_value()) {
    const preprocess::Pca& pca = *pipeline.pca();
    write_vec(w, pca.mean());
    write_matrix(w, pca.components_matrix());
    write_vec(w, pca.explained_variance());
    write_vec(w, pca.explained_variance_ratio());
  }

  write_string(w, forest->name());
  forest->save(w);
}

void save_bundle_file(const ModelBundle& bundle, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  SCWC_REQUIRE(os.is_open(), "save_bundle_file: cannot open " + path);
  ByteWriter w(os);
  save_bundle(bundle, w);
  w.flush();
}

std::shared_ptr<const ModelBundle> load_bundle(ByteReader& r) {
  r.require(r.u64() == kBundleMagic, "bad magic");
  r.require(r.u64() == kFormatVersion, "unsupported format version");
  std::string version = read_string(r);

  robust::GuardedConfig guard;
  guard.window_steps = r.u64();
  guard.sensors = r.u64();
  guard.min_quality = r.f64();
  guard.fallback_label = static_cast<int>(r.i64());
  const std::uint64_t policy = r.u64();
  r.require(
      policy <= static_cast<std::uint64_t>(robust::Imputation::kPriorMean),
      "unknown imputation policy");
  guard.imputation.policy = static_cast<robust::Imputation>(policy);
  guard.imputation.sensor_prior_means = read_vec(r);
  r.require(std::isfinite(guard.min_quality), "non-finite min_quality");

  preprocess::FeaturePipelineConfig pipeline_config;
  const std::uint64_t reduction = r.u64();
  r.require(
      reduction <= static_cast<std::uint64_t>(preprocess::Reduction::kNone),
      "unknown reduction");
  pipeline_config.reduction = static_cast<preprocess::Reduction>(reduction);
  pipeline_config.pca_components = r.u64();
  const std::size_t steps = r.u64();
  const std::size_t sensors = r.u64();
  linalg::Vector scaler_means = read_vec(r);   // sequence the two reads —
  linalg::Vector scaler_scales = read_vec(r);  // argument order is unspecified
  preprocess::StandardScaler scaler = preprocess::StandardScaler::restore(
      std::move(scaler_means), std::move(scaler_scales));
  std::optional<preprocess::Pca> pca;
  if (r.u64() != 0) {
    linalg::Vector mean = read_vec(r);
    linalg::Matrix components = read_matrix(r);
    linalg::Vector variance = read_vec(r);
    linalg::Vector ratio = read_vec(r);
    pca = preprocess::Pca::restore(std::move(mean), std::move(components),
                                   std::move(variance), std::move(ratio));
  }
  preprocess::FeaturePipeline pipeline = preprocess::FeaturePipeline::restore(
      pipeline_config, steps, sensors, std::move(scaler), std::move(pca));

  const std::string tag = read_string(r);
  if (tag != "RandomForest") r.fail("unsupported model tag: " + tag);
  auto forest = std::make_unique<ml::RandomForest>();
  forest->load(r);
  r.require(forest->input_width() <= pipeline.output_dim(),
            "forest splits on a feature the pipeline does not produce");

  r.require(guard.window_steps == steps && guard.sensors == sensors,
            "guard/pipeline geometry mismatch");
  return std::make_shared<const ModelBundle>(
      std::move(version), std::move(pipeline), std::move(forest), guard);
}

std::shared_ptr<const ModelBundle> load_bundle_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "load_bundle_file: cannot open " + path);
  ByteReader r(is, "load_bundle");
  return load_bundle(r);
}

std::shared_ptr<const ModelBundle> try_swap_from_bytes(ModelRegistry& registry,
                                                       std::string_view bytes) {
  // The whole load happens BEFORE the registry is touched, so a failure at
  // any byte leaves the current bundle serving — no partial swap exists.
  // A registry refusal (e.g. a duplicate version) is a refused swap too.
  std::shared_ptr<const ModelBundle> bundle;
  try {
    ByteReader r(bytes, "load_bundle");
    bundle = load_bundle(r);
    registry.register_bundle(bundle, /*activate=*/true);
  } catch (const std::exception& e) {
    obs::MetricsRegistry::global()
        .counter("scwc_serve_bundle_load_failures_total")
        .inc();
    SCWC_LOG_WARN("bundle swap refused: " << e.what());
    return nullptr;
  }
  return bundle;
}

}  // namespace scwc::serve
