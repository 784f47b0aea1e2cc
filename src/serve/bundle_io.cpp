#include "serve/bundle_io.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace scwc::serve {

namespace {

// "SCWCBNDL" — distinct from the forest's own magic, which follows inside.
constexpr std::uint64_t kBundleMagic = 0x53435743424e444cULL;
constexpr std::uint64_t kFormatVersion = 1;

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
  os.write(reinterpret_cast<const char*>(bytes), 8);
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char bytes[8];
  is.read(reinterpret_cast<char*>(bytes), 8);
  SCWC_REQUIRE(is.good(), "load_bundle: truncated stream");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return v;
}

void write_f64(std::ostream& os, double v) {
  write_u64(os, std::bit_cast<std::uint64_t>(v));
}

double read_f64(std::istream& is) {
  return std::bit_cast<double>(read_u64(is));
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Length caps bound what a corrupted stream can make load_bundle allocate
// before a truncation/validation error fires (the fuzz test flips every
// byte of a valid bundle; a flipped length must fail typed, not OOM).
std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  SCWC_REQUIRE(n <= (1ULL << 16), "load_bundle: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  SCWC_REQUIRE(is.good() || n == 0, "load_bundle: truncated string");
  return s;
}

void write_vec(std::ostream& os, const linalg::Vector& v) {
  write_u64(os, v.size());
  for (const double x : v) write_f64(os, x);
}

linalg::Vector read_vec(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  SCWC_REQUIRE(n <= (1ULL << 24), "load_bundle: implausible vector length");
  linalg::Vector v(n);
  for (auto& x : v) x = read_f64(is);
  return v;
}

void write_matrix(std::ostream& os, const linalg::Matrix& m) {
  write_u64(os, m.rows());
  write_u64(os, m.cols());
  for (const double x : m.flat()) write_f64(os, x);
}

linalg::Matrix read_matrix(std::istream& is) {
  const std::uint64_t rows = read_u64(is);
  const std::uint64_t cols = read_u64(is);
  SCWC_REQUIRE(rows <= (1ULL << 20) && cols <= (1ULL << 20) &&
                   rows * cols <= (1ULL << 26),
               "load_bundle: implausible matrix shape");
  linalg::Matrix m(rows, cols);
  for (auto& x : m.flat()) x = read_f64(is);
  return m;
}

}  // namespace

void save_bundle(const ModelBundle& bundle, std::ostream& os) {
  const auto* forest = dynamic_cast<const ml::RandomForest*>(&bundle.model());
  SCWC_REQUIRE(forest != nullptr,
               "save_bundle: only RandomForest bundles are serialisable, got " +
                   bundle.model().name());

  write_u64(os, kBundleMagic);
  write_u64(os, kFormatVersion);
  write_string(os, bundle.version());

  const robust::GuardedConfig& guard = bundle.guard_config();
  write_u64(os, guard.window_steps);
  write_u64(os, guard.sensors);
  write_f64(os, guard.min_quality);
  write_u64(os, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(guard.fallback_label)));
  write_u64(os, static_cast<std::uint64_t>(guard.imputation.policy));
  write_vec(os, guard.imputation.sensor_prior_means);

  const preprocess::FeaturePipeline& pipeline = bundle.pipeline();
  write_u64(os, static_cast<std::uint64_t>(pipeline.config().reduction));
  write_u64(os, pipeline.config().pca_components);
  write_u64(os, pipeline.steps());
  write_u64(os, pipeline.sensors());
  write_vec(os, pipeline.scaler().means());
  write_vec(os, pipeline.scaler().scales());
  write_u64(os, pipeline.pca().has_value() ? 1 : 0);
  if (pipeline.pca().has_value()) {
    const preprocess::Pca& pca = *pipeline.pca();
    write_vec(os, pca.mean());
    write_matrix(os, pca.components_matrix());
    write_vec(os, pca.explained_variance());
    write_vec(os, pca.explained_variance_ratio());
  }

  write_string(os, forest->name());
  forest->save(os);
  SCWC_REQUIRE(os.good(), "save_bundle: stream write failed");
}

void save_bundle_file(const ModelBundle& bundle, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  SCWC_REQUIRE(os.is_open(), "save_bundle_file: cannot open " + path);
  save_bundle(bundle, os);
}

std::shared_ptr<const ModelBundle> load_bundle(std::istream& is) {
  SCWC_REQUIRE(read_u64(is) == kBundleMagic, "load_bundle: bad magic");
  SCWC_REQUIRE(read_u64(is) == kFormatVersion,
               "load_bundle: unsupported format version");
  std::string version = read_string(is);

  robust::GuardedConfig guard;
  guard.window_steps = read_u64(is);
  guard.sensors = read_u64(is);
  guard.min_quality = read_f64(is);
  guard.fallback_label =
      static_cast<int>(static_cast<std::int64_t>(read_u64(is)));
  const std::uint64_t policy = read_u64(is);
  SCWC_REQUIRE(policy <= static_cast<std::uint64_t>(
                             robust::Imputation::kPriorMean),
               "load_bundle: unknown imputation policy");
  guard.imputation.policy = static_cast<robust::Imputation>(policy);
  guard.imputation.sensor_prior_means = read_vec(is);
  SCWC_REQUIRE(std::isfinite(guard.min_quality),
               "load_bundle: non-finite min_quality");

  preprocess::FeaturePipelineConfig pipeline_config;
  const std::uint64_t reduction = read_u64(is);
  SCWC_REQUIRE(
      reduction <= static_cast<std::uint64_t>(preprocess::Reduction::kNone),
      "load_bundle: unknown reduction");
  pipeline_config.reduction = static_cast<preprocess::Reduction>(reduction);
  pipeline_config.pca_components = read_u64(is);
  const std::size_t steps = read_u64(is);
  const std::size_t sensors = read_u64(is);
  linalg::Vector scaler_means = read_vec(is);   // sequence the two reads —
  linalg::Vector scaler_scales = read_vec(is);  // argument order is unspecified
  preprocess::StandardScaler scaler = preprocess::StandardScaler::restore(
      std::move(scaler_means), std::move(scaler_scales));
  std::optional<preprocess::Pca> pca;
  if (read_u64(is) != 0) {
    linalg::Vector mean = read_vec(is);
    linalg::Matrix components = read_matrix(is);
    linalg::Vector variance = read_vec(is);
    linalg::Vector ratio = read_vec(is);
    pca = preprocess::Pca::restore(std::move(mean), std::move(components),
                                   std::move(variance), std::move(ratio));
  }
  preprocess::FeaturePipeline pipeline = preprocess::FeaturePipeline::restore(
      pipeline_config, steps, sensors, std::move(scaler), std::move(pca));

  const std::string tag = read_string(is);
  SCWC_REQUIRE(tag == "RandomForest",
               "load_bundle: unsupported model tag: " + tag);
  auto forest = std::make_unique<ml::RandomForest>();
  forest->load(is);
  SCWC_REQUIRE(forest->input_width() <= pipeline.output_dim(),
               "load_bundle: forest splits on a feature the pipeline does "
               "not produce");

  SCWC_REQUIRE(guard.window_steps == steps && guard.sensors == sensors,
               "load_bundle: guard/pipeline geometry mismatch");
  return std::make_shared<const ModelBundle>(
      std::move(version), std::move(pipeline), std::move(forest), guard);
}

std::shared_ptr<const ModelBundle> load_bundle_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "load_bundle_file: cannot open " + path);
  return load_bundle(is);
}

namespace {

std::shared_ptr<const ModelBundle> try_swap(
    ModelRegistry& registry,
    const std::function<std::shared_ptr<const ModelBundle>()>& load) {
  // The whole load happens BEFORE the registry is touched, so a failure at
  // any byte leaves the current bundle serving — no partial swap exists.
  std::shared_ptr<const ModelBundle> bundle;
  std::string what;
  try {
    bundle = load();
  } catch (const std::exception& e) {
    what = e.what();
    bundle = nullptr;
  }
  if (bundle == nullptr) {
    obs::MetricsRegistry::global()
        .counter("scwc_serve_bundle_load_failures_total")
        .inc();
    SCWC_LOG_WARN("bundle swap refused: " << what);
    return nullptr;
  }
  try {
    registry.register_bundle(bundle, /*activate=*/true);
  } catch (const std::exception& e) {
    // e.g. duplicate version — still a refused swap, registry unchanged.
    obs::MetricsRegistry::global()
        .counter("scwc_serve_bundle_load_failures_total")
        .inc();
    SCWC_LOG_WARN("bundle swap refused: " << e.what());
    return nullptr;
  }
  return bundle;
}

}  // namespace

std::shared_ptr<const ModelBundle> try_swap_from_stream(ModelRegistry& registry,
                                                        std::istream& is) {
  return try_swap(registry, [&is] { return load_bundle(is); });
}

std::shared_ptr<const ModelBundle> try_swap_from_file(ModelRegistry& registry,
                                                      const std::string& path) {
  return try_swap(registry, [&path] { return load_bundle_file(path); });
}

}  // namespace scwc::serve
