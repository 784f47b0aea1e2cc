// Bundle persistence: serialise a ModelBundle so a serving process can load
// a version without retraining (and roll between versions from disk).
//
// Format SCWCBNDL, written through common/byte_io like every binary format
// of the tree: magic, format version, bundle version string, guard config,
// fitted pipeline parameters (scaler, optional PCA basis), then the model
// tagged by Classifier::name(), which RandomForest::save writes into the
// same writer. Only RandomForest models are supported; other families serve
// from freshly trained in-process bundles.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/byte_io.hpp"
#include "serve/model_registry.hpp"

namespace scwc::serve {

/// Writes `bundle`. Throws scwc::Error for model families without a
/// serialiser (anything but RandomForest) or on I/O failure. The file
/// wrapper streams through a bounded buffer.
void save_bundle(const ModelBundle& bundle, ByteWriter& w);
void save_bundle_file(const ModelBundle& bundle, const std::string& path);

/// Reads a bundle back. Throws scwc::Error naming the byte offset on bad
/// magic, unsupported format or model tag, truncation, or non-finite /
/// ill-shaped parameters. The file wrapper's errors read "load_bundle: …".
[[nodiscard]] std::shared_ptr<const ModelBundle> load_bundle(ByteReader& r);
[[nodiscard]] std::shared_ptr<const ModelBundle> load_bundle_file(
    const std::string& path);

/// Failure-isolating hot swap: loads a bundle from `bytes` and registers +
/// activates it atomically — or, if the load fails for ANY reason (typed
/// parse error, allocation failure, a version the registry refuses), leaves
/// the registry completely untouched, counts
/// scwc_serve_bundle_load_failures_total, and returns nullptr. A bad bundle
/// can therefore never take down serving of the current one. Returns the
/// activated bundle on success.
std::shared_ptr<const ModelBundle> try_swap_from_bytes(ModelRegistry& registry,
                                                       std::string_view bytes);

}  // namespace scwc::serve
