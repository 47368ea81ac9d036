// Where artifacts live on disk and how a domain names its slot there.
//
// Artifacts land in ./goodones_artifacts unless GOODONES_ARTIFACTS names
// another directory: the reproduction benches write their figure CSVs
// there, and the serving-path model registry keeps its bundles under it,
// keyed by domain_cache_key.
#pragma once

#include <filesystem>
#include <string>

#include "core/domain.hpp"

namespace goodones::core {

/// Artifact directory (created on demand).
std::filesystem::path artifacts_dir();

/// Cache key of a domain: its name plus its variant (differently-
/// parameterized adapter instances must not collide on one cache file).
std::string domain_cache_key(const DomainSpec& spec);

}  // namespace goodones::core
