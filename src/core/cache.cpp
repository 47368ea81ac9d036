#include "core/cache.hpp"

#include <cstdlib>

namespace goodones::core {

std::filesystem::path artifacts_dir() {
  const char* env = std::getenv("GOODONES_ARTIFACTS");
  const std::filesystem::path dir = env != nullptr ? env : "goodones_artifacts";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string domain_cache_key(const DomainSpec& spec) {
  return spec.variant.empty() ? spec.name : spec.name + "-" + spec.variant;
}

}  // namespace goodones::core
