#include "common/cache.hpp"

#include <filesystem>

#include "common/env.hpp"
#include "common/strings.hpp"

namespace gnrfet::cache {

namespace {

/// Locate (and create) the default cache directory: walk up from the
/// current directory looking for the repository root (identified by
/// DESIGN.md); fall back to ./data/cache.
std::string resolve_default_directory() {
  namespace fs = std::filesystem;
  fs::path dir = fs::current_path();
  for (int depth = 0; depth < 6; ++depth) {
    if (fs::exists(dir / "DESIGN.md") && fs::exists(dir / "src")) {
      const fs::path cache = dir / "data" / "cache";
      fs::create_directories(cache);
      return cache.string();
    }
    if (!dir.has_parent_path() || dir.parent_path() == dir) break;
    dir = dir.parent_path();
  }
  const fs::path cache = fs::current_path() / "data" / "cache";
  fs::create_directories(cache);
  return cache.string();
}

}  // namespace

std::string directory() {
  // The GNRFET_CACHE_DIR override is re-read and created on every call, so
  // tests can repoint it and a removed directory comes back; callers ask
  // once per table, and create_directories on an existing path is one stat.
  if (std::string env = common::env_or("GNRFET_CACHE_DIR", ""); !env.empty()) {
    std::filesystem::create_directories(env);
    return env;
  }
  // No override: resolve and create exactly once, thread-safely, instead
  // of re-walking the tree on every path_for() call.
  static const std::string resolved = resolve_default_directory();
  return resolved;
}

std::string path_for(const std::string& name, const std::string& config_payload) {
  return directory() + "/" + name + "-" + strings::hash_hex(config_payload) + ".csv";
}

bool exists(const std::string& path) { return std::filesystem::exists(path); }

}  // namespace gnrfet::cache
