// Multi-pass static analyzer for the GNRFET codebase. Enforces properties
// the compiler can't see but the physics results depend on:
//
//   layering      the module include graph must respect the layer DAG in
//                 tools/analysis_layers.txt (common -> linalg -> {gnr,
//                 poisson} -> negf -> {model, device} -> {circuit, cmos} ->
//                 explore), and no file-level include cycles
//   determinism   no unordered-container iteration, parallel STL policies,
//                 or wall-clock calls in library code; scalar FP
//                 accumulation loops in negf/linalg must route through the
//                 pinned summation orders of linalg/kernels.hpp (audited
//                 exceptions: tools/analysis_allowlist.txt)
//   contracts     GNRFET_REQUIRE/ENSURE/CHECK_FINITE density per subsystem
//                 must not regress vs tools/analysis_baseline.json
//   env-knobs     every "GNRFET_..." string literal in library code names
//                 one of the three library env knobs (GNRFET_CACHE_DIR,
//                 GNRFET_THREADS, GNRFET_TRACE)
//   repo-rules    the six project rules of check_repo_rules, over src/,
//                 tests/, bench/ and tools/ (the other passes read src/)
//
// (The thread-safety pass is the clang -Wthread-safety build over
// src/common/annotations.hpp; CI's `thread-safety` stage runs it.)
//
// Usage:
//   gnrfet_analyze [repo_root]
//       [--layers file] [--allowlist file] [--baseline file]
//       [--pass layering|determinism|contracts|env-knobs|repo-rules]
//                                (repeatable; default all)
//       [--report file]          write the full coverage JSON, with the
//                                per-subsystem uncovered-function lists
//       [--write-baseline]       regenerate the baseline instead of
//                                checking against it
//
// Exit codes: 0 clean, 1 findings, 2 bad usage/config.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analysis_passes.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gnrfet::analysis;

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::stringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

const std::set<std::string> kPasses = {"layering", "determinism", "contracts", "env-knobs",
                                       "repo-rules"};

/// Every .hpp/.cpp under root/{src,tests,bench,tools}, sorted by
/// repo-relative path.
std::vector<SourceFile> load_sources(const fs::path& root) {
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "tests", "bench", "tools"}) {
    if (!fs::exists(root / dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() != ".cpp" && p.extension() != ".hpp") continue;
      SourceFile file;
      file.path = fs::relative(p, root).generic_string();
      if (!read_file(p, file.content)) {
        std::cerr << "gnrfet_analyze: cannot read " << p << "\n";
        continue;
      }
      files.push_back(std::move(file));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  return files;
}

int usage() {
  std::cerr << "usage: gnrfet_analyze [repo_root] [--layers f] [--allowlist f] "
               "[--baseline f] [--report f] [--write-baseline] "
               "[--pass layering|determinism|contracts|env-knobs|repo-rules]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path layers_path, allowlist_path, baseline_path, report_path;
  bool write_baseline = false;
  std::set<std::string> passes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--layers") {
      if (const char* v = value()) layers_path = v; else return usage();
    } else if (arg == "--allowlist") {
      if (const char* v = value()) allowlist_path = v; else return usage();
    } else if (arg == "--baseline") {
      if (const char* v = value()) baseline_path = v; else return usage();
    } else if (arg == "--report") {
      if (const char* v = value()) report_path = v; else return usage();
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--pass") {
      const char* v = value();
      if (!v || kPasses.count(v) == 0) return usage();
      passes.insert(v);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      root = arg;
    }
  }
  if (passes.empty()) passes = kPasses;
  if (layers_path.empty()) layers_path = root / "tools" / "analysis_layers.txt";
  if (allowlist_path.empty()) allowlist_path = root / "tools" / "analysis_allowlist.txt";
  if (baseline_path.empty()) baseline_path = root / "tools" / "analysis_baseline.json";

  const std::vector<SourceFile> files = load_sources(root);
  const size_t src_files = static_cast<size_t>(std::count_if(
      files.begin(), files.end(), [](const SourceFile& f) { return !module_of(f.path).empty(); }));
  if (src_files == 0) {
    std::cerr << "gnrfet_analyze: no sources under " << (root / "src") << "\n";
    return 2;
  }

  std::vector<Finding> findings;
  std::vector<std::string> summaries;
  std::string error;

  if (passes.count("layering") != 0) {
    std::string text;
    if (!read_file(layers_path, text)) {
      std::cerr << "gnrfet_analyze: cannot read layer config " << layers_path << "\n";
      return 2;
    }
    LayerConfig cfg;
    if (!parse_layer_config(text, cfg, error)) {
      std::cerr << "gnrfet_analyze: " << layers_path.generic_string() << ": " << error << "\n";
      return 2;
    }
    size_t edges = 0;
    for (const auto& file : files) {
      if (!module_of(file.path).empty()) edges += project_includes(file).size();
    }
    const std::vector<Finding> f = check_layering(files, cfg);
    findings.insert(findings.end(), f.begin(), f.end());
    summaries.push_back("layering:    " + std::to_string(f.size()) + " finding(s) over " +
                        std::to_string(src_files) + " files, " + std::to_string(edges) +
                        " include edges, " + std::to_string(cfg.allowed.size()) + " modules");
  }

  if (passes.count("determinism") != 0) {
    Allowlist allowlist;
    std::string text;
    if (read_file(allowlist_path, text)) {
      if (!parse_allowlist(text, allowlist, error)) {
        std::cerr << "gnrfet_analyze: " << allowlist_path.generic_string() << ": " << error
                  << "\n";
        return 2;
      }
    }
    const std::vector<Finding> f = check_determinism(files, allowlist);
    findings.insert(findings.end(), f.begin(), f.end());
    summaries.push_back("determinism: " + std::to_string(f.size()) + " finding(s), " +
                        std::to_string(allowlist.entries.size()) + " allowlisted site(s)");
  }

  if (passes.count("contracts") != 0) {
    const CoverageReport report = measure_contract_coverage(files);
    if (!report_path.empty()) {
      std::ofstream out(report_path, std::ios::binary);
      out << coverage_to_json(report, /*include_uncovered=*/true);
    }
    if (write_baseline) {
      std::ofstream out(baseline_path, std::ios::binary);
      if (!out) {
        std::cerr << "gnrfet_analyze: cannot write " << baseline_path << "\n";
        return 2;
      }
      out << coverage_to_json(report, /*include_uncovered=*/false);
      summaries.push_back("contracts:   baseline written to " +
                          baseline_path.generic_string());
    } else {
      std::string text;
      if (!read_file(baseline_path, text)) {
        std::cerr << "gnrfet_analyze: cannot read baseline " << baseline_path
                  << " (generate it with --write-baseline)\n";
        return 2;
      }
      std::map<std::string, SubsystemCoverage> baseline;
      if (!read_baseline(text, baseline, error)) {
        std::cerr << "gnrfet_analyze: " << baseline_path.generic_string() << ": " << error
                  << "\n";
        return 2;
      }
      const std::vector<Finding> f = check_against_baseline(report, baseline);
      findings.insert(findings.end(), f.begin(), f.end());
      summaries.push_back(
          "contracts:   " + std::to_string(f.size()) + " finding(s); " +
          std::to_string(report.total.contracts) + " contracts cover " +
          std::to_string(report.total.functions_with_contracts) + "/" +
          std::to_string(report.total.functions) + " functions in " +
          std::to_string(report.subsystems.size()) + " subsystems");
    }
  }

  if (passes.count("env-knobs") != 0) {
    const std::vector<Finding> f = check_library_env_knobs(files);
    findings.insert(findings.end(), f.begin(), f.end());
    summaries.push_back("env-knobs:   " + std::to_string(f.size()) + " finding(s), " +
                        std::to_string(library_env_knobs().size()) + " library knobs");
  }

  if (passes.count("repo-rules") != 0) {
    const std::vector<Finding> f = check_repo_rules(files);
    findings.insert(findings.end(), f.begin(), f.end());
    summaries.push_back("repo-rules:  " + std::to_string(f.size()) + " finding(s) over " +
                        std::to_string(files.size()) + " files");
  }

  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  for (const auto& s : summaries) std::cout << "gnrfet_analyze: " << s << "\n";
  return findings.empty() ? 0 : 1;
}
