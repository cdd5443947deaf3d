#pragma once

// Pass logic for gnrfet_analyze (see gnrfet_analyze.cpp for the CLI).
//
// Everything here operates on in-memory SourceFile lists so the tests can
// feed synthetic fixtures through the exact code CI runs:
//
//   Pass 1  check_layering       module include graph vs tools/analysis_layers.txt
//                                + file-level include cycle detection
//   Pass 2  check_determinism    unordered containers, parallel STL, wall-clock
//                                calls, loop FP accumulation outside kernels.hpp
//   Pass 3  (thread-safety)      lives in the compiler: clang -Wthread-safety
//                                over src/common/annotations.hpp, wired up by
//                                the CI `thread-safety` stage, not replicated here
//   Pass 4  contract_coverage    GNRFET_REQUIRE/ENSURE/CHECK_FINITE density per
//                                subsystem vs tools/analysis_baseline.json
//   Pass 5  check_library_env_knobs  "GNRFET_..." string literals under src/
//                                name only the library's env knobs
//   Pass 6  check_repo_rules     project rules over src/, tests/, bench/ and
//                                tools/ that the compiler does not enforce

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/json.hpp"
#include "tools/source_scan.hpp"

namespace gnrfet::analysis {

/// A source file as the passes see it: repo-relative generic path (e.g.
/// "src/negf/rgf.cpp") plus the raw file content.
struct SourceFile {
  std::string path;
  std::string content;
};

struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// "src/<module>/..." -> "<module>"; empty for anything else.
inline std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

inline size_t line_of_pos(const std::string& text, size_t pos) {
  return 1 + static_cast<size_t>(std::count(text.begin(), text.begin() + static_cast<long>(std::min(pos, text.size())), '\n'));
}

inline std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------------
// Pass 1: architecture layering
// ---------------------------------------------------------------------------

/// Parsed tools/analysis_layers.txt: for each module under src/, the set of
/// other modules it may include. Format, one module per line:
///
///   module: dep dep dep      # comment
///
/// A module may always include itself; every dep must itself be declared,
/// and the allowed-dependency relation must be acyclic (it is the transitive
/// closure of the layer DAG, written out explicitly so a reviewer can see
/// exactly what each module may reach).
struct LayerConfig {
  std::map<std::string, std::set<std::string>> allowed;
};

inline bool parse_layer_config(const std::string& text, LayerConfig& cfg, std::string& error) {
  cfg.allowed.clear();
  size_t lineno = 0;
  for (std::string line : split_lines(text)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected 'module: deps...'";
      return false;
    }
    const std::string module = trim(line.substr(0, colon));
    if (module.empty()) {
      error = "line " + std::to_string(lineno) + ": empty module name";
      return false;
    }
    if (cfg.allowed.count(module) != 0) {
      error = "line " + std::to_string(lineno) + ": duplicate module '" + module + "'";
      return false;
    }
    std::set<std::string>& deps = cfg.allowed[module];
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) deps.insert(dep);
    deps.erase(module);  // self is implied
  }
  for (const auto& [module, deps] : cfg.allowed) {
    for (const auto& dep : deps) {
      if (cfg.allowed.count(dep) == 0) {
        error = "module '" + module + "' depends on undeclared module '" + dep + "'";
        return false;
      }
    }
  }
  // The relation must be a DAG: a cycle would make "lower layer" meaningless.
  std::map<std::string, int> color;  // 0 unvisited, 1 on stack, 2 done
  struct Dfs {
    const LayerConfig& cfg;
    std::map<std::string, int>& color;
    std::string cycle;
    bool visit(const std::string& m) {
      color[m] = 1;
      for (const auto& dep : cfg.allowed.at(m)) {
        if (color[dep] == 1) {
          cycle = m + " -> " + dep;
          return false;
        }
        if (color[dep] == 0 && !visit(dep)) {
          cycle = m + " -> " + cycle;
          return false;
        }
      }
      color[m] = 2;
      return true;
    }
  } dfs{cfg, color, ""};
  for (const auto& [module, deps] : cfg.allowed) {
    if (color[module] == 0 && !dfs.visit(module)) {
      error = "allowed-dependency relation is cyclic: " + dfs.cycle;
      return false;
    }
  }
  return true;
}

/// All project includes of a file: quoted `#include "..."` paths, extracted
/// from the raw line (the stripper blanks string literals) at lines the
/// stripped content confirms are real directives, not comment examples.
inline std::vector<std::pair<size_t, std::string>> project_includes(const SourceFile& file) {
  std::vector<std::pair<size_t, std::string>> out;
  const std::vector<std::string> raw = split_lines(file.content);
  const std::vector<std::string> stripped =
      split_lines(scan::strip_comments_and_strings(file.content));
  for (size_t i = 0; i < stripped.size() && i < raw.size(); ++i) {
    const std::string& s = stripped[i];
    const size_t hash = s.find('#');
    if (hash == std::string::npos || s.find_first_not_of(" \t") != hash) continue;
    const size_t kw = s.find_first_not_of(" \t", hash + 1);
    if (kw == std::string::npos || s.compare(kw, 7, "include") != 0) continue;
    const size_t open = raw[i].find('"', kw + 7);
    if (open == std::string::npos) continue;  // <system> include
    const size_t close = raw[i].find('"', open + 1);
    if (close == std::string::npos) continue;
    out.emplace_back(i + 1, raw[i].substr(open + 1, close - open - 1));
  }
  return out;
}

/// Pass 1. Checks the src/ files among `files` (sorted by path).
inline std::vector<Finding> check_layering(const std::vector<SourceFile>& files,
                                           const LayerConfig& cfg) {
  std::vector<Finding> findings;
  // File-level include graph keyed by include-path form ("common/env.hpp").
  std::map<std::string, std::vector<std::string>> graph;
  std::map<std::string, std::string> display;  // include key -> repo path
  for (const auto& file : files) {
    if (!module_of(file.path).empty()) graph[file.path.substr(4)];  // ensure node
  }
  for (const auto& file : files) {
    const std::string module = module_of(file.path);
    if (module.empty()) continue;
    if (cfg.allowed.count(module) == 0) {
      findings.push_back({file.path, 1, "layering",
                          "module '" + module +
                              "' is not declared in tools/analysis_layers.txt; add it to the "
                              "layer DAG before introducing a subsystem"});
      continue;
    }
    const std::string key = file.path.substr(4);
    display[key] = file.path;
    for (const auto& [line, inc] : project_includes(file)) {
      const size_t slash = inc.find('/');
      if (slash == std::string::npos) continue;
      const std::string target = inc.substr(0, slash);
      if (cfg.allowed.count(target) == 0) continue;  // not a src/ module path
      if (graph.count(inc) != 0) graph[key].push_back(inc);
      if (target == module) continue;
      if (cfg.allowed.at(module).count(target) == 0) {
        std::string allowed_list;
        for (const auto& a : cfg.allowed.at(module)) {
          if (!allowed_list.empty()) allowed_list += ", ";
          allowed_list += a;
        }
        findings.push_back(
            {file.path, line, "layering",
             "illegal dependency edge " + module + " -> " + target + " (include \"" + inc +
                 "\"); '" + module + "' may only reach [" +
                 (allowed_list.empty() ? "nothing" : allowed_list) +
                 "] per tools/analysis_layers.txt"});
      }
    }
  }
  // File-level cycles (a <-> b through headers) are illegal even inside one
  // module: report the offending chain.
  std::map<std::string, int> color;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::set<std::string> reported;
  struct Dfs {
    const std::map<std::string, std::vector<std::string>>& graph;
    std::map<std::string, int>& color;
    std::vector<std::string>& stack;
    std::set<std::string>& reported;
    std::vector<Finding>& findings;
    const std::map<std::string, std::string>& display;
    void visit(const std::string& n) {
      color[n] = 1;
      stack.push_back(n);
      auto it = graph.find(n);
      if (it != graph.end()) {
        for (const auto& dep : it->second) {
          if (color[dep] == 1) {
            // Found a back edge: the cycle is stack[first(dep)..end] + dep.
            std::string chain;
            std::set<std::string> members;
            bool in_cycle = false;
            for (const auto& s : stack) {
              if (s == dep) in_cycle = true;
              if (!in_cycle) continue;
              chain += s + " -> ";
              members.insert(s);
            }
            chain += dep;
            // Report each distinct cycle once, keyed by its member set.
            std::string sig;
            for (const auto& m : members) sig += m + ";";
            if (reported.insert(sig).second) {
              auto disp = display.find(dep);
              findings.push_back({disp != display.end() ? disp->second : "src/" + dep, 1,
                                  "layering", "include cycle: " + chain});
            }
          } else if (color[dep] == 0) {
            visit(dep);
          }
        }
      }
      stack.pop_back();
      color[n] = 2;
    }
  } dfs{graph, color, stack, reported, findings, display};
  for (const auto& [node, deps] : graph) {
    if (color[node] == 0) dfs.visit(node);
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 2: determinism lint
// ---------------------------------------------------------------------------

/// Parsed tools/analysis_allowlist.txt: audited exceptions to determinism
/// rules. Format, one entry per line:
///
///   path rule token    # justification (required by convention)
///
/// `token` is the flagged identifier ('*' matches any token of that rule in
/// that file). Every entry names one audited site; the analyzer prints the
/// exact entry to add when it flags something, and reports an entry that
/// exempts no site (stale: its code moved or was deleted).
struct Allowlist {
  std::map<std::string, size_t> entries;  // "path|rule|token" -> line

  bool contains(const std::string& path, const std::string& rule,
                const std::string& token) const {
    return entries.count(path + "|" + rule + "|" + token) != 0 ||
           entries.count(path + "|" + rule + "|*") != 0;
  }
};

inline bool parse_allowlist(const std::string& text, Allowlist& out, std::string& error) {
  out.entries.clear();
  size_t lineno = 0;
  for (std::string line : split_lines(text)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string path, rule, token, extra;
    if (!(fields >> path >> rule >> token) || (fields >> extra)) {
      error = "line " + std::to_string(lineno) + ": expected 'path rule token  # why'";
      return false;
    }
    out.entries.emplace(path + "|" + rule + "|" + token, lineno);
  }
  return true;
}

namespace detail {

/// `qualified` ("std::reduce") occurs in `line` with identifier boundaries on
/// both ends.
inline bool has_qualified(const std::string& line, const std::string& qualified) {
  size_t pos = line.find(qualified);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !scan::ident_char(line[pos - 1]);
    const size_t end = pos + qualified.size();
    const bool right_ok = end >= line.size() || !scan::ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos = line.find(qualified, pos + 1);
  }
  return false;
}

/// Identifiers declared in `stripped` as scalar doubles (`double name` being
/// introduced, not a function returning double or an array).
inline std::set<std::string> double_scalar_decls(const std::string& stripped) {
  std::set<std::string> names;
  size_t pos = scan::find_token(stripped, "double");
  while (pos != std::string::npos) {
    size_t i = pos + 6;
    while (i < stripped.size() && (stripped[i] == ' ' || stripped[i] == '\t' ||
                                   stripped[i] == '\n'))
      ++i;
    size_t b = i;
    while (i < stripped.size() && scan::ident_char(stripped[i])) ++i;
    if (i > b) {
      size_t j = i;
      while (j < stripped.size() && (stripped[j] == ' ' || stripped[j] == '\t')) ++j;
      const char after = j < stripped.size() ? stripped[j] : ';';
      if (after == '=' || after == ';' || after == ',' || after == '{' || after == ')') {
        names.insert(stripped.substr(b, i - b));
      }
    }
    pos = scan::find_token(stripped, "double", pos + 6);
  }
  return names;
}

/// [open, close] ranges of loop bodies ({...} after for/while/do) in
/// `stripped`, via a brace-matching scan.
inline std::vector<std::pair<size_t, size_t>> loop_body_ranges(const std::string& stripped) {
  std::vector<std::pair<size_t, size_t>> loops;
  std::vector<std::pair<size_t, bool>> stack;  // (open pos, is loop body)
  for (size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '{') {
      long p = static_cast<long>(i) - 1;
      auto skipws = [&] {
        while (p >= 0 && (stripped[static_cast<size_t>(p)] == ' ' ||
                          stripped[static_cast<size_t>(p)] == '\t' ||
                          stripped[static_cast<size_t>(p)] == '\n'))
          --p;
      };
      skipws();
      bool is_loop = false;
      if (p >= 0 && stripped[static_cast<size_t>(p)] == ')') {
        int depth = 1;
        --p;
        while (p >= 0 && depth > 0) {
          if (stripped[static_cast<size_t>(p)] == ')') ++depth;
          if (stripped[static_cast<size_t>(p)] == '(') --depth;
          --p;
        }
        skipws();
        long e = p;
        while (p >= 0 && scan::ident_char(stripped[static_cast<size_t>(p)])) --p;
        const std::string word = stripped.substr(static_cast<size_t>(p + 1),
                                                 static_cast<size_t>(e - p));
        is_loop = word == "for" || word == "while";
      } else if (p >= 1 && stripped[static_cast<size_t>(p)] == 'o' &&
                 stripped[static_cast<size_t>(p) - 1] == 'd' &&
                 (p < 2 || !scan::ident_char(stripped[static_cast<size_t>(p) - 2]))) {
        is_loop = true;  // do { ... } while
      }
      stack.emplace_back(i, is_loop);
    } else if (c == '}' && !stack.empty()) {
      if (stack.back().second) loops.emplace_back(stack.back().first, i);
      stack.pop_back();
    }
  }
  return loops;
}

}  // namespace detail

/// Pass 2. Checks the src/ files among `files` (sorted by path), then
/// reports every allowlist entry that exempted none of their sites.
inline std::vector<Finding> check_determinism(const std::vector<SourceFile>& files,
                                              const Allowlist& allowlist) {
  std::vector<Finding> findings;
  std::set<std::string> used;
  auto flag = [&](const SourceFile& f, size_t line, const std::string& rule,
                  const std::string& token, const std::string& why) {
    if (allowlist.contains(f.path, rule, token)) {
      const std::string exact = f.path + "|" + rule + "|" + token;
      used.insert(allowlist.entries.count(exact) != 0 ? exact : f.path + "|" + rule + "|*");
      return;
    }
    findings.push_back({f.path, line, rule,
                        why + " [audited exceptions go in tools/analysis_allowlist.txt as '" +
                            f.path + " " + rule + " " + token + "']"});
  };
  for (const auto& file : files) {
    const std::string module = module_of(file.path);
    if (module.empty()) continue;
    const std::string stripped = scan::strip_comments_and_strings(file.content);
    const std::vector<std::string> lines = split_lines(stripped);
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const size_t lineno = i + 1;
      for (const char* container : {"unordered_map", "unordered_set"}) {
        if (scan::find_token(line, container) != std::string::npos) {
          flag(file, lineno, "unordered-container", container,
               std::string("std::") + container +
                   " has runtime-random iteration order; results must be independent of "
                   "hash seeds — use std::map/std::set or a sorted vector");
        }
      }
      for (const char* par : {"std::reduce", "std::transform_reduce", "std::execution"}) {
        if (detail::has_qualified(line, par)) {
          flag(file, lineno, "parallel-stl", par + 5,
               std::string(par) +
                   " reassociates floating-point reductions nondeterministically; use the "
                   "fixed summation orders in linalg/kernels.hpp");
        }
      }
      if (line.find("<execution>") != std::string::npos &&
          line.find("include") != std::string::npos) {
        flag(file, lineno, "parallel-stl", "execution",
             "the <execution> header (parallel STL policies) is banned; use the "
             "deterministic thread pool in common/parallel.hpp");
      }
      if (module != "common") {
        for (const char* fn : {"time", "clock", "gettimeofday", "clock_gettime"}) {
          if (scan::has_call(line, fn)) {
            flag(file, lineno, "wall-clock", fn,
                 std::string(fn) +
                     "() makes library results time-dependent; timing belongs to "
                     "common/trace.hpp spans and the metrics registry");
          }
        }
        for (const char* clk : {"system_clock", "steady_clock", "high_resolution_clock"}) {
          if (scan::find_token(line, clk) != std::string::npos) {
            flag(file, lineno, "wall-clock", clk,
                 std::string("std::chrono::") + clk +
                     " outside src/common/: timing belongs to common/trace.hpp spans");
          }
        }
      }
    }
    // FP accumulation: scalar double `x += ...` / `x -= ...` inside a loop in
    // the numerical kernels' home modules must go through kernels.hpp (or be
    // an audited allowlist entry) so summation order stays pinned.
    if (module == "negf" || module == "linalg") {
      const std::set<std::string> doubles = detail::double_scalar_decls(stripped);
      const std::vector<std::pair<size_t, size_t>> loops =
          detail::loop_body_ranges(stripped);
      for (const char* op : {"+=", "-="}) {
        size_t pos = stripped.find(op);
        while (pos != std::string::npos) {
          long p = static_cast<long>(pos) - 1;
          while (p >= 0 && (stripped[static_cast<size_t>(p)] == ' ' ||
                            stripped[static_cast<size_t>(p)] == '\t'))
            --p;
          long e = p;
          while (p >= 0 && scan::ident_char(stripped[static_cast<size_t>(p)])) --p;
          const std::string name =
              e > p ? stripped.substr(static_cast<size_t>(p + 1), static_cast<size_t>(e - p))
                    : "";
          // Only bare scalars: `v[i] +=`, `s.x +=`, `p->x +=` update elements
          // or members, which the rule does not cover.
          const char before = p >= 0 ? stripped[static_cast<size_t>(p)] : ' ';
          if (!name.empty() && before != '.' && before != ']' && before != '>' &&
              doubles.count(name) != 0) {
            bool in_loop = false;
            for (const auto& [b, en] : loops) {
              if (pos > b && pos < en) {
                in_loop = true;
                break;
              }
            }
            if (!in_loop) {
              // Braceless loop body on the same line: `for (...) s += x;`
              const size_t bol = stripped.rfind('\n', pos);
              const std::string head = stripped.substr(
                  bol == std::string::npos ? 0 : bol + 1,
                  pos - (bol == std::string::npos ? 0 : bol + 1));
              in_loop = scan::find_token(head, "for") != std::string::npos ||
                        scan::find_token(head, "while") != std::string::npos;
            }
            if (in_loop) {
              flag(file, line_of_pos(stripped, pos), "fp-accumulation", name,
                   "scalar double '" + name +
                       "' accumulated in a loop bypasses the pinned summation orders in "
                       "linalg/kernels.hpp; use kernels::sum/dot or audit the site");
            }
          }
          pos = stripped.find(op, pos + 2);
        }
      }
    }
  }
  for (const auto& [key, line] : allowlist.entries) {
    if (used.count(key) != 0) continue;
    std::string entry = key;
    std::replace(entry.begin(), entry.end(), '|', ' ');
    findings.push_back({"tools/analysis_allowlist.txt", line, "stale-allowlist",
                        "'" + entry +
                            "' exempts no site; delete the entry, or fix it to name the "
                            "moved site"});
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 4: contract coverage
// ---------------------------------------------------------------------------

struct FunctionInfo {
  std::string name;
  size_t line = 0;
  size_t body_begin = 0;  // position of '{' in the stripped content
  size_t body_end = 0;    // position of matching '}'
  bool has_contract = false;
};

namespace detail {

inline bool macro_like(const std::string& name) {
  if (name.size() < 2) return false;
  bool has_alpha = false;
  for (char c : name) {
    if (c >= 'a' && c <= 'z') return false;
    if ((c >= 'A' && c <= 'Z')) has_alpha = true;
    if (!(scan::ident_char(c))) return false;
  }
  return has_alpha;
}

/// Heuristic classification of the '{' at `brace`: does it open a function
/// body, and if so what is the function's (possibly qualified) name? Walks
/// backwards over specifiers (const/noexcept/override/...), attribute-style
/// macros with arguments (GNRFET_REQUIRES(mu_)), and constructor
/// initializer lists (`: a_(x), b_{y}`), then recognizes `name(params)`.
inline bool classify_function_open(const std::string& s, size_t brace, std::string& name_out) {
  long p = static_cast<long>(brace) - 1;
  auto at = [&](long i) { return s[static_cast<size_t>(i)]; };
  auto skipws = [&] {
    while (p >= 0 && (at(p) == ' ' || at(p) == '\t' || at(p) == '\n')) --p;
  };
  auto match_back = [&](char open, char close) {
    int depth = 1;
    --p;
    while (p >= 0 && depth > 0) {
      if (at(p) == close) ++depth;
      if (at(p) == open) --depth;
      --p;
    }
    return depth == 0;
  };
  auto read_ident_back = [&] {
    long e = p;
    while (p >= 0 && (scan::ident_char(at(p)) || at(p) == ':' || at(p) == '~')) --p;
    return s.substr(static_cast<size_t>(p + 1), static_cast<size_t>(e - p));
  };
  static const std::set<std::string> kSpecifiers = {"const",    "noexcept", "override",
                                                    "final",    "mutable",  "try",
                                                    "constexpr"};
  static const std::set<std::string> kControl = {"if",     "for",    "while",   "switch",
                                                 "catch",  "return", "sizeof",  "alignof",
                                                 "decltype"};
  for (int guard = 0; guard < 64; ++guard) {
    skipws();
    if (p < 0) return false;
    const char c = at(p);
    if (c == ')') {
      if (!match_back('(', ')')) return false;
      skipws();
      if (p >= 0 && at(p) == ')') {
        // operator()(args): match the empty pair, expect `operator` before it.
        if (!match_back('(', ')')) return false;
        skipws();
        const std::string word = read_ident_back();
        if (word == "operator") {
          name_out = "operator()";
          return true;
        }
        return false;
      }
      std::string name = read_ident_back();
      if (name.empty()) {
        // operator+ / operator== / ... : a run of operator symbols.
        long e = p;
        while (p >= 0 && std::string("+-*/%^&|~!=<>").find(at(p)) != std::string::npos) --p;
        const std::string sym =
            s.substr(static_cast<size_t>(p + 1), static_cast<size_t>(e - p));
        if (sym.empty()) return false;
        skipws();
        const std::string word = read_ident_back();
        if (word == "operator") {
          name_out = "operator" + sym;
          return true;
        }
        return false;
      }
      std::string base = name;
      const size_t sep = base.rfind("::");
      if (sep != std::string::npos) base = base.substr(sep + 2);
      if (kControl.count(base) != 0 || base == "do") return false;
      if (base == "noexcept" || macro_like(base)) continue;  // specifier with args
      skipws();
      if (p >= 0 && (at(p) == ',' || (at(p) == ':' && (p == 0 || at(p - 1) != ':')))) {
        --p;  // constructor initializer-list element; keep walking back
        continue;
      }
      name_out = name;
      return true;
    }
    if (c == '}') {
      // Brace member-init `b_{y}` in an initializer list.
      if (!match_back('{', '}')) return false;
      skipws();
      if (read_ident_back().empty()) return false;
      skipws();
      if (p >= 0 && (at(p) == ',' || (at(p) == ':' && (p == 0 || at(p - 1) != ':')))) {
        --p;
        continue;
      }
      return false;
    }
    if (scan::ident_char(c)) {
      long e = p;
      while (p >= 0 && scan::ident_char(at(p))) --p;
      const std::string word =
          s.substr(static_cast<size_t>(p + 1), static_cast<size_t>(e - p));
      if (kSpecifiers.count(word) != 0) continue;
      return false;  // struct/namespace/enum/else/do/brace-init/...
    }
    return false;
  }
  return false;
}

}  // namespace detail

/// Function definitions in stripped content, with body ranges for contract
/// attribution. Heuristic (see classify_function_open); lambdas and trailing
/// return types are deliberately not counted as functions.
inline std::vector<FunctionInfo> extract_functions(const std::string& stripped) {
  std::vector<FunctionInfo> fns;
  std::vector<long> stack;  // index into fns, or -1 for non-function braces
  size_t line = 1;
  for (size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
    } else if (c == '{') {
      std::string name;
      if (detail::classify_function_open(stripped, i, name)) {
        fns.push_back({name, line, i, 0, false});
        stack.push_back(static_cast<long>(fns.size()) - 1);
      } else {
        stack.push_back(-1);
      }
    } else if (c == '}' && !stack.empty()) {
      if (stack.back() >= 0) fns[static_cast<size_t>(stack.back())].body_end = i;
      stack.pop_back();
    }
  }
  return fns;
}

struct SubsystemCoverage {
  size_t contracts = 0;
  size_t functions = 0;
  size_t functions_with_contracts = 0;
};

struct CoverageReport {
  std::map<std::string, SubsystemCoverage> subsystems;
  SubsystemCoverage total;
  /// Per subsystem: "path:line name" of functions without any contract.
  std::map<std::string, std::vector<std::string>> uncovered;
};

/// Pass 4 measurement over the src/ files among `files`.
inline CoverageReport measure_contract_coverage(const std::vector<SourceFile>& files) {
  static const std::vector<std::string> kContractMacros = {
      "GNRFET_REQUIRE", "GNRFET_ENSURE", "GNRFET_CHECK_FINITE"};
  CoverageReport report;
  for (const auto& file : files) {
    const std::string module = module_of(file.path);
    if (module.empty()) continue;
    // The contract layer itself defines the macros; counting the definitions
    // would credit common with phantom contracts.
    if (file.path == "src/common/contracts.hpp") continue;
    const std::string stripped = scan::strip_comments_and_strings(file.content);
    SubsystemCoverage& sub = report.subsystems[module];
    std::vector<FunctionInfo> fns = extract_functions(stripped);
    for (const std::string& macro : kContractMacros) {
      size_t pos = scan::find_token(stripped, macro);
      while (pos != std::string::npos) {
        ++sub.contracts;
        // Attribute to the innermost enclosing function definition.
        long best = -1;
        for (size_t f = 0; f < fns.size(); ++f) {
          if (fns[f].body_begin < pos && pos < fns[f].body_end &&
              (best < 0 || fns[f].body_begin > fns[static_cast<size_t>(best)].body_begin)) {
            best = static_cast<long>(f);
          }
        }
        if (best >= 0) fns[static_cast<size_t>(best)].has_contract = true;
        pos = scan::find_token(stripped, macro, pos + macro.size());
      }
    }
    for (const auto& fn : fns) {
      ++sub.functions;
      if (fn.has_contract) {
        ++sub.functions_with_contracts;
      } else {
        report.uncovered[module].push_back(file.path + ":" + std::to_string(fn.line) + " " +
                                           fn.name);
      }
    }
  }
  for (const auto& [module, sub] : report.subsystems) {
    report.total.contracts += sub.contracts;
    report.total.functions += sub.functions;
    report.total.functions_with_contracts += sub.functions_with_contracts;
  }
  return report;
}

inline void append_coverage_fields(std::string& out, const SubsystemCoverage& sub,
                                   const std::string& indent) {
  out += indent + "\"contracts\": " + std::to_string(sub.contracts) + ",\n";
  out += indent + "\"functions\": " + std::to_string(sub.functions) + ",\n";
  out += indent + "\"functions_with_contracts\": " +
         std::to_string(sub.functions_with_contracts) + "\n";
}

/// Serialize a coverage report. The baseline file is this JSON with
/// `include_uncovered = false`; --report adds the uncovered function lists.
inline std::string coverage_to_json(const CoverageReport& report, bool include_uncovered) {
  std::string out = "{\n  \"subsystems\": {\n";
  size_t i = 0;
  for (const auto& [module, sub] : report.subsystems) {
    out += "    \"" + module + "\": {\n";
    append_coverage_fields(out, sub, "      ");
    out += ++i < report.subsystems.size() ? "    },\n" : "    }\n";
  }
  out += "  },\n  \"total\": {\n";
  append_coverage_fields(out, report.total, "    ");
  out += "  }";
  if (include_uncovered) {
    out += ",\n  \"uncovered\": {\n";
    size_t m = 0;
    for (const auto& [module, fns] : report.uncovered) {
      out += "    \"" + module + "\": [\n";
      for (size_t f = 0; f < fns.size(); ++f) {
        out += "      \"" + fns[f] + (f + 1 < fns.size() ? "\",\n" : "\"\n");
      }
      out += ++m < report.uncovered.size() ? "    ],\n" : "    ]\n";
    }
    out += "  }";
  }
  out += "\n}\n";
  return out;
}

/// Reads the per-subsystem fields of a baseline written by coverage_to_json;
/// the "total" member is ignored.
inline bool read_baseline(const std::string& text, std::map<std::string, SubsystemCoverage>& out,
                          std::string& error) {
  out.clear();
  json::Value root;
  json::Parser parser(text);
  if (!parser.parse(root) || root.kind != json::Value::Kind::kObject) {
    error = "JSON parse error near byte " + std::to_string(parser.error_pos());
    return false;
  }
  const json::Value* subsystems = root.find("subsystems");
  if (!subsystems || subsystems->kind != json::Value::Kind::kObject) {
    error = "no \"subsystems\" object";
    return false;
  }
  for (const auto& [module, fields] : subsystems->object) {
    SubsystemCoverage& sub = out[module];
    for (const auto& [key, member] : {std::pair{"contracts", &SubsystemCoverage::contracts},
                                      std::pair{"functions", &SubsystemCoverage::functions},
                                      std::pair{"functions_with_contracts",
                                                &SubsystemCoverage::functions_with_contracts}}) {
      const json::Value* v = fields.find(key);
      if (!v || v->kind != json::Value::Kind::kNumber || v->number < 0) {
        error = "subsystem '" + module + "': no count '" + key + "'";
        return false;
      }
      sub.*member = static_cast<size_t>(v->number);
    }
  }
  return true;
}

/// Pass 4 enforcement: coverage must not regress against the checked-in
/// baseline. Regression = fewer contracts, fewer covered functions, or the
/// covered-function ratio dropping more than 2 percentage points; brand-new
/// subsystems must be added to the baseline deliberately.
inline std::vector<Finding> check_against_baseline(
    const CoverageReport& report, const std::map<std::string, SubsystemCoverage>& baseline) {
  std::vector<Finding> findings;
  const std::string file = "tools/analysis_baseline.json";
  auto ratio = [](const SubsystemCoverage& s) {
    return s.functions == 0
               ? 1.0
               : static_cast<double>(s.functions_with_contracts) /
                     static_cast<double>(s.functions);
  };
  for (const auto& [module, base] : baseline) {
    const auto it = report.subsystems.find(module);
    if (it == report.subsystems.end()) {
      findings.push_back({file, 1, "contract-coverage",
                          "subsystem '" + module +
                              "' is in the baseline but no longer under src/; regenerate "
                              "the baseline with gnrfet_analyze --write-baseline"});
      continue;
    }
    const SubsystemCoverage& now = it->second;
    if (now.contracts < base.contracts) {
      findings.push_back({file, 1, "contract-coverage",
                          "subsystem '" + module + "' lost contracts: " +
                              std::to_string(now.contracts) + " < baseline " +
                              std::to_string(base.contracts) +
                              " (restore the checks or regenerate the baseline with "
                              "justification)"});
    }
    if (now.functions_with_contracts < base.functions_with_contracts) {
      findings.push_back({file, 1, "contract-coverage",
                          "subsystem '" + module + "' covers fewer functions: " +
                              std::to_string(now.functions_with_contracts) + " < baseline " +
                              std::to_string(base.functions_with_contracts)});
    } else if (ratio(now) + 0.02 < ratio(base)) {
      findings.push_back(
          {file, 1, "contract-coverage",
           "subsystem '" + module + "' coverage ratio regressed: " +
               std::to_string(now.functions_with_contracts) + "/" +
               std::to_string(now.functions) + " vs baseline " +
               std::to_string(base.functions_with_contracts) + "/" +
               std::to_string(base.functions) +
               " (new functions need contracts, or regenerate the baseline)"});
    }
  }
  for (const auto& [module, sub] : report.subsystems) {
    if (baseline.count(module) == 0) {
      findings.push_back({file, 1, "contract-coverage",
                          "subsystem '" + module +
                              "' is not in the baseline; run gnrfet_analyze "
                              "--write-baseline and commit the result"});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 5: library env knobs
// ---------------------------------------------------------------------------

/// The only environment variables the library reads. Bench sizes and the
/// Monte Carlo sample count are read by bench/ and examples/, not src/.
inline const std::set<std::string>& library_env_knobs() {
  static const std::set<std::string> knobs = {"GNRFET_CACHE_DIR", "GNRFET_THREADS",
                                              "GNRFET_TRACE"};
  return knobs;
}

/// Every "GNRFET_..." string literal under src/ must name a library env
/// knob, so a new knob cannot slip in unreviewed. Scans the raw lines: the
/// shared scanner blanks string literals.
inline std::vector<Finding> check_library_env_knobs(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  const std::string prefix = "\"GNRFET_";
  for (const auto& file : files) {
    if (module_of(file.path).empty()) continue;
    const std::vector<std::string> lines = split_lines(file.content);
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      for (size_t pos = line.find(prefix); pos != std::string::npos;
           pos = line.find(prefix, pos + 1)) {
        size_t end = pos + 1;
        while (end < line.size() && scan::ident_char(line[end])) ++end;
        const std::string name = line.substr(pos + 1, end - pos - 1);
        if (library_env_knobs().count(name) != 0) continue;
        findings.push_back({file.path, i + 1, "library-env-knob",
                            "'" + name + "' is not a library env knob; src/ may read only "
                            "GNRFET_CACHE_DIR, GNRFET_THREADS and GNRFET_TRACE"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 6: repo rules
// ---------------------------------------------------------------------------

namespace detail {

/// `delete` used as an operator (raw deallocation) rather than `= delete`.
inline bool has_raw_delete(const std::string& line) {
  size_t pos = scan::find_token(line, "delete");
  while (pos != std::string::npos) {
    size_t i = pos;
    while (i > 0 && line[i - 1] == ' ') --i;
    if (i == 0 || line[i - 1] != '=') return true;
    pos = scan::find_token(line, "delete", pos + 1);
  }
  return false;
}

}  // namespace detail

/// Pass 6, over every .hpp/.cpp under src/, tests/, bench/ and tools/,
/// matched on stripped lines so comments and strings never trip it. In
/// src/: no rand()/srand() (no-rand; Monte Carlo is seeded <random> only)
/// and no printf/std::cout (no-stdio). Headers carry #pragma once and no
/// `using namespace` (using-namespace-header). Outside src/common/: no raw
/// new/delete (raw-new-delete), no std::getenv (unchecked-getenv; use the
/// common/env.hpp helpers).
inline std::vector<Finding> check_repo_rules(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const auto& file : files) {
    const bool in_src = file.path.rfind("src/", 0) == 0;
    const bool in_common = file.path.rfind("src/common/", 0) == 0;
    const bool is_header =
        file.path.size() > 4 && file.path.compare(file.path.size() - 4, 4, ".hpp") == 0;
    if (is_header && file.content.find("#pragma once") == std::string::npos) {
      findings.push_back({file.path, 1, "pragma-once", "header is missing #pragma once"});
    }
    const std::vector<std::string> lines =
        split_lines(scan::strip_comments_and_strings(file.content));
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const size_t lineno = i + 1;
      if (in_src) {
        if (scan::has_call(line, "rand") || scan::has_call(line, "srand")) {
          findings.push_back({file.path, lineno, "no-rand",
                              "rand()/srand() in a library: use seeded <random> engines"});
        }
        if (scan::has_call(line, "printf") ||
            scan::find_token(line, "cout") != std::string::npos) {
          findings.push_back({file.path, lineno, "no-stdio",
                              "library code must not print; return data to the caller"});
        }
      }
      if (is_header) {
        const size_t u = scan::find_token(line, "using");
        const size_t n = scan::find_token(line, "namespace", u);
        if (u != std::string::npos && n != std::string::npos &&
            line.find_first_not_of(' ', u + 5) == n) {
          findings.push_back({file.path, lineno, "using-namespace-header",
                              "headers must not inject namespaces into every includer"});
        }
      }
      if (!in_common) {
        if (scan::find_token(line, "new") != std::string::npos) {
          findings.push_back({file.path, lineno, "raw-new-delete",
                              "raw new outside src/common/: use containers/smart pointers"});
        }
        if (detail::has_raw_delete(line)) {
          findings.push_back({file.path, lineno, "raw-new-delete",
                              "raw delete outside src/common/: use containers/smart pointers"});
        }
        if (scan::find_token(line, "getenv") != std::string::npos) {
          findings.push_back(
              {file.path, lineno, "unchecked-getenv",
               "use the checked helpers in common/env.hpp instead of std::getenv"});
        }
      }
    }
  }
  return findings;
}

}  // namespace gnrfet::analysis
