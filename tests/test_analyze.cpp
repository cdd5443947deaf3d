// Tests for the passes of gnrfet_analyze: the comment/string stripper edge
// cases, and a rejecting fixture for every rule of every pass (the six repo
// rules included) — proving each rule actually fires, since the analyzer
// running clean on the repo is indistinguishable from the analyzer not
// looking.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "tools/analysis_passes.hpp"
#include "tools/source_scan.hpp"

namespace {

using gnrfet::analysis::Allowlist;
using gnrfet::analysis::check_against_baseline;
using gnrfet::analysis::check_determinism;
using gnrfet::analysis::check_layering;
using gnrfet::analysis::check_library_env_knobs;
using gnrfet::analysis::check_repo_rules;
using gnrfet::analysis::CoverageReport;
using gnrfet::analysis::extract_functions;
using gnrfet::analysis::Finding;
using gnrfet::analysis::LayerConfig;
using gnrfet::analysis::measure_contract_coverage;
using gnrfet::analysis::parse_allowlist;
using gnrfet::analysis::parse_layer_config;
using gnrfet::analysis::read_baseline;
using gnrfet::analysis::SourceFile;
using gnrfet::analysis::SubsystemCoverage;
using gnrfet::scan::strip_comments_and_strings;

size_t count_lines(const std::string& s) {
  return static_cast<size_t>(std::count(s.begin(), s.end(), '\n'));
}

// ---------------------------------------------------------------------------
// Stripper
// ---------------------------------------------------------------------------

TEST(AnalyzeStrip, RawStringContentIsBlanked) {
  const std::string in = "auto s = R\"(int hidden = 1; // not a comment)\"; int kept = 2;";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("kept"), std::string::npos);
  EXPECT_EQ(out.size(), in.size());
}

TEST(AnalyzeStrip, RawStringDelimiterGuardsEmbeddedQuoteParen) {
  // The )" inside must not close a d-char-sequence raw string.
  const std::string in = "auto s = R\"ab(x )\" still_inside)ab\"; int after = 1;";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(out.find("still_inside"), std::string::npos);
  EXPECT_NE(out.find("after"), std::string::npos);
}

TEST(AnalyzeStrip, RawStringEncodingPrefixes) {
  for (const char* prefix : {"u8", "u", "U", "L"}) {
    const std::string in = std::string("auto s = ") + prefix + "R\"(hidden)\"; int kept;";
    const std::string out = strip_comments_and_strings(in);
    EXPECT_EQ(out.find("hidden"), std::string::npos) << prefix;
    EXPECT_NE(out.find("kept"), std::string::npos) << prefix;
  }
}

TEST(AnalyzeStrip, IdentifierEndingInRIsNotARawStringPrefix) {
  // FooR"(x)" is a macro/identifier followed by an ordinary string "(x)".
  const std::string in = "FooR\"(x)\" tail;";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_NE(out.find("FooR"), std::string::npos);
  EXPECT_NE(out.find("tail"), std::string::npos);
  EXPECT_EQ(out.find('x'), std::string::npos);
}

TEST(AnalyzeStrip, RawStringPreservesLineStructure) {
  const std::string in = "one R\"(a\nb\nc)\" two;\nint three;\n";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(count_lines(out), count_lines(in));
  EXPECT_NE(out.find("three"), std::string::npos);
}

TEST(AnalyzeStrip, EscapedQuotesStayInsideLiterals) {
  const std::string in = "auto s = \"a\\\"b\"; int kept; auto c = '\\''; int also;";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_NE(out.find("kept"), std::string::npos);
  EXPECT_NE(out.find("also"), std::string::npos);
  EXPECT_EQ(out.find('a'), out.find("auto"));  // only the `auto`s survive
}

TEST(AnalyzeStrip, LineCommentContinuationSwallowsNextLine) {
  const std::string in = "int a; // comment \\\nstill_comment\nint b;\n";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(out.find("still_comment"), std::string::npos);
  EXPECT_NE(out.find("int b"), std::string::npos);
  EXPECT_EQ(count_lines(out), count_lines(in));
}

TEST(AnalyzeStrip, EscapedNewlineInStringKeepsLineCount) {
  const std::string in = "auto s = \"abc\\\ndef\"; int kept;\n";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(count_lines(out), count_lines(in));
  EXPECT_EQ(out.find("def"), std::string::npos);
  EXPECT_NE(out.find("kept"), std::string::npos);
}

TEST(AnalyzeStrip, BlockCommentsAndPlainStringsStillBlank) {
  const std::string in = "int a; /* hidden\nhidden */ int b = f(\"hidden\");";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("int b"), std::string::npos);
  EXPECT_EQ(count_lines(out), count_lines(in));
}

// ---------------------------------------------------------------------------
// Pass 1: layering
// ---------------------------------------------------------------------------

LayerConfig layers_ab() {
  LayerConfig cfg;
  std::string error;
  EXPECT_TRUE(parse_layer_config("a:\nb: a\n", cfg, error)) << error;
  return cfg;
}

TEST(AnalyzeLayering, UpwardIncludeIsRejected) {
  const std::vector<SourceFile> files = {
      {"src/a/one.hpp", "#include \"b/two.hpp\"\n"},
      {"src/b/two.hpp", "int y;\n"},
      {"src/b/three.hpp", "#include \"a/one.hpp\"\n"},  // downward: legal
  };
  const std::vector<Finding> findings = check_layering(files, layers_ab());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/a/one.hpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("a -> b"), std::string::npos);
}

TEST(AnalyzeLayering, IncludeCycleIsRejectedWithChain) {
  const std::vector<SourceFile> files = {
      {"src/a/x.hpp", "#include \"a/y.hpp\"\n"},
      {"src/a/y.hpp", "#include \"a/z.hpp\"\n"},
      {"src/a/z.hpp", "#include \"a/x.hpp\"\n"},
  };
  LayerConfig cfg;
  std::string error;
  ASSERT_TRUE(parse_layer_config("a:\n", cfg, error)) << error;
  const std::vector<Finding> findings = check_layering(files, cfg);
  ASSERT_EQ(findings.size(), 1u);  // one cycle, reported once
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("a/x.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("a/y.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("a/z.hpp"), std::string::npos);
}

TEST(AnalyzeLayering, UndeclaredModuleIsRejected) {
  const std::vector<SourceFile> files = {{"src/zz/f.hpp", "int x;\n"}};
  const std::vector<Finding> findings = check_layering(files, layers_ab());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("not declared"), std::string::npos);
}

TEST(AnalyzeLayering, CommentedIncludeDoesNotCountAsEdge) {
  const std::vector<SourceFile> files = {
      {"src/a/one.hpp", "// #include \"b/two.hpp\"\nint x;\n"},
      {"src/b/two.hpp", "int y;\n"},
  };
  EXPECT_TRUE(check_layering(files, layers_ab()).empty());
}

TEST(AnalyzeLayering, ConfigRejectsUnknownDepAndCycles) {
  LayerConfig cfg;
  std::string error;
  EXPECT_FALSE(parse_layer_config("a: ghost\n", cfg, error));
  EXPECT_NE(error.find("ghost"), std::string::npos);
  EXPECT_FALSE(parse_layer_config("a: b\nb: a\n", cfg, error));
  EXPECT_NE(error.find("cyclic"), std::string::npos);
  EXPECT_FALSE(parse_layer_config("a:\na: \n", cfg, error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pass 2: determinism
// ---------------------------------------------------------------------------

std::vector<Finding> run_determinism(const std::string& path, const std::string& content,
                                     const std::string& allowlist_text = "") {
  Allowlist allowlist;
  std::string error;
  EXPECT_TRUE(parse_allowlist(allowlist_text, allowlist, error)) << error;
  return check_determinism({{path, content}}, allowlist);
}

TEST(AnalyzeDeterminism, UnorderedContainerIsRejected) {
  const auto findings =
      run_determinism("src/model/x.cpp", "#include <unordered_map>\nstd::unordered_map<int, int> m;\n");
  ASSERT_EQ(findings.size(), 2u);  // the include line and the use
  EXPECT_EQ(findings[0].rule, "unordered-container");
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(AnalyzeDeterminism, ParallelStlIsRejected) {
  const auto findings = run_determinism(
      "src/linalg/x.cpp", "#include <execution>\ndouble r = std::reduce(v.begin(), v.end());\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "parallel-stl");
  EXPECT_EQ(findings[1].rule, "parallel-stl");
}

TEST(AnalyzeDeterminism, WallClockIsRejectedOutsideCommon) {
  const std::string content = "long t = clock();\n";
  const auto findings = run_determinism("src/model/x.cpp", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
  // The same call inside src/common/ (the trace/metrics home) is fine.
  EXPECT_TRUE(run_determinism("src/common/x.cpp", content).empty());
}

TEST(AnalyzeDeterminism, SteadyClockTypeIsRejectedOutsideCommon) {
  const auto findings = run_determinism(
      "src/negf/x.cpp", "auto t0 = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
}

TEST(AnalyzeDeterminism, LoopFpAccumulationIsRejected) {
  const std::string content =
      "double total(const double* w, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    acc += w[i];\n"
      "  }\n"
      "  return acc;\n"
      "}\n";
  const auto findings = run_determinism("src/negf/x.cpp", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "fp-accumulation");
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_NE(findings[0].message.find("'acc'"), std::string::npos);
  // The finding's suggested allowlist entry silences exactly this site.
  EXPECT_TRUE(
      run_determinism("src/negf/x.cpp", content, "src/negf/x.cpp fp-accumulation acc # ok\n")
          .empty());
  // Outside negf/linalg the rule does not apply.
  EXPECT_TRUE(run_determinism("src/device/x.cpp", content).empty());
}

TEST(AnalyzeDeterminism, BracelessLoopAccumulationIsRejected) {
  const auto findings = run_determinism(
      "src/linalg/x.cpp",
      "double s = 0.0;\nvoid f(int n) {\n  for (int i = 0; i < n; ++i) s += 1.0;\n}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "fp-accumulation");
}

TEST(AnalyzeDeterminism, NonScalarAndNonLoopAccumulationAreFine) {
  // Element updates, member updates, int accumulators, and straight-line
  // `+=` are all outside the rule.
  const std::string content =
      "void f(std::vector<double>& v, int n) {\n"
      "  double x = 1.0;\n"
      "  x += 2.0;\n"
      "  int count = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    v[i] += 1.0;\n"
      "    count += 1;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(run_determinism("src/linalg/x.cpp", content).empty());
}

TEST(AnalyzeDeterminism, AllowlistParserRejectsMalformedLines) {
  Allowlist allowlist;
  std::string error;
  EXPECT_FALSE(parse_allowlist("just-a-path fp-accumulation\n", allowlist, error));
  EXPECT_FALSE(parse_allowlist("a b c d e\n", allowlist, error));
  EXPECT_TRUE(parse_allowlist("# comment only\n\np r t # why\n", allowlist, error)) << error;
  EXPECT_TRUE(allowlist.contains("p", "r", "t"));
  EXPECT_FALSE(allowlist.contains("p", "r", "other"));
}

TEST(AnalyzeDeterminism, AllowlistEntryThatExemptsNoSiteIsAFinding) {
  const std::string content =
      "double total(const double* w, int n) {\n"
      "  double acc = 0.0;\n"
      "  for (int i = 0; i < n; ++i) acc += w[i];\n"
      "  return acc;\n"
      "}\n";
  // The site the entry named was renamed away: the entry is stale, and the
  // new accumulation is flagged on its own.
  const auto findings = run_determinism(
      "src/negf/x.cpp", content,
      "# header\nsrc/negf/x.cpp fp-accumulation acc_reverse  # deleted variable\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "fp-accumulation");
  EXPECT_EQ(findings[1].rule, "stale-allowlist");
  EXPECT_EQ(findings[1].file, "tools/analysis_allowlist.txt");
  EXPECT_EQ(findings[1].line, 2u);
  EXPECT_NE(findings[1].message.find("src/negf/x.cpp fp-accumulation acc_reverse"),
            std::string::npos);
  // An entry for a file that no longer exists is stale too; exact and '*'
  // entries that exempt a site are not.
  EXPECT_EQ(run_determinism("src/negf/x.cpp", content,
                            "src/negf/gone.cpp fp-accumulation acc  # moved\n")
                .back()
                .rule,
            "stale-allowlist");
  EXPECT_TRUE(run_determinism("src/negf/x.cpp", content,
                              "src/negf/x.cpp fp-accumulation acc  # ok\n")
                  .empty());
  EXPECT_TRUE(
      run_determinism("src/negf/x.cpp", content, "src/negf/x.cpp fp-accumulation *  # ok\n")
          .empty());
}

// ---------------------------------------------------------------------------
// Pass 4: contract coverage
// ---------------------------------------------------------------------------

TEST(AnalyzeContracts, FunctionExtractionHandlesCommonShapes) {
  const std::string content =
      "namespace x {\n"
      "int add(int a, int b) {\n"
      "  if (a > b) { return a; }\n"
      "  for (int i = 0; i < b; ++i) { a += 1; }\n"
      "  return a + b;\n"
      "}\n"
      "struct S {\n"
      "  S(int v) : v_(v), w_{v} {}\n"
      "  int get() const { return v_; }\n"
      "  void locked() GNRFET_REQUIRES(mu_) { v_ = 0; }\n"
      "  int v_, w_;\n"
      "};\n"
      "}  // namespace x\n";
  const auto fns = extract_functions(content);
  std::vector<std::string> names;
  for (const auto& fn : fns) names.push_back(fn.name);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected = {"S", "add", "get", "locked"};
  EXPECT_EQ(names, expected);
}

TEST(AnalyzeContracts, CoverageCountsContractsPerFunction) {
  const std::string content =
      "double checked(double x) {\n"
      "  GNRFET_REQUIRE(\"negf\", \"finite\", x > 0, \"bad\");\n"
      "  return x;\n"
      "}\n"
      "double bare(double x) { return x; }\n";
  const CoverageReport report = measure_contract_coverage({{"src/negf/a.cpp", content}});
  ASSERT_EQ(report.subsystems.count("negf"), 1u);
  const SubsystemCoverage& sub = report.subsystems.at("negf");
  EXPECT_EQ(sub.contracts, 1u);
  EXPECT_EQ(sub.functions, 2u);
  EXPECT_EQ(sub.functions_with_contracts, 1u);
  ASSERT_EQ(report.uncovered.at("negf").size(), 1u);
  EXPECT_NE(report.uncovered.at("negf")[0].find("bare"), std::string::npos);
}

TEST(AnalyzeContracts, JsonRoundTrips) {
  const CoverageReport report = measure_contract_coverage(
      {{"src/negf/a.cpp", "void f() { GNRFET_ENSURE(\"negf\", \"x\", true, \"m\"); }\n"},
       {"src/linalg/b.cpp", "int g() { return 1; }\n"}});
  const std::string json = gnrfet::analysis::coverage_to_json(report, false);
  std::map<std::string, SubsystemCoverage> parsed;
  std::string error;
  ASSERT_TRUE(read_baseline(json, parsed, error)) << error;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.at("negf").contracts, 1u);
  EXPECT_EQ(parsed.at("negf").functions_with_contracts, 1u);
  EXPECT_EQ(parsed.at("linalg").functions, 1u);
  EXPECT_EQ(parsed.at("linalg").contracts, 0u);
}

TEST(AnalyzeContracts, BaselineWithoutACountIsRejected) {
  std::map<std::string, SubsystemCoverage> parsed;
  std::string error;
  EXPECT_FALSE(read_baseline("{\"subsystems\": {\"negf\": {\"contracts\": 1}}}", parsed, error));
  EXPECT_NE(error.find("functions"), std::string::npos) << error;
  EXPECT_FALSE(read_baseline("{\"subsystems\": {", parsed, error));
}

TEST(AnalyzeContracts, BaselineRegressionIsRejected) {
  const CoverageReport report = measure_contract_coverage(
      {{"src/negf/a.cpp", "void f() { GNRFET_REQUIRE(\"negf\", \"x\", true, \"m\"); }\n"}});
  // Baseline remembers two contracts and two covered functions: regression.
  std::map<std::string, SubsystemCoverage> baseline;
  baseline["negf"] = {2, 2, 2};
  const std::vector<Finding> findings = check_against_baseline(report, baseline);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "contract-coverage");
  EXPECT_NE(findings[0].message.find("lost contracts"), std::string::npos);
  EXPECT_NE(findings[1].message.find("fewer functions"), std::string::npos);
}

TEST(AnalyzeContracts, NewAndVanishedSubsystemsRequireBaselineUpdate) {
  const CoverageReport report =
      measure_contract_coverage({{"src/negf/a.cpp", "void f() {}\n"}});
  std::map<std::string, SubsystemCoverage> baseline;
  baseline["poisson"] = {0, 1, 0};
  const std::vector<Finding> findings = check_against_baseline(report, baseline);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("no longer under src/"), std::string::npos);
  EXPECT_NE(findings[1].message.find("not in the baseline"), std::string::npos);
}

TEST(AnalyzeContracts, MatchingBaselineIsClean) {
  const std::vector<SourceFile> files = {
      {"src/negf/a.cpp", "void f() { GNRFET_CHECK_FINITE(\"negf\", \"x\", 1.0); }\n"}};
  const CoverageReport report = measure_contract_coverage(files);
  std::map<std::string, SubsystemCoverage> baseline;
  std::string error;
  ASSERT_TRUE(read_baseline(gnrfet::analysis::coverage_to_json(report, false), baseline, error))
      << error;
  EXPECT_TRUE(check_against_baseline(report, baseline).empty());
}

// ---------------------------------------------------------------------------
// Library env knobs
// ---------------------------------------------------------------------------

TEST(AnalyzeEnvKnobs, UnknownKnobLiteralIsRejectedAndLibraryKnobIsClean) {
  // A deleted knob, spelled in two pieces so that its name stays out of
  // the tree's code.
  const std::string dead = std::string("GNRFET_") + "NEGF_GRID";
  const std::vector<SourceFile> bad = {
      {"src/negf/a.cpp", "auto s = common::env_or(\"" + dead + "\", \"uniform\");\n"}};
  const std::vector<Finding> f = check_library_env_knobs(bad);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "library-env-knob");
  EXPECT_EQ(f[0].file, "src/negf/a.cpp");
  EXPECT_EQ(f[0].line, 1u);
  EXPECT_NE(f[0].message.find(dead), std::string::npos) << f[0].message;
  const std::vector<SourceFile> good = {
      {"src/common/b.cpp", "int n = env::get_positive_int(\"GNRFET_THREADS\", 4);\n"}};
  EXPECT_TRUE(check_library_env_knobs(good).empty());
}

// ---------------------------------------------------------------------------
// Repo rules
// ---------------------------------------------------------------------------

using Hits = std::vector<std::pair<size_t, std::string>>;

/// The (line, rule) pairs the repo-rules pass reports for one file.
Hits repo_rule_hits(const std::string& path, const std::string& content) {
  Hits hits;
  for (const Finding& f : check_repo_rules({{path, content}})) {
    EXPECT_EQ(f.file, path);
    hits.emplace_back(f.line, f.rule);
  }
  return hits;
}

TEST(AnalyzeRepoRules, RandInLibraryIsRejected) {
  EXPECT_EQ(repo_rule_hits("src/explore/a.cpp", "int roll() {\n  return rand() % 6;\n}\n"),
            (Hits{{2, "no-rand"}}));
}

TEST(AnalyzeRepoRules, StdioInLibraryIsRejected) {
  EXPECT_EQ(repo_rule_hits("src/circuit/a.cpp", "void f() { printf(\"%d\", 1); }\n"
                                                "void g() { std::cout << 1; }\n"),
            (Hits{{1, "no-stdio"}, {2, "no-stdio"}}));
}

TEST(AnalyzeRepoRules, StdioInBenchIsFine) {
  EXPECT_TRUE(repo_rule_hits("bench/a.cpp", "void f() { printf(\"%d\", 1); }\n").empty());
}

TEST(AnalyzeRepoRules, UsingNamespaceInHeaderIsRejected) {
  const std::string content = "#pragma once\nusing namespace std;\n";
  EXPECT_EQ(repo_rule_hits("tools/a.hpp", content), (Hits{{2, "using-namespace-header"}}));
  EXPECT_TRUE(repo_rule_hits("tools/a.cpp", content).empty());
}

TEST(AnalyzeRepoRules, HeaderWithoutPragmaOnceIsRejected) {
  EXPECT_EQ(repo_rule_hits("tests/a.hpp", "int x;\n"), (Hits{{1, "pragma-once"}}));
}

TEST(AnalyzeRepoRules, RawNewDeleteIsRejectedOutsideCommon) {
  const std::string content =
      "int* p = new int(1);\n"
      "delete p;\n"
      "struct S { S(const S&) = delete; };\n";
  EXPECT_EQ(repo_rule_hits("src/device/a.cpp", content),
            (Hits{{1, "raw-new-delete"}, {2, "raw-new-delete"}}));
}

TEST(AnalyzeRepoRules, RawNewInCommonIsFine) {
  EXPECT_TRUE(repo_rule_hits("src/common/a.cpp", "int* p = new int(1);\n").empty());
}

TEST(AnalyzeRepoRules, GetenvOutsideEnvHelpersIsRejected) {
  EXPECT_EQ(repo_rule_hits("bench/a.cpp", "const char* v = std::getenv(\"HOME\");\n"),
            (Hits{{1, "unchecked-getenv"}}));
}

}  // namespace
