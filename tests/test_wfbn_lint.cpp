// Tests for wfbn-lint (tools/wfbn_lint/): lexer behavior, one seeded
// violation per rule against a minimal fixture tree with exact
// file/line/rule assertions, the suppression syntax, --fix-docs, and the
// mutation self-tests from the issue's acceptance criteria — each mutation
// of the REAL tree (copied to a temp dir) must produce exactly the expected
// finding. The companion ctest `wfbn_lint_tree` is the self-gate that runs
// the binary over the real tree and requires zero findings.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using wfbn_lint::Finding;
using wfbn_lint::Options;
using wfbn_lint::Result;
using wfbn_lint::Rule;

namespace {

/// A scratch tree under the system temp dir, removed on destruction.
class TempTree {
 public:
  TempTree() {
    std::mt19937_64 rng(std::random_device{}());
    root_ = fs::temp_directory_path() /
            ("wfbn_lint_test_" + std::to_string(rng()));
    fs::create_directories(root_);
  }
  ~TempTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  TempTree(const TempTree&) = delete;
  TempTree& operator=(const TempTree&) = delete;

  [[nodiscard]] const fs::path& root() const { return root_; }

  void write(const std::string& rel, const std::string& content) const {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  [[nodiscard]] std::string read(const std::string& rel) const {
    std::ifstream in(root_ / rel, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  /// Replaces `from` with `to` in the file; the needle must be present.
  void mutate(const std::string& rel, const std::string& from,
              const std::string& to) const {
    std::string text = read(rel);
    const std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << "mutation needle not found in " << rel
                                      << ": " << from;
    text.replace(pos, from.size(), to);
    write(rel, text);
  }

 private:
  fs::path root_;
};

[[nodiscard]] Result run_on(const TempTree& tree, bool fix_docs = false) {
  Options options;
  options.root = tree.root().string();
  options.fix_docs = fix_docs;
  return wfbn_lint::run(options);
}

/// 1-based line of the first occurrence of `needle` in `content`.
[[nodiscard]] int line_of(const std::string& content, const std::string& needle) {
  const std::size_t pos = content.find(needle);
  EXPECT_NE(pos, std::string::npos) << "needle not found: " << needle;
  if (pos == std::string::npos) return -1;
  return 1 + static_cast<int>(std::count(content.begin(),
                                         content.begin() + static_cast<long>(pos), '\n'));
}

[[nodiscard]] std::vector<Finding> of_rule(const Result& result, Rule rule) {
  std::vector<Finding> out;
  for (const Finding& finding : result.findings) {
    if (finding.rule == rule) out.push_back(finding);
  }
  return out;
}

std::string describe(const Result& result) {
  return wfbn_lint::render_human(result);
}

// ---- Fixture: a minimal tree that lints clean. -----------------------------

const char* const kGadgetHpp = R"(#pragma once
#include <atomic>

namespace fix {

class Gadget {
 public:
  int get() const {
    return flag_.load(std::memory_order_acquire);
  }
  void set(int v) {
    flag_.store(v, std::memory_order_release);
  }

 private:
  std::atomic<int> flag_{0};
};

}  // namespace fix
)";

const char* const kFaultHpp = R"(#pragma once

namespace fix::fault {

enum class Point {
  kAlpha,
  kBeta,
};

}  // namespace fix::fault
)";

const char* const kFaultCpp = R"(#include "fault_injection.hpp"

namespace fix::fault {

const char* point_name(Point point) {
  switch (point) {
    case Point::kAlpha: return "alpha";
    case Point::kBeta: return "beta";
  }
  return "unknown";
}

std::string arm_random_schedule(unsigned seed) {
  static constexpr Point kThrowing[] = {
      Point::kAlpha,
  };
  return arm_all(kThrowing, seed);
}

std::string arm_random_net_schedule(unsigned seed) {
  static constexpr Point kNetPoints[] = {
      Point::kBeta,
  };
  return arm_all(kNetPoints, seed);
}

}  // namespace fix::fault
)";

const char* const kAlgorithmsMd = R"(# Algorithms

<!-- wfbn-lint:atomics-audit:begin -->
| File | Object | Op | Ordering | Lines | Invariant |
|---|---|---|---|---|---|
| `src/concurrent/gadget.hpp` | `flag_` | `load` | `acquire` | 9 | reader inherits the state published by set() |
| `src/concurrent/gadget.hpp` | `flag_` | `store` | `release` | 12 | publishes the gadget state to acquiring readers |
<!-- wfbn-lint:atomics-audit:end -->
)";

const char* const kRobustnessMd = R"(# Robustness

<!-- wfbn-lint:fault-points:begin -->
| Point | Schedules | Fires |
|---|---|---|
| `alpha` | random | fires in the alpha step |
| `beta` | net | fires in the beta step |
<!-- wfbn-lint:fault-points:end -->
)";

void write_clean_fixture(const TempTree& tree) {
  tree.write("src/concurrent/gadget.hpp", kGadgetHpp);
  tree.write("src/util/fault_injection.hpp", kFaultHpp);
  tree.write("src/util/fault_injection.cpp", kFaultCpp);
  tree.write("docs/ALGORITHMS.md", kAlgorithmsMd);
  tree.write("docs/ROBUSTNESS.md", kRobustnessMd);
}

// ---- Lexer -----------------------------------------------------------------

TEST(WfbnLintLexer, StripsCommentsAndStringsButKeepsStructure) {
  const wfbn_lint::SourceFile file = wfbn_lint::lex_source(
      "int a; // std::atomic<int> ghost;\n"
      "const char* s = \"std::mutex inside a string\";\n"
      "/* std::atomic<bool> block\n"
      "   comment */ int b;\n",
      "x.cpp");
  ASSERT_EQ(file.code.size(), 4u);
  for (const std::string& line : file.code) {
    EXPECT_EQ(line.find("atomic"), std::string::npos) << line;
    EXPECT_EQ(line.find("mutex"), std::string::npos) << line;
  }
  EXPECT_NE(file.code[0].find("int a;"), std::string::npos);
  EXPECT_NE(file.code[3].find("int b;"), std::string::npos);
  ASSERT_EQ(file.strings.size(), 1u);
  EXPECT_EQ(file.strings[0].text, "std::mutex inside a string");
  EXPECT_EQ(file.strings[0].line, 2);
}

TEST(WfbnLintLexer, RawStringsAndDigitSeparators) {
  const wfbn_lint::SourceFile file = wfbn_lint::lex_source(
      "auto r = R\"(std::atomic<int> raw)\";\n"
      "int big = 1'000'000;\n",
      "x.cpp");
  EXPECT_EQ(file.code[0].find("atomic"), std::string::npos);
  ASSERT_FALSE(file.strings.empty());
  EXPECT_EQ(file.strings[0].text, "std::atomic<int> raw");
  // The digit separators must not open a char literal that swallows the rest.
  EXPECT_NE(file.code[1].find("000"), std::string::npos);
}

TEST(WfbnLintLexer, ParsesDirectives) {
  const wfbn_lint::SourceFile file = wfbn_lint::lex_source(
      "// wfbn-lint: wait-free-begin\n"
      "int x;\n"
      "// wfbn-lint: allow(policy-purity, audit-sync) because reasons\n"
      "// wfbn-lint: wait-free-end\n",
      "x.cpp");
  ASSERT_EQ(file.directives.size(), 3u);
  EXPECT_EQ(file.directives[0].kind, wfbn_lint::Directive::Kind::kWaitFreeBegin);
  EXPECT_EQ(file.directives[0].line, 1);
  EXPECT_EQ(file.directives[1].kind, wfbn_lint::Directive::Kind::kAllow);
  ASSERT_EQ(file.directives[1].rules.size(), 2u);
  EXPECT_EQ(file.directives[1].rules[0], "policy-purity");
  EXPECT_EQ(file.directives[1].rules[1], "audit-sync");
  EXPECT_EQ(file.directives[1].reason, "because reasons");
  EXPECT_EQ(file.directives[2].kind, wfbn_lint::Directive::Kind::kWaitFreeEnd);
}

// ---- Fixture rule tests ----------------------------------------------------

TEST(WfbnLintRules, CleanFixtureIsClean) {
  TempTree tree;
  write_clean_fixture(tree);
  const Result result = run_on(tree);
  EXPECT_FALSE(result.io_error);
  EXPECT_TRUE(result.findings.empty()) << describe(result);
  EXPECT_EQ(result.sites.size(), 2u);
}

TEST(WfbnLintRules, R1ImplicitOrderExactSite) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string gadget = kGadgetHpp;
  // Add an implicit-seq_cst load inside src/concurrent.
  const std::string seeded = "  int peek() const { return flag_.load(); }\n";
  gadget.insert(gadget.find(" private:"), seeded);
  tree.write("src/concurrent/gadget.hpp", gadget);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kImplicitOrder);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/concurrent/gadget.hpp");
  EXPECT_EQ(findings[0].line, line_of(gadget, "peek()"));
  // The new implicit site also needs an audit row; that's a separate rule.
  EXPECT_EQ(result.findings.size(),
            findings.size() + of_rule(result, Rule::kAuditSync).size());
}

TEST(WfbnLintRules, R1OperatorRmwIsFlagged) {
  TempTree tree;
  write_clean_fixture(tree);
  const std::string util =
      "#pragma once\n"
      "#include <atomic>\n"
      "inline std::atomic<int> g_ticks{0};\n"
      "inline void tick() { g_ticks++; }\n";
  tree.write("src/util/ticks.hpp", util);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kImplicitOrder);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/util/ticks.hpp");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("++"), std::string::npos);
}

TEST(WfbnLintRules, R2MissingAuditRow) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string gadget = kGadgetHpp;
  // A brand-new atomic with no audit row at all.
  gadget.insert(gadget.find(" private:"),
                "  int bump() { return epoch_.fetch_add(1, std::memory_order_relaxed); }\n");
  gadget.insert(gadget.find("  std::atomic<int> flag_"),
                "  std::atomic<int> epoch_{0};\n");
  tree.write("src/concurrent/gadget.hpp", gadget);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kAuditSync);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(result.findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/concurrent/gadget.hpp");
  EXPECT_EQ(findings[0].line, line_of(gadget, "bump()"));
  EXPECT_NE(findings[0].message.find("no audit row"), std::string::npos);
}

TEST(WfbnLintRules, R2KnownSiteWithChangedOrderReportsMismatch) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string gadget = kGadgetHpp;
  // Same object+op as an audited row, different ordering: the message should
  // point at the ordering drift, not just a generic missing row.
  gadget.insert(gadget.find(" private:"),
                "  int weak() const { return flag_.load(std::memory_order_relaxed); }\n");
  tree.write("src/concurrent/gadget.hpp", gadget);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kAuditSync);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/concurrent/gadget.hpp");
  EXPECT_NE(findings[0].message.find("ordering does not match"), std::string::npos);
}

TEST(WfbnLintRules, R2StaleAuditRow) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string doc = kAlgorithmsMd;
  const std::string stale =
      "| `src/concurrent/gadget.hpp` | `flag_` | `exchange` | `acq_rel` | 99 | gone |\n";
  doc.insert(doc.find("<!-- wfbn-lint:atomics-audit:end -->"), stale);
  tree.write("docs/ALGORITHMS.md", doc);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kAuditSync);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "docs/ALGORITHMS.md");
  EXPECT_EQ(findings[0].line, line_of(doc, "`exchange`"));
  EXPECT_NE(findings[0].message.find("stale audit row"), std::string::npos);
}

TEST(WfbnLintRules, R2OrderingMismatchIsBothMissingAndStale) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string doc = kAlgorithmsMd;
  // Doc claims the load is relaxed; the code says acquire.
  const std::size_t pos = doc.find("`load` | `acquire`");
  doc.replace(pos, std::string("`load` | `acquire`").size(), "`load` | `relaxed`");
  tree.write("docs/ALGORITHMS.md", doc);
  const Result result = run_on(tree);
  ASSERT_EQ(of_rule(result, Rule::kAuditSync).size(), 2u) << describe(result);
}

TEST(WfbnLintRules, R3UndocumentedFaultPoint) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string hpp = kFaultHpp;
  hpp.insert(hpp.find("};"), "  kGamma,\n");
  tree.write("src/util/fault_injection.hpp", hpp);
  std::string cpp = kFaultCpp;
  cpp.insert(cpp.find("  }\n  return \"unknown\";"),
             "    case Point::kGamma: return \"gamma\";\n");
  tree.write("src/util/fault_injection.cpp", cpp);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kFaultSync);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/util/fault_injection.hpp");
  EXPECT_EQ(findings[0].line, line_of(hpp, "kGamma"));
  EXPECT_NE(findings[0].message.find("no row"), std::string::npos);
}

TEST(WfbnLintRules, R3PointWithoutWireNameCase) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string hpp = kFaultHpp;
  hpp.insert(hpp.find("};"), "  kGamma,\n");
  tree.write("src/util/fault_injection.hpp", hpp);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kFaultSync);
  // kGamma has no point_name() case AND (consequently) no doc row.
  ASSERT_EQ(findings.size(), 2u) << describe(result);
  EXPECT_NE(findings[0].message + findings[1].message,
            findings[0].message);  // both present
}

TEST(WfbnLintRules, R3ScheduleMismatch) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string doc = kRobustnessMd;
  const std::string row = "| `alpha` | random |";
  doc.replace(doc.find(row), row.size(), "| `alpha` | manual |");
  tree.write("docs/ROBUSTNESS.md", doc);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kFaultSync);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "docs/ROBUSTNESS.md");
  EXPECT_EQ(findings[0].line, line_of(doc, "`alpha`"));
  EXPECT_NE(findings[0].message.find("wire it as `random`"), std::string::npos);
}

TEST(WfbnLintRules, R3StaleDocRow) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string doc = kRobustnessMd;
  doc.insert(doc.find("<!-- wfbn-lint:fault-points:end -->"),
             "| `ghost` | manual | never existed |\n");
  tree.write("docs/ROBUSTNESS.md", doc);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kFaultSync);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_NE(findings[0].message.find("stale fault-point row"), std::string::npos);
}

TEST(WfbnLintRules, R4PolicyPurity) {
  TempTree tree;
  write_clean_fixture(tree);
  const std::string seam =
      "#pragma once\n"
      "#include <mutex>\n"
      "template <typename Policy>\n"
      "class Cell {\n"
      "  typename Policy::template Atomic<int> value_{0};\n"
      "  std::mutex lock_;\n"
      "};\n";
  tree.write("src/concurrent/cell.hpp", seam);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kPolicyPurity);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/concurrent/cell.hpp");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(WfbnLintRules, R5WaitFreeRegionAllocation) {
  TempTree tree;
  write_clean_fixture(tree);
  const std::string hot =
      "#pragma once\n"
      "// wfbn-lint: wait-free-begin\n"
      "inline int* hot_path() {\n"
      "  return new int(42);\n"
      "}\n"
      "// wfbn-lint: wait-free-end\n";
  tree.write("src/core/hot.hpp", hot);
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kWaitFreeRegion);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_EQ(findings[0].file, "src/core/hot.hpp");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(WfbnLintRules, R5LockAcquisitionInRegion) {
  TempTree tree;
  write_clean_fixture(tree);
  const std::string hot =
      "#pragma once\n"
      "// wfbn-lint: wait-free-begin\n"
      "inline void hot_path(M& m) {\n"
      "  m.lock();\n"
      "}\n"
      "// wfbn-lint: wait-free-end\n";
  tree.write("src/core/hot.hpp", hot);
  const Result result = run_on(tree);
  ASSERT_EQ(of_rule(result, Rule::kWaitFreeRegion).size(), 1u) << describe(result);
}

TEST(WfbnLintRules, UnbalancedRegionIsADirectiveFinding) {
  TempTree tree;
  write_clean_fixture(tree);
  tree.write("src/core/hot.hpp",
             "#pragma once\n"
             "// wfbn-lint: wait-free-begin\n"
             "inline void f() {}\n");
  const Result result = run_on(tree);
  const std::vector<Finding> findings = of_rule(result, Rule::kDirective);
  ASSERT_EQ(findings.size(), 1u) << describe(result);
  EXPECT_NE(findings[0].message.find("without a matching"), std::string::npos);
}

// ---- Suppressions ----------------------------------------------------------

TEST(WfbnLintSuppression, AllowOnPreviousLineSuppresses) {
  TempTree tree;
  write_clean_fixture(tree);
  const std::string hot =
      "#pragma once\n"
      "// wfbn-lint: wait-free-begin\n"
      "inline int* hot_path() {\n"
      "  // wfbn-lint: allow(wait-free-region) amortized, measured, documented\n"
      "  return new int(42);\n"
      "}\n"
      "// wfbn-lint: wait-free-end\n";
  tree.write("src/core/hot.hpp", hot);
  const Result result = run_on(tree);
  EXPECT_TRUE(result.findings.empty()) << describe(result);
}

TEST(WfbnLintSuppression, AllowWithoutReasonIsItselfAFinding) {
  TempTree tree;
  write_clean_fixture(tree);
  const std::string hot =
      "#pragma once\n"
      "// wfbn-lint: wait-free-begin\n"
      "inline int* hot_path() {\n"
      "  // wfbn-lint: allow(wait-free-region)\n"
      "  return new int(42);\n"
      "}\n"
      "// wfbn-lint: wait-free-end\n";
  tree.write("src/core/hot.hpp", hot);
  const Result result = run_on(tree);
  // The bare allow is a `directive` finding AND does not suppress.
  ASSERT_EQ(of_rule(result, Rule::kDirective).size(), 1u) << describe(result);
  ASSERT_EQ(of_rule(result, Rule::kWaitFreeRegion).size(), 1u) << describe(result);
}

TEST(WfbnLintSuppression, UnknownRuleNameIsAFinding) {
  TempTree tree;
  write_clean_fixture(tree);
  tree.write("src/core/hot.hpp",
             "#pragma once\n"
             "// wfbn-lint: allow(made-up-rule) because\n"
             "inline void f() {}\n");
  const Result result = run_on(tree);
  ASSERT_EQ(of_rule(result, Rule::kDirective).size(), 1u) << describe(result);
}

// ---- --fix-docs ------------------------------------------------------------

TEST(WfbnLintFixDocs, RegeneratesMissingAuditRow) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string gadget = kGadgetHpp;
  const std::string seeded =
      "  int weak() const { return flag_.load(std::memory_order_relaxed); }\n";
  gadget.insert(gadget.find(" private:"), seeded);
  tree.write("src/concurrent/gadget.hpp", gadget);

  const Result fixed = run_on(tree, /*fix_docs=*/true);
  ASSERT_EQ(fixed.fixed_files.size(), 1u);
  EXPECT_EQ(fixed.fixed_files[0], "docs/ALGORITHMS.md");
  // The structural drift is repaired; what remains is the human's half:
  // the regenerated row carries a placeholder invariant.
  const std::vector<Finding> findings = of_rule(fixed, Rule::kAuditSync);
  ASSERT_EQ(findings.size(), 1u) << describe(fixed);
  EXPECT_NE(findings[0].message.find("placeholder invariant"), std::string::npos);
  // Hand-written invariants of surviving rows are preserved.
  const std::string doc = tree.read("docs/ALGORITHMS.md");
  EXPECT_NE(doc.find("reader inherits the state published by set()"),
            std::string::npos);
  EXPECT_NE(doc.find("`relaxed`"), std::string::npos);
}

TEST(WfbnLintFixDocs, RegeneratesFaultTablePreservingFires) {
  TempTree tree;
  write_clean_fixture(tree);
  std::string hpp = kFaultHpp;
  hpp.insert(hpp.find("};"), "  kGamma,\n");
  tree.write("src/util/fault_injection.hpp", hpp);
  std::string cpp = kFaultCpp;
  cpp.insert(cpp.find("  }\n  return \"unknown\";"),
             "    case Point::kGamma: return \"gamma\";\n");
  tree.write("src/util/fault_injection.cpp", cpp);

  const Result fixed = run_on(tree, /*fix_docs=*/true);
  ASSERT_EQ(fixed.fixed_files.size(), 1u);
  EXPECT_EQ(fixed.fixed_files[0], "docs/ROBUSTNESS.md");
  const std::string doc = tree.read("docs/ROBUSTNESS.md");
  EXPECT_NE(doc.find("| `gamma` | manual |"), std::string::npos) << doc;
  EXPECT_NE(doc.find("fires in the alpha step"), std::string::npos);
  // Remaining finding: the regenerated gamma row needs its Fires prose.
  const std::vector<Finding> findings = of_rule(fixed, Rule::kFaultSync);
  ASSERT_EQ(findings.size(), 1u) << describe(fixed);
  EXPECT_NE(findings[0].message.find("placeholder Fires"), std::string::npos);
}

// ---- Errors ----------------------------------------------------------------

TEST(WfbnLintErrors, MissingRootIsAnIoError) {
  Options options;
  options.root = "/nonexistent/wfbn/root";
  const Result result = wfbn_lint::run(options);
  EXPECT_TRUE(result.io_error);
}

// ---- Mutation self-tests over the real tree --------------------------------
//
// Copy the repository's src/ and docs/ into a temp root, apply ONE mutation,
// and require exactly the expected finding — proving each rule actually
// guards the real artifacts, not just the fixtures.

class RealTreeMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    const fs::path source_root = WFBN_LINT_SOURCE_ROOT;
    ASSERT_TRUE(fs::exists(source_root / "src"));
    fs::copy(source_root / "src", tree_.root() / "src",
             fs::copy_options::recursive);
    fs::copy(source_root / "docs", tree_.root() / "docs",
             fs::copy_options::recursive);
    const Result baseline = run_on(tree_);
    ASSERT_FALSE(baseline.io_error);
    ASSERT_TRUE(baseline.findings.empty())
        << "real tree must lint clean before mutating:\n" << describe(baseline);
  }
  TempTree tree_;
};

TEST_F(RealTreeMutation, DemotedMemoryOrderIsCaught) {
  // The PR-5 bug, re-introduced: demote the snapshot cell's Dekker drain
  // load from seq_cst to acquire. The audit table still records seq_cst.
  tree_.mutate("src/serve/snapshot_cell.hpp",
               "count.load(std::memory_order_seq_cst)",
               "count.load(std::memory_order_acquire)");
  const Result result = run_on(tree_);
  const std::vector<Finding> findings = of_rule(result, Rule::kAuditSync);
  ASSERT_EQ(findings.size(), 2u) << describe(result);
  EXPECT_EQ(result.findings.size(), 2u) << describe(result);
  // One side: the code site has no matching row; other side: the seq_cst
  // row went stale. Both name the demoted object.
  for (const Finding& finding : findings) {
    EXPECT_NE(finding.message.find("count.load"), std::string::npos);
  }
}

TEST_F(RealTreeMutation, DeletedAuditRowIsCaught) {
  std::string doc = tree_.read("docs/ALGORITHMS.md");
  const std::string needle =
      "| `src/concurrent/barrier.hpp` | `sense_` | `store` | `release` |";
  const std::size_t pos = doc.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t eol = doc.find('\n', pos);
  doc.erase(pos, eol - pos + 1);
  tree_.write("docs/ALGORITHMS.md", doc);
  const Result result = run_on(tree_);
  ASSERT_EQ(result.findings.size(), 1u) << describe(result);
  EXPECT_EQ(result.findings[0].rule, Rule::kAuditSync);
  EXPECT_EQ(result.findings[0].file, "src/concurrent/barrier.hpp");
  EXPECT_NE(result.findings[0].message.find("sense_.store"), std::string::npos);
}

TEST_F(RealTreeMutation, UnregisteredFaultPointIsCaught) {
  // Remove spsc.chunk_alloc from the random throwing schedule; ROBUSTNESS.md
  // still documents it as `random`.
  tree_.mutate("src/util/fault_injection.cpp", "Point::kSpscChunkAlloc, ", "");
  const Result result = run_on(tree_);
  ASSERT_EQ(result.findings.size(), 1u) << describe(result);
  EXPECT_EQ(result.findings[0].rule, Rule::kFaultSync);
  EXPECT_EQ(result.findings[0].file, "docs/ROBUSTNESS.md");
  EXPECT_NE(result.findings[0].message.find("spsc.chunk_alloc"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("`manual`"), std::string::npos);
}

TEST_F(RealTreeMutation, BareStdAtomicInSeamFileIsCaught) {
  tree_.mutate("src/concurrent/barrier.hpp", "Atomic<bool> sense_{false};",
               "std::atomic<bool> sense_{false};");
  const Result result = run_on(tree_);
  ASSERT_EQ(result.findings.size(), 1u) << describe(result);
  EXPECT_EQ(result.findings[0].rule, Rule::kPolicyPurity);
  EXPECT_EQ(result.findings[0].file, "src/concurrent/barrier.hpp");
}

TEST_F(RealTreeMutation, AllocationInWaitFreeRegionIsCaught) {
  tree_.mutate("src/concurrent/barrier.hpp",
               "const bool my_sense = !sense_.load(std::memory_order_relaxed);",
               "const bool my_sense = !sense_.load(std::memory_order_relaxed);\n"
               "    int* leak = new int(7);");
  const Result result = run_on(tree_);
  ASSERT_EQ(result.findings.size(), 1u) << describe(result);
  EXPECT_EQ(result.findings[0].rule, Rule::kWaitFreeRegion);
  EXPECT_EQ(result.findings[0].file, "src/concurrent/barrier.hpp");
  EXPECT_NE(result.findings[0].message.find("`new`"), std::string::npos);
}

}  // namespace
