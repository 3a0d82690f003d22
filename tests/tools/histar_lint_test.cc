// Tests for the histar-lint discipline checker itself (tools/histar-lint/).
//
// Every rule ships with a good/bad fixture pair under
// tools/histar-lint/fixtures/: the bad file must produce at least one
// finding of exactly that rule, the good file — which includes decoys such
// as the forbidden tokens inside comments and string literals — must stay
// silent. A final test lints the real src/ tree and requires zero findings,
// which is the same bar the CI static-analysis job enforces.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/histar-lint/lint.h"

namespace histar {
namespace lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path FixtureDir() {
  return fs::path(HISTAR_SOURCE_DIR) / "tools" / "histar-lint" / "fixtures";
}

// "second-table-lock" → "second_table_lock"
std::string Underscored(const std::string& rule) {
  std::string s = rule;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

TEST(HistarLint, RuleNamesAreStableAndComplete) {
  const std::vector<std::string> names = AllRuleNames();
  const std::vector<std::string> expected = {
      "second-table-lock",    "registry-bypass",
      "epoch-guard-blocking", "nofail-region-check",
      "shard-mutex-outside-tablelock", "raw-sync-primitive",
      "raw-clock-read",       "wait-without-reap",
      "segment-word-rmw",
  };
  EXPECT_EQ(names, expected);
}

TEST(HistarLint, EveryRuleHasFixturePair) {
  for (const std::string& rule : AllRuleNames()) {
    const std::string stem = Underscored(rule);
    EXPECT_TRUE(fs::exists(FixtureDir() / (stem + "_bad.cc")))
        << rule << " is missing its bad fixture";
    EXPECT_TRUE(fs::exists(FixtureDir() / (stem + "_good.cc")))
        << rule << " is missing its good fixture";
  }
}

TEST(HistarLint, BadFixturesFireTheirRule) {
  for (const std::string& rule : AllRuleNames()) {
    const fs::path bad = FixtureDir() / (Underscored(rule) + "_bad.cc");
    const std::vector<Finding> findings =
        LintSource("fixtures/" + bad.filename().string(), ReadFile(bad), {rule});
    EXPECT_GE(findings.size(), 1u) << rule << " missed its bad fixture";
    for (const Finding& f : findings) {
      EXPECT_EQ(f.rule, rule);
      EXPECT_GT(f.line, 0);
      EXPECT_FALSE(f.message.empty());
    }
  }
}

TEST(HistarLint, GoodFixturesStaySilent) {
  for (const std::string& rule : AllRuleNames()) {
    const fs::path good = FixtureDir() / (Underscored(rule) + "_good.cc");
    const std::vector<Finding> findings =
        LintSource("fixtures/" + good.filename().string(), ReadFile(good), {rule});
    EXPECT_TRUE(findings.empty())
        << rule << " false-positived on its good fixture: "
        << (findings.empty() ? "" : findings[0].message);
  }
}

TEST(HistarLint, BadFixtureLinesPointAtTheViolation) {
  // Spot-check that line numbers survive comment/string blanking: the raw
  // std::mutex in the bad fixture sits on a known line, after two comment
  // lines and two includes.
  const fs::path bad = FixtureDir() / "raw_sync_primitive_bad.cc";
  const std::vector<Finding> findings =
      LintSource("x.cc", ReadFile(bad), {"raw-sync-primitive"});
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].line, 8);  // std::mutex g_mu;
}

TEST(HistarLint, SegmentWordRmwFlagsEachRacingWrite) {
  // The old SegmentMutex's write sits in StoreChecked, a different member
  // function than the read in Load: the class body is one unit. The free
  // function's read-increment-write is the second finding.
  const fs::path bad = FixtureDir() / "segment_word_rmw_bad.cc";
  const std::vector<Finding> findings =
      LintSource("x.cc", ReadFile(bad), {"segment-word-rmw"});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 65);  // StoreChecked's sys_segment_write
  EXPECT_EQ(findings[1].line, 78);  // BumpCounter's sys_segment_write
}

// ---- CleanSource -----------------------------------------------------------

TEST(CleanSource, BlanksLineAndBlockComments) {
  const std::string in = "int a; // std::mutex here\nint /* TableLock */ b;\n";
  const std::string out = CleanSource(in);
  EXPECT_EQ(out.find("mutex"), std::string::npos);
  EXPECT_EQ(out.find("TableLock"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
}

TEST(CleanSource, BlanksStringAndCharLiterals) {
  const std::string in =
      "const char* s = \"std::lock_guard\"; char c = 'x';\n";
  const std::string out = CleanSource(in);
  EXPECT_EQ(out.find("lock_guard"), std::string::npos);
  EXPECT_EQ(out.find('x'), std::string::npos);
  EXPECT_NE(out.find("const char* s ="), std::string::npos);
}

TEST(CleanSource, HandlesEscapesAndRawStrings) {
  const std::string in =
      "auto a = \"esc \\\" std::mutex\"; auto r = R\"(TableLock lk)\"; int z;\n";
  const std::string out = CleanSource(in);
  EXPECT_EQ(out.find("mutex"), std::string::npos);
  EXPECT_EQ(out.find("TableLock"), std::string::npos);
  EXPECT_NE(out.find("int z;"), std::string::npos);
}

TEST(CleanSource, PreservesNewlinesForLineNumbers) {
  const std::string in = "a\n/* b\nc\nd */\ne\n";
  const std::string out = CleanSource(in);
  EXPECT_EQ(std::count(in.begin(), in.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
}

TEST(CleanSource, MultiLineBlockCommentKeepsFollowingLineIntact) {
  const std::string in = "/*\n std::mutex m;\n*/\nstd::mutex real;\n";
  const std::vector<Finding> findings =
      LintSource("x.cc", in, {"raw-sync-primitive"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

// ---- the real tree ----------------------------------------------------------

// The same check the CI job runs: the discipline holds everywhere under
// src/. A finding here means either a genuine violation crept in or a rule
// needs a sharper exemption — both are build-stoppers.
TEST(HistarLint, RealTreeIsClean) {
  const fs::path root = fs::path(HISTAR_SOURCE_DIR);
  std::vector<Finding> all;
  int files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    ++files;
    const std::vector<Finding> f = LintSource(rel, ReadFile(entry.path()));
    all.insert(all.end(), f.begin(), f.end());
  }
  EXPECT_GT(files, 30);  // sanity: we actually scanned the tree
  for (const Finding& f : all) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace lint
}  // namespace histar
