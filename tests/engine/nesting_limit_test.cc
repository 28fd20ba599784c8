// Client-controlled nesting must come back as a Status, never overflow
// the stack.  Both parsers recurse once per nesting level; past
// kMaxParseDepth (common/limits.h) they return ParseError, and an
// explain/profile may not wrap another.  Each input here is 100,000
// levels deep, far past what an 8 MiB stack survives without the limit.

#include "caldb.h"

#include <string>

#include "common/limits.h"
#include "gtest/gtest.h"

namespace caldb {
namespace {

constexpr int kDeep = 100000;

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * n);
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

class NestingLimitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = Engine::Create().value();
    session_ = engine_->CreateSession();
    ASSERT_TRUE(session_->Execute("create table x (a int)").ok());
    ASSERT_TRUE(session_->Execute("append x (a = 1)").ok());
  }

  void ExpectParseError(const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
    // The engine keeps serving statements afterwards.
    EXPECT_TRUE(session_->Execute("retrieve (x.a) from x in x").ok());
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Session> session_;
};

TEST_F(NestingLimitTest, DeepWhereParenthesesFail) {
  auto r = session_->Execute("retrieve (x.a) from x in x where " +
                             Repeat("(", kDeep) + "x.a = 1" +
                             Repeat(")", kDeep));
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, DeepNotChainFails) {
  auto r = session_->Execute("retrieve (x.a) from x in x where " +
                             Repeat("not ", kDeep) + "x.a = 1");
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, DeepUnaryMinusFails) {
  auto r = session_->Execute("retrieve (x.a) from x in x where x.a = " +
                             Repeat("- ", kDeep) + "1");
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, DeepScriptParenthesesFail) {
  auto r = session_->EvalScript("{ return (" + Repeat("(", kDeep) + "DAYS" +
                                Repeat(")", kDeep) + "); }");
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, DeepScriptBlocksFail) {
  auto r = session_->EvalScript(Repeat("{ ", kDeep) + "return DAYS;" +
                                Repeat(" }", kDeep));
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, DeepForEachChainFails) {
  auto r = session_->EvalScript(Repeat("DAYS:during:", kDeep) + "WEEKS");
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, NestedExplainFails) {
  auto r = session_->Execute(Repeat("explain ", kDeep) +
                             "retrieve (x.a) from x in x");
  ASSERT_FALSE(r.ok());
  ExpectParseError(r.status());
}

TEST_F(NestingLimitTest, NestingUpToTheLimitParses) {
  // The limit counts nesting levels, so a where-clause and a script
  // nested just inside it still parse and run.
  const int depth = kMaxParseDepth - 8;
  auto rows = session_->Execute("retrieve (x.a) from x in x where " +
                                Repeat("(", depth) + "x.a = 1" +
                                Repeat(")", depth));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
  auto parens = session_->EvalScript("return " + Repeat("(", depth) +
                                     "DAYS" + Repeat(")", depth) + ";");
  EXPECT_TRUE(parens.ok()) << parens.status().ToString();
  auto blocks = session_->EvalScript(Repeat("{ ", depth) + "return DAYS;" +
                                     Repeat(" }", depth));
  EXPECT_TRUE(blocks.ok()) << blocks.status().ToString();
}

}  // namespace
}  // namespace caldb
