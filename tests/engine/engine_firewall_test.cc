// The exception firewall of the no-throw contract (common/result.h,
// common/guarded_call.h).
//
// A C++ rule callback is user code running inside statement execution: an
// event-rule callback inside a statement, a temporal-rule callback inside
// a DBCRON firing of AdvanceTo — both on the calling thread.  Whatever it
// throws — a std::exception or anything else — must come back from the
// public entry point as kInternal, and the engine must keep serving
// statements and advances afterwards: locks released, rule cascade depth
// restored.

#include "caldb.h"

#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "gtest/gtest.h"

namespace caldb {
namespace {

using Thrower = std::function<void()>;

void ThrowRuntimeError() { throw std::runtime_error("event boom"); }
void ThrowInt() { throw 42; }

// An engine with three tables: appends to `t` run `thrower` through an
// event-rule callback; appends to `u` fire a well-behaved command rule
// that mirrors into `log`.
std::unique_ptr<Engine> MakeEngine(Thrower thrower) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  EXPECT_TRUE(session->Execute("create table t (x int)").ok());
  EXPECT_TRUE(session->Execute("create table u (x int)").ok());
  EXPECT_TRUE(session->Execute("create table log (x int)").ok());
  EXPECT_TRUE(session
                  ->Execute("define rule mirror on append to u do "
                            "append log (x = NEW.x)")
                  .ok());
  Status defined = engine->WithDbWrite([&](Database& db) {
    EventRule rule;
    rule.name = "boom";
    rule.event = DbEvent::kAppend;
    rule.table = "t";
    rule.callback = [thrower](Database&, const EvalScope&) -> Status {
      thrower();
      return Status::OK();
    };
    return db.DefineRule(std::move(rule));
  });
  EXPECT_TRUE(defined.ok()) << defined.ToString();
  return engine;
}

void ExpectInternal(const Status& st, const std::string& what) {
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.ToString().find(what), std::string::npos) << st.ToString();
}

struct Case {
  Thrower thrower;
  std::string message;  // what the kInternal status must mention
};

class EngineFirewallTest : public ::testing::TestWithParam<int> {
 protected:
  Case GetCase() const {
    if (GetParam() == 0) return {ThrowRuntimeError, "event boom"};
    return {ThrowInt, "non-exception throw"};
  }
};

TEST_P(EngineFirewallTest, SessionExecuteReturnsInternal) {
  const Case c = GetCase();
  auto engine = MakeEngine(c.thrower);
  auto session = engine->CreateSession();
  auto r = session->Execute("append t (x = 1)");
  ASSERT_FALSE(r.ok());
  ExpectInternal(r.status(), c.message);
  auto next = session->Execute("append u (x = 1)");
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST_P(EngineFirewallTest, PreparedExecuteReturnsInternal) {
  const Case c = GetCase();
  auto engine = MakeEngine(c.thrower);
  auto session = engine->CreateSession();
  auto boom = session->Prepare("append t (x = $1)");
  auto fine = session->Prepare("append u (x = $1)");
  ASSERT_TRUE(boom.ok() && fine.ok());
  auto r = boom->Execute({Value::Int(1)});
  ASSERT_FALSE(r.ok());
  ExpectInternal(r.status(), c.message);
  auto next = fine->Execute({Value::Int(1)});
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST_P(EngineFirewallTest, EngineExecuteReturnsInternal) {
  const Case c = GetCase();
  auto engine = MakeEngine(c.thrower);
  // From a thread of the caller's own, as a parallel client would.
  std::thread client([&] {
    Result<QueryResult> r = engine->Execute("append t (x = 1)");
    ASSERT_FALSE(r.ok());
    ExpectInternal(r.status(), c.message);
    Result<QueryResult> next = engine->Execute("append u (x = 1)");
    EXPECT_TRUE(next.ok()) << next.status().ToString();
  });
  client.join();
}

TEST_P(EngineFirewallTest, RepeatedThrowsDoNotLeakRuleCascadeDepth) {
  // More throws than the cascade-depth limit: if unwinding skipped the
  // depth bookkeeping, the well-behaved rule on `u` would start failing
  // with "rule cascade exceeds depth".
  const Case c = GetCase();
  auto engine = MakeEngine(c.thrower);
  auto session = engine->CreateSession();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(session->Execute("append t (x = 1)").ok());
  }
  auto next = session->Execute("append u (x = 7)");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  auto rows = session->Execute("retrieve (l.x) from l in log");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_P(EngineFirewallTest, ThrowingTemporalCallbackFailsTheAdvance) {
  // The callback runs inside a DBCRON firing; without the firewalls
  // around the callback and the advance's chunk the throw would unwind
  // out of AdvanceTo.
  const Case c = GetCase();
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  TemporalAction action;
  action.callback = [thrower = c.thrower](TimePoint) -> Status {
    thrower();
    return Status::OK();
  };
  ASSERT_TRUE(engine->DeclareRule("cron_boom", "DAYS", std::move(action)).ok());

  Status advanced = engine->AdvanceTo(30);
  ASSERT_FALSE(advanced.ok());
  ExpectInternal(advanced, c.message);
  // The engine keeps serving statements.
  EXPECT_TRUE(session->Execute("append t (x = 1)").ok());
  auto rows = session->Execute("retrieve (t.x) from t in t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
  // Stop reports the error of DBCRON's last chunk, which fired the rule
  // too.
  EXPECT_EQ(engine->Stop().code(), StatusCode::kInternal);
}

// A failed firing neither stops DBCRON nor sticks to the engine: the rule
// is rescheduled and fires on every later day, the clock reaches the
// target, the error is audited and returned by that advance only.
TEST_P(EngineFirewallTest, FailingTemporalCallbackIsRescheduled) {
  const Case c = GetCase();
  int calls = 0;
  bool failing = true;
  auto engine = Engine::Create().value();
  TemporalAction action;
  action.callback = [&, thrower = c.thrower](TimePoint) -> Status {
    ++calls;
    if (!failing) return Status::OK();
    // Half the days throw, the other half return an error.
    if (calls % 2 == 0) thrower();
    return Status::EvalError("daily failure");
  };
  obs::Audit().Clear();
  ASSERT_TRUE(engine->DeclareRule("daily", "DAYS", std::move(action)).ok());

  Status advanced = engine->AdvanceTo(30);
  EXPECT_FALSE(advanced.ok());
  EXPECT_EQ(calls, 29);  // days 2..30
  EXPECT_EQ(engine->Now(), 30);
  int errors = 0;
  for (const obs::AuditRecord& record : obs::Audit().Snapshot()) {
    if (record.rule == "daily" &&
        record.outcome == obs::AuditRecord::Outcome::kError) {
      ++errors;
    }
  }
  EXPECT_EQ(errors, 29);

  failing = false;
  Status clean = engine->AdvanceTo(40);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_EQ(calls, 39);
  EXPECT_EQ(engine->Now(), 40);
  EXPECT_TRUE(engine->Stop().ok());
}

INSTANTIATE_TEST_SUITE_P(Throws, EngineFirewallTest, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("StdException")
                                                  : std::string("NonException");
                         });

}  // namespace
}  // namespace caldb
