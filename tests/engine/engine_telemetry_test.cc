// End-to-end telemetry: one logical operation = one connected span tree
// on the caller's thread, through a statement (Execute) and a DBCRON
// advance (AdvanceTo, under the caller's open span), audit records for temporal and event rules with
// scheduled-vs-actual days and triggering statement/session, the
// slow-statement log, the audit ring's bound under sustained firing, and
// statement accounting: every statement recorded once, on every path.
//
// These tests read the process-global tracer / audit trail / logger, so
// each clears them first; gtest runs tests in one binary sequentially.

#include "caldb.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace caldb {
namespace {

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

TEST(EngineTelemetryTest, StatementSpanParentsToCallersOpenSpan) {
  auto engine = Engine::Create().value();
  obs::Trace().Clear();

  uint64_t root_id = 0;
  {
    obs::Tracer::Span root = obs::Trace().StartSpan("test.caller");
    root_id = root.id();
    ASSERT_TRUE(engine->Execute("create table a (x int)").ok());
  }
  // No span is open now, so this statement's span is a root.
  ASSERT_TRUE(engine->Execute("create table b (x int)").ok());

  std::vector<obs::SpanRecord> executes =
      SpansNamed(obs::Trace().Snapshot(), "engine.execute");
  ASSERT_EQ(executes.size(), 2u);
  // The statement runs on the caller's thread, under the caller's span:
  // one tree, not an orphan.
  EXPECT_EQ(executes[0].parent_id, root_id);
  EXPECT_EQ(executes[0].tid, obs::CurrentThreadId());
  EXPECT_EQ(executes[1].parent_id, 0u);
  EXPECT_EQ(executes[1].tid, obs::CurrentThreadId());
}

TEST(EngineTelemetryTest, DbcronFiringIsOneTreeWithAuditRecord) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS:during:WEEKS do "
                            "append fires (day = fire_day())")
                  .ok());
  obs::Trace().Clear();
  obs::Audit().Clear();

  ASSERT_TRUE(engine->AdvanceTo(5).ok());

  // Span tree: every cron.fire (and cron.probe) parents to a cron.advance
  // span, itself a root here: no span is open on the calling thread.
  std::vector<obs::SpanRecord> spans = obs::Trace().Snapshot();
  std::map<uint64_t, std::string> by_id;
  for (const obs::SpanRecord& s : spans) by_id[s.id] = s.name;
  std::vector<obs::SpanRecord> fires = SpansNamed(spans, "cron.fire");
  ASSERT_FALSE(fires.empty());
  for (const obs::SpanRecord& fire : fires) {
    ASSERT_NE(fire.parent_id, 0u);
    EXPECT_EQ(by_id[fire.parent_id], "cron.advance");
  }
  for (const obs::SpanRecord& probe : SpansNamed(spans, "cron.probe")) {
    EXPECT_EQ(by_id[probe.parent_id], "cron.advance");
  }

  // Audit: one dbcron record per firing, on time (fired == scheduled).
  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_FALSE(records.empty());
  int64_t fired_days = 0;
  for (const obs::AuditRecord& r : records) {
    EXPECT_EQ(r.source, obs::AuditRecord::Source::kDbCron);
    EXPECT_EQ(r.rule, "daily");
    EXPECT_EQ(r.outcome, obs::AuditRecord::Outcome::kOk);
    EXPECT_EQ(r.trigger, "dbcron");
    EXPECT_EQ(r.fired_day, r.scheduled_day);
    EXPECT_GE(r.duration_ns, 0);
    ++fired_days;
  }
  // Days 2..5 fire (first firing strictly after declaration day 1).
  EXPECT_EQ(fired_days, 4);
  // The trail agrees with the cron counters.
  EXPECT_EQ(static_cast<int64_t>(records.size()),
            engine->CronStats().fires);
}

TEST(EngineTelemetryTest, CronAdvanceParentsToCallersSpan) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS:during:WEEKS do "
                            "append fires (day = fire_day())")
                  .ok());
  obs::Trace().Clear();

  uint64_t client_id = 0;
  {
    obs::Tracer::Span client = obs::Trace().StartSpan("client");
    client_id = client.id();
    ASSERT_TRUE(engine->AdvanceTo(5).ok());
  }

  // DBCRON advances on the calling thread, so every chunk's cron.advance
  // hangs off the caller's open span: the advance is one trace tree.
  std::vector<obs::SpanRecord> advances =
      SpansNamed(obs::Trace().Snapshot(), "cron.advance");
  ASSERT_FALSE(advances.empty());
  for (const obs::SpanRecord& advance : advances) {
    EXPECT_EQ(advance.parent_id, client_id);
  }
}

TEST(EngineTelemetryTest, CascadedEventRuleAuditCarriesAdvancingSession) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table alerts (day int)").ok());
  ASSERT_TRUE(session->Execute("create table audit_rows (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("define rule mirror on append to alerts do "
                            "append audit_rows (day = NEW.day)")
                  .ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS:during:WEEKS do "
                            "append alerts (day = fire_day())")
                  .ok());
  obs::Audit().Clear();
  const std::string advance_stmt = "advance to 3";
  ASSERT_TRUE(session->Execute(advance_stmt).ok());

  // Days 2 and 3 fire: each a DBCRON record (no session) and a cascaded
  // event-rule record attributed to the session whose statement advanced
  // the clock.
  int dbcron = 0;
  int cascaded = 0;
  for (const obs::AuditRecord& r : obs::Audit().Snapshot()) {
    if (r.source == obs::AuditRecord::Source::kDbCron) {
      ++dbcron;
      EXPECT_EQ(r.session_id, 0u);
      EXPECT_EQ(r.trigger, "dbcron");
    } else {
      ++cascaded;
      EXPECT_EQ(r.rule, "mirror");
      EXPECT_EQ(r.session_id, session->id());
      EXPECT_EQ(r.trigger, advance_stmt);
    }
  }
  EXPECT_EQ(dbcron, 2);
  EXPECT_EQ(cascaded, 2);
}

TEST(EngineTelemetryTest, LateDeclaredRuleAuditsCatchUpLag) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table fires (day int)").ok());
  // Advance first: DBCRON has already probed the window [8, 14] when the
  // rule is declared on day 10, so its day-11 firing is only discovered
  // by the day-15 probe and fires late.
  ASSERT_TRUE(engine->AdvanceTo(10).ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule late on DAYS:during:WEEKS do "
                            "append fires (day = fire_day())")
                  .ok());
  obs::Audit().Clear();
  ASSERT_TRUE(engine->AdvanceTo(16).ok());

  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_FALSE(records.empty());
  const obs::AuditRecord& first = records.front();
  EXPECT_EQ(first.scheduled_day, 11);
  EXPECT_GT(first.fired_day, first.scheduled_day);
  // The human rendering surfaces the lag.
  EXPECT_NE(first.ToString().find("late"), std::string::npos)
      << first.ToString();
}

TEST(EngineTelemetryTest, EventRuleAuditCarriesTriggeringStatement) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table alerts (day int)").ok());
  ASSERT_TRUE(session->Execute("create table audit_rows (day int)").ok());
  ASSERT_TRUE(session
                  ->Execute("define rule mirror on append to alerts do "
                            "append audit_rows (day = NEW.day)")
                  .ok());
  obs::Audit().Clear();
  const std::string trigger_stmt = "append alerts (day = 42)";
  ASSERT_TRUE(session->Execute(trigger_stmt).ok());

  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].source, obs::AuditRecord::Source::kStatement);
  EXPECT_EQ(records[0].rule, "mirror");
  EXPECT_EQ(records[0].outcome, obs::AuditRecord::Outcome::kOk);
  EXPECT_EQ(records[0].trigger, trigger_stmt);
  EXPECT_EQ(records[0].session_id, session->id());
}

TEST(EngineTelemetryTest, SlowStatementsAreLoggedWithText) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table slow (x int)").ok());
  obs::Log().Clear();
  const int64_t saved = Database::SlowStatementThresholdNs();
  Database::SetSlowStatementThresholdNs(1);  // everything is slow now
  const std::string stmt = "retrieve (s.x) from s in slow";
  ASSERT_TRUE(session->Execute(stmt).ok());
  Database::SetSlowStatementThresholdNs(saved);

  bool found = false;
  for (const obs::LogRecord& r : obs::Log().Snapshot()) {
    if (r.event != "db.slow_statement") continue;
    found = true;
    EXPECT_EQ(r.level, obs::LogLevel::kWarn);
    EXPECT_EQ(r.session_id, session->id());
    // Both the context statement and the logged stmt field carry the text.
    EXPECT_EQ(r.statement, stmt);
    EXPECT_NE(obs::RenderLogLine(r).find("retrieve (s.x)"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
  EXPECT_GE(
      obs::Metrics().counter("caldb.db.slow_statements")->value(), 1);
}

TEST(EngineTelemetryTest, ZeroThresholdDisablesSlowStatementLog) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table quiet (x int)").ok());
  obs::Log().Clear();
  const int64_t saved = Database::SlowStatementThresholdNs();
  Database::SetSlowStatementThresholdNs(0);
  ASSERT_TRUE(session->Execute("retrieve (q.x) from q in quiet").ok());
  Database::SetSlowStatementThresholdNs(saved);
  for (const obs::LogRecord& r : obs::Log().Snapshot()) {
    EXPECT_NE(r.event, "db.slow_statement");
  }
}

// Snapshot of the three statement instruments.
struct StatementCounts {
  int64_t engine = obs::Metrics().counter("caldb.engine.statements")->value();
  int64_t db = obs::Metrics().counter("caldb.db.statements")->value();
  int64_t latency =
      obs::Metrics().histogram("caldb.db.statement_ns")->count();
};

TEST(EngineTelemetryTest, EveryStatementIsCountedOncePerLayer) {
  ASSERT_TRUE(obs::Enabled());
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  auto insert = session->Prepare("append t (x = $1)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();

  // N text + N prepared statements, no rules armed: each one is one
  // engine statement, one db statement and one latency sample.
  constexpr int kN = 25;
  const StatementCounts before;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(session->Execute("append t (x = " + std::to_string(i) + ")")
                    .ok());
    ASSERT_TRUE(insert->Execute({Value::Int(i)}).ok());
  }
  const StatementCounts after;
  EXPECT_EQ(after.engine - before.engine, 2 * kN);
  EXPECT_EQ(after.db - before.db, 2 * kN);
  EXPECT_EQ(after.latency - before.latency, 2 * kN);

  // A DBCRON firing executes its action through the database but is not
  // an engine statement.
  ASSERT_TRUE(session
                  ->Execute("declare rule daily on DAYS do "
                            "append t (x = $1)")
                  .ok());
  const StatementCounts pre_fire;
  ASSERT_TRUE(engine->AdvanceTo(5).ok());
  const StatementCounts fired;
  const int64_t fires = engine->CronStats().fires;
  ASSERT_GT(fires, 0);
  EXPECT_EQ(fired.engine - pre_fire.engine, 0);
  EXPECT_EQ(fired.db - pre_fire.db, fires);
  EXPECT_EQ(fired.latency - pre_fire.latency, fires);
}

TEST(EngineTelemetryTest, AuditRingStaysBoundedUnderSustainedFiring) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->Execute("create table t (x int)").ok());
  ASSERT_TRUE(session
                  ->Execute("declare rule everyday on DAYS:during:WEEKS do "
                            "append t (x = fire_day())")
                  .ok());
  obs::Audit().Clear();
  const int64_t target =
      static_cast<int64_t>(obs::Audit().capacity()) + 100;
  ASSERT_TRUE(engine->AdvanceTo(target + 2).ok());

  // More firings than the ring holds: the ring stays at capacity, the
  // running total keeps counting, and the survivors are the most recent.
  EXPECT_GT(obs::Audit().total(),
            static_cast<int64_t>(obs::Audit().capacity()));
  std::vector<obs::AuditRecord> records = obs::Audit().Snapshot();
  ASSERT_EQ(records.size(), obs::Audit().capacity());
  EXPECT_GT(records.front().seq, 1);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
  EXPECT_EQ(records.back().fired_day, target + 2);
}

}  // namespace
}  // namespace caldb
