// Temporal rules end to end (§4, Figure 4): declare rules on calendar
// expressions, then let DBCRON play a simulated quarter of virtual time
// (Engine::AdvanceTo, on the calling thread).  Built on the public
// facade (caldb.h) only.

#include <cstdio>

#include "caldb.h"

using namespace caldb;

namespace {

Status Run() {
  CALDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine, Engine::Create());
  const TimeSystem& ts = engine->time_system();
  CALDB_RETURN_IF_ERROR(InstallMarketCalendars(&engine->catalog(), 1993, 1994));

  std::unique_ptr<Session> session = engine->CreateSession();
  CALDB_RETURN_IF_ERROR(
      session->Execute("create table alerts (day int, what text)").status());

  auto alert = [&ts](const char* what) {
    TemporalAction action;
    action.callback = [what, &ts](TimePoint day) {
      std::printf("  %s  fired: %s\n",
                  FormatCivil(ts.CivilFromDayPoint(day)).c_str(), what);
      return Status::OK();
    };
    return action;
  };

  // "On Every Tuesday do Proc_X" — the paper's own example rule.
  CALDB_RETURN_IF_ERROR(
      engine
          ->DeclareRule("every_tuesday", "[2]/DAYS:during:WEEKS",
                        alert("weekly staff meeting (Tuesday)"))
          .status());
  // EMP-DAYS (§3.3): the last day of every month, or the preceding
  // business day when the month ends on a weekend/holiday.
  CALDB_RETURN_IF_ERROR(
      engine
          ->DeclareRule("employment_figures", R"(
      {LDOM = [n]/DAYS:during:MONTHS;
       LDOM_HOL = LDOM - AM_BUS_DAYS:intersects:LDOM;
       LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
       return (LDOM - LDOM_HOL + LAST_BUS_DAY);})",
                        alert("employment figures released"))
          .status());
  // A rule with a database command action — declared through the uniform
  // Session entry point this time.  $1 binds the firing day at each
  // firing (the parameterized sibling of the fire_day() function).
  CALDB_RETURN_IF_ERROR(
      session
          ->Execute(
              "declare rule quarter_end on "
              "[n]/DAYS:during:caloperate(MONTHS, *, 3) do "
              "append alerts (day = $1, what = 'quarter end')")
          .status());

  std::printf("RULE-INFO after declaration:\n");
  CALDB_ASSIGN_OR_RETURN(
      QueryResult info,
      session->Execute(
          "retrieve (r.rule_id, r.name, r.expression) from r in RULE_INFO"));
  std::printf("%s\n", info.ToString().c_str());

  std::printf("Advancing virtual time through Q1 1993 (probe period 7 days):\n");
  CALDB_RETURN_IF_ERROR(engine->AdvanceToCivil({1993, 3, 31}));

  const DbCron::CronStats stats = engine->CronStats();
  std::printf("\nDBCRON stats: %lld probes, %lld firings, heap peak %lld\n",
              static_cast<long long>(stats.probes),
              static_cast<long long>(stats.fires),
              static_cast<long long>(stats.max_heap_size));

  // Read the alerts back through a prepared handle: compiled once, the
  // cutoff day bound at execute (Session::Prepare → PreparedStatement).
  CALDB_ASSIGN_OR_RETURN(
      PreparedStatement alerts_after,
      session->Prepare(
          "retrieve (a.day, a.what) from a in alerts where a.day >= $1"));
  CALDB_ASSIGN_OR_RETURN(QueryResult alerts,
                         alerts_after.Execute({Value::Int(1)}));
  std::printf("\nalerts table (written by the command-action rule):\n%s",
              alerts.ToString().c_str());

  CALDB_ASSIGN_OR_RETURN(
      QueryResult pending,
      session->Execute(
          "retrieve (t.rule_id, t.next_fire) from t in RULE_TIME"));
  std::printf("\nRULE-TIME (next firing of each rule):\n%s",
              pending.ToString().c_str());
  return Status::OK();
}

}  // namespace

int main() {
  Status st = Run();
  if (!st.ok()) {
    std::printf("ERROR: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
