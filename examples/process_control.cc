// Process control (§1 names "manufacturing and process control" among the
// motivating applications): an Engine configured at HOURS granularity
// drives a plant's inspection and shift schedule through DBCRON, with a
// database condition gating an alert.  Built on the public
// facade (caldb.h) only.

#include <cstdio>

#include "caldb.h"

using namespace caldb;

namespace {

Status Run() {
  // Hour-granularity rules: point 1 is Jan 1 1993, 00:00-01:00.  The
  // probe period is 6 hours of virtual time.
  EngineOptions opts;
  opts.rule_unit = Granularity::kHours;
  opts.probe_period = 6;
  opts.rule_horizon = 24 * 60;
  CALDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine, Engine::Create(opts));
  const TimeSystem& ts = engine->time_system();

  std::unique_ptr<Session> session = engine->CreateSession();
  CALDB_RETURN_IF_ERROR(
      session->Execute("create table sensor (reading float)").status());
  CALDB_RETURN_IF_ERROR(
      session->Execute("create table alerts (hour int, what text)").status());
  CALDB_RETURN_IF_ERROR(
      session->Execute("append sensor (reading = 96.5)").status());

  auto describe = [&ts](TimePoint hour) {
    // Hour points map to (day, hour-of-day) through the time system.
    Interval day = IntervalToUnit(ts, Granularity::kHours, PointInterval(hour),
                                  Granularity::kDays)
                       .value();
    int64_t hour_of_day =
        PointDistance(ts.GranuleToUnit(Granularity::kDays, day.lo,
                                       Granularity::kHours)
                          .value()
                          .lo,
                      hour);
    return FormatCivil(ts.CivilFromDayPoint(day.lo)) + " " +
           std::to_string(hour_of_day) + ":00";
  };

  // Shift changes every 8 hours.
  TemporalAction shift;
  shift.callback = [&describe](TimePoint hour) {
    std::printf("  %s  shift change\n", describe(hour).c_str());
    return Status::OK();
  };
  CALDB_RETURN_IF_ERROR(
      engine->DeclareRule("shifts", "[1,9,17]/HOURS:during:DAYS", shift)
          .status());

  // A daily quality sweep at hour 12, but only while the boiler runs hot
  // (a database condition — the §6b extension).
  TemporalAction sweep;
  sweep.command = "append alerts (hour = fire_day(), what = 'overheat sweep')";
  CALDB_RETURN_IF_ERROR(engine
                            ->DeclareRule("sweep", "[12]/HOURS:during:DAYS",
                                          sweep,
                                          "retrieve (s.reading) from s in "
                                          "sensor where s.reading > 95.0")
                            .status());

  std::printf("Two days of plant time (probe period: 6 hours):\n");
  CALDB_RETURN_IF_ERROR(engine->AdvanceTo(24));
  // Overnight, the boiler cools: the sweep stops firing.
  CALDB_RETURN_IF_ERROR(
      session->Execute("replace s in sensor (reading = 82.0)").status());
  std::printf("  (boiler cooled to 82.0 overnight)\n");
  CALDB_RETURN_IF_ERROR(engine->AdvanceTo(48));

  CALDB_ASSIGN_OR_RETURN(
      QueryResult alerts,
      session->Execute("retrieve (a.hour, a.what) from a in alerts"));
  std::printf("\nalerts (condition-gated; only the hot day fired):\n%s",
              alerts.ToString().c_str());
  const TemporalRuleManager::FireStats fire_stats = engine->WithRulesRead(
      [](const TemporalRuleManager& rules) { return rules.fire_stats(); });
  std::printf("\nfired %lld, suppressed by condition %lld\n",
              static_cast<long long>(fire_stats.fired),
              static_cast<long long>(fire_stats.suppressed_by_condition));
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
