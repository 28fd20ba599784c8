// DBCRON (§4, Figure 4): the daemon that triggers temporal rules.
//
//   "RULE-TIME is probed by a daemon process, DBCRON, every T units of
//    time to determine the temporal rules that trigger in the next T time
//    units.  DBCRON creates a main memory data structure that stores this
//    information and is responsible for triggering rules at appropriate
//    time points.  It is modeled on the UNIX utility, CRON."
//
// The reproduction drives DBCRON from a virtual clock: AdvanceTo(day)
// plays time forward, probing RULE-TIME every `probe_period` days (via
// the B+tree index on next_fire) and firing due rules in time order from
// an ordered pending set.
//
// Direct construction is deprecated for concurrent use: DbCron itself is
// single-threaded, and running it next to live sessions needs the
// serialization caldb::Engine provides (engine/engine.h) — the Engine
// owns a DbCron, advances it one caller at a time, and fires rules under
// the exclusive database lock.  Construct one directly only in
// single-threaded library code and tests (Engine::AdvanceTo is the
// server-side entry point).

#ifndef CALDB_RULES_DBCRON_H_
#define CALDB_RULES_DBCRON_H_

#include <set>
#include <utility>

#include "rules/clock.h"
#include "rules/temporal_rules.h"

namespace caldb {

class DbCron {
 public:
  /// `rules` and `clock` must outlive the DbCron.  `probe_period_days` is
  /// the paper's T.
  DbCron(TemporalRuleManager* rules, VirtualClock* clock,
         int64_t probe_period_days = 7);

  /// Plays virtual time forward to `day` inclusive, probing and firing as
  /// time passes.  Rules becoming due are fired in (fire_day, rule_id)
  /// order; a rule declared mid-window is picked up at the next probe.
  /// A failed firing is still rescheduled and the clock still reaches
  /// `day`; the first error (also in the firing's audit record) is
  /// returned.
  Status AdvanceTo(TimePoint day);

  int64_t probe_period_days() const { return probe_period_days_; }

  struct CronStats {
    int64_t probes = 0;
    int64_t fires = 0;
    int64_t max_heap_size = 0;
  };
  const CronStats& stats() const { return stats_; }

 private:
  // Probes RULE-TIME for rules due in [now, now + T) and loads them into
  // the pending set.
  Status Probe(TimePoint now);

  using PendingEntry = std::pair<TimePoint, int64_t>;  // (fire_day, rule_id)

  // Records pending_'s size in the depth statistics.
  void NoteDepth();

  TemporalRuleManager* rules_;
  VirtualClock* clock_;
  int64_t probe_period_days_;
  TimePoint next_probe_day_;
  // Due firings, earliest (fire_day, rule_id) first.  Ordered and unique,
  // so it is both the min-queue and the dedup a re-probe of an already
  // loaded window needs.
  std::set<PendingEntry> pending_;
  CronStats stats_;
};

}  // namespace caldb

#endif  // CALDB_RULES_DBCRON_H_
