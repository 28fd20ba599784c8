// The clock of the temporal-rule system.  Rule triggering semantics depend
// on the order and granule of firings, not on wall-clock seconds, so the
// reproduction drives DBCRON from a virtual clock whose points are
// granules of the rule system's unit (DAYS by default, HOURS for
// process-control rules).

#ifndef CALDB_RULES_CLOCK_H_
#define CALDB_RULES_CLOCK_H_

#include <atomic>

#include "time/timepoint.h"

namespace caldb {

/// A manually advanced clock.  Time never goes backwards.
///
/// `now_` is atomic so concurrent sessions can read the clock while an
/// advancing caller moves it (caldb::Engine).  Advancing itself is
/// single-writer: only DBCRON (or a single-threaded driver) moves time.
class VirtualClock {
 public:
  explicit VirtualClock(TimePoint start_day = 1) : now_(start_day) {}

  /// The current point.
  TimePoint NowDay() const { return now_.load(std::memory_order_acquire); }

  /// Moves to `day` (no-op when `day` is in the past).
  void AdvanceTo(TimePoint day) {
    if (day > NowDay()) now_.store(day, std::memory_order_release);
  }

  /// Moves forward by `days` granules.
  void Tick(int64_t days = 1) {
    now_.store(PointAdd(NowDay(), days), std::memory_order_release);
  }

 private:
  std::atomic<TimePoint> now_;
};

}  // namespace caldb

#endif  // CALDB_RULES_CLOCK_H_
