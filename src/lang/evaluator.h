// Executes evaluation plans.

#ifndef CALDB_LANG_EVALUATOR_H_
#define CALDB_LANG_EVALUATOR_H_

#include <cstddef>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/calendar.h"
#include "lang/calendar_source.h"
#include "lang/plan.h"
#include "time/time_system.h"

namespace caldb {

/// What a script evaluation produced.
struct ScriptValue {
  enum class Kind {
    kNull,      // no return executed / empty result
    kCalendar,  // a calendar value
    kString,    // a string alert ("LAST TRADING DAY")
    kBlocked,   // an empty-bodied while whose condition is still true —
                // the paper's busy-wait ("while (today:<:temp2) ;")
  };
  Kind kind = Kind::kNull;
  Calendar calendar;
  std::string text;

  static ScriptValue Null() { return {}; }
  static ScriptValue Of(Calendar c) {
    ScriptValue v;
    v.kind = Kind::kCalendar;
    v.calendar = std::move(c);
    return v;
  }
  static ScriptValue Of(std::string s) {
    ScriptValue v;
    v.kind = Kind::kString;
    v.text = std::move(s);
    return v;
  }
  static ScriptValue Blocked() {
    ScriptValue v;
    v.kind = Kind::kBlocked;
    return v;
  }
};

struct EvalOptions {
  /// Generation window for calendars with no tighter bound, in DAYS points.
  Interval window_days{1, 365};
  /// The DAYS point of "today" (used by `today` and DBCRON rules).
  TimePoint today_day = 1;
  /// When false, window hints are ignored and every calendar is generated
  /// over the full global window — the naive evaluation the paper's
  /// factorization optimization is measured against (benchmarks PERF-1/2).
  bool use_window_hints = true;
  int64_t max_loop_iterations = 100000;
  int max_invoke_depth = 16;
  /// When set, per-plan-node execution counts/timings are recorded here
  /// (EXPLAIN/PROFILE).  Propagates into nested kInvoke plans.
  StepProfile* profile = nullptr;
};

/// The one bounded cache of evaluated calendar values (DESIGN.md §5): an
/// LRU capped by entry count and payload bytes, over two kinds of key.
/// Base generations (granularity, unit, window) do not depend on the
/// catalog; a lookup may return a cached window covering the request, for
/// the caller to slice.  Derived values (name, catalog version read before
/// Resolve, window) match exactly; values of an older catalog are never
/// asked for again and age out.  The lock covers one lookup or insert:
/// values are COW handles copied out, so evaluation runs unlocked.  Base
/// lookups feed "caldb.eval.gen_cache.{hits,covered_hits,misses}", derived
/// lookups "caldb.catalog.eval_cache.{hits,misses}", evictions of either
/// kind "caldb.eval.gen_cache.evictions".
class CalendarCache {
 public:
  /// The budget: room for ~80 hot derived values (ten calendars over
  /// eight one-year windows) and their base generations, with distinct
  /// client-chosen windows churning through the rest.
  static constexpr size_t kMaxEntries = 1024;
  static constexpr size_t kMaxBytes = 32u << 20;

  explicit CalendarCache(size_t max_entries = kMaxEntries,
                         size_t max_bytes = kMaxBytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  // Base keys have an empty name and version 0, so they sort first,
  // grouped by (granularity, unit) and then by window: the covering scan
  // walks one group.  Catalog names are never empty.
  struct Key {
    std::string name;
    uint64_t version = 0;
    int granularity = 0;
    int unit = 0;
    TimePoint lo = 0;
    TimePoint hi = 0;
    auto operator<=>(const Key&) const = default;

    static Key Base(Granularity granularity, Granularity unit,
                    const Interval& window) {
      return {"", 0, static_cast<int>(granularity), static_cast<int>(unit),
              window.lo, window.hi};
    }
    static Key Derived(std::string name, uint64_t version,
                       const Interval& window) {
      return {std::move(name), version, 0, 0, window.lo, window.hi};
    }
  };

  struct BaseHit {
    Calendar value;
    bool covering = false;  // a wider window: slice it down to the request
  };
  /// The exact entry, else the first cached window (in window order) of
  /// the same granularity and unit that covers the key's.  Touches it.
  std::optional<BaseHit> FindBase(const Key& key);
  /// Exact match only.
  std::optional<Calendar> FindDerived(const Key& key);
  /// Inserts (replacing any previous value) and evicts past the budget.
  void Insert(Key key, Calendar value);

  size_t entries() const;
  size_t bytes() const;

 private:
  struct Entry {
    Key key;
    Calendar value;
    size_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  std::optional<Calendar> FindLocked(const Key& key);  // requires mu_

  const size_t max_entries_;
  const size_t max_bytes_;
  mutable std::mutex mu_;
  size_t bytes_ = 0;
  Lru lru_;  // front = most recently used
  std::map<Key, Lru::iterator> index_;
};

/// Counters used by the factorization / push-down benchmarks.  A thin
/// per-run view: the same events also feed the process-wide registry
/// ("caldb.eval.*", see docs/OBSERVABILITY.md).
struct EvalStats {
  int64_t steps_executed = 0;
  int64_t generate_calls = 0;
  int64_t intervals_generated = 0;  // intervals materialized by GENERATE
  int64_t cache_hits = 0;           // exact-key and covering-window hits
};

class Evaluator {
 public:
  /// No pointer is owned.  `source` may be null when the plan has no
  /// kLoadValues / kInvoke steps.  `cache` is shared with other evaluators
  /// (the catalog passes its own); without one the evaluator keeps a
  /// private cache that lives as long as it does.
  Evaluator(const TimeSystem* ts, const CalendarSource* source,
            CalendarCache* cache = nullptr)
      : ts_(ts),
        source_(source),
        cache_(cache != nullptr ? cache : &own_cache_) {}

  /// Runs a plan to completion.
  Result<ScriptValue> Run(const Plan& plan, const EvalOptions& opts,
                          EvalStats* stats = nullptr);

  /// Whether the last Run executed a `today` step, in its own plan or in
  /// any derived plan it invoked.  A run that did not read `today`
  /// depends only on the plan, the window and the catalog version, which
  /// is what lets DBCRON (CalendarCatalog::NextFireCursor) and the
  /// derived-value cache memoize it.
  bool read_today() const { return read_today_; }

 private:
  struct Frame;

  Result<ScriptValue> RunPlan(const Plan& plan, const EvalOptions& opts,
                              int depth);
  // Executes steps; sets *returned when a return fired.
  Status RunSteps(const std::vector<PlanStep>& steps, Frame* frame,
                  ScriptValue* returned, bool* did_return);
  // RunStep wraps RunStepImpl with the per-step profiler.
  Status RunStep(const PlanStep& step, Frame* frame, ScriptValue* returned,
                 bool* did_return);
  Status RunStepImpl(const PlanStep& step, Frame* frame, ScriptValue* returned,
                     bool* did_return);
  Result<Interval> WindowFor(const PlanStep& step, const Frame& frame) const;
  Result<Calendar> ReadReg(const Frame& frame, int reg, int line_hint) const;

  const TimeSystem* ts_;
  const CalendarSource* source_;
  EvalStats* stats_ = nullptr;
  // Base generations are looked up in, and stored to, *cache_.  A lookup
  // also reuses any cached window *covering* the request: generation over
  // W yields exactly the granules overlapping W, so slicing a covering
  // entry down to W (relaxed overlaps sweep) is bit-identical to
  // regenerating, and the cache stays coherent without storing the slice.
  CalendarCache own_cache_;
  CalendarCache* cache_;
  bool read_today_ = false;  // see read_today(); reset by each Run
};

/// Converts a DAYS window to a covering window in `unit` points.
Result<Interval> ConvertDayWindow(const TimeSystem& ts, const Interval& days,
                                  Granularity unit);

}  // namespace caldb

#endif  // CALDB_LANG_EVALUATOR_H_
