// calendar_sessions: sessions evaluating ten user calendars.
//
// The calendars come from the paper and the examples: Tuesdays, Fridays,
// third Fridays (option expiry), month ends, quarter ends, mid-months,
// first Mondays, weekends, business Tuesdays and the last business day of
// each month over AM_BUS_DAYS (the paper's EMP-DAYS script).  Each op sets
// the session window and evaluates one calendar: 90% by name through
// Session::EvalCalendar, 10% as a `cal <name>` script through
// Session::Execute.  80% of windows come from a hot set of eight calendar
// years (small enough for the session gen-cache and the catalog's
// evaluation cache); 20% are distinct random windows, so the catalog's
// unbounded evaluation cache keeps growing and shows in peak_rss_mb.  The
// language, catalog and core layers do nearly all the work; the database
// does none.
//
// Each round runs the same kOpsPerRound operations on a fresh engine, so
// the evaluation cache every op meets is the same whatever the program's
// speed.  In one long phase a faster program would run more ops against
// a larger cache, and each op's cost grew with it.
//
// Correctness: hot-window results must equal a reference evaluated
// through a different path (the calendar's script text on a separate
// engine), and that reference must match civil-date arithmetic for every
// calendar; a sample of the distinct-window results is checked against
// the same reference after the phase.

#include <algorithm>
#include <set>

#include "workload.h"

namespace perfbench {
namespace {

using caldb::Calendar;
using caldb::CivilDate;
using caldb::Interval;
using caldb::QueryResult;
using caldb::Result;
using caldb::Status;
using caldb::TimePoint;
using caldb::Weekday;

struct CalendarDef {
  const char* name;
  const char* script;
};

// FRIDAYS precedes THIRD_FRIDAYS, which refers to it.
constexpr CalendarDef kCalendars[] = {
    {"TUESDAYS", "[2]/DAYS:during:WEEKS"},
    {"FRIDAYS", "[5]/DAYS:during:WEEKS"},
    {"THIRD_FRIDAYS", "[3]/FRIDAYS:overlaps:MONTHS"},
    {"MONTH_ENDS", "[n]/DAYS:during:MONTHS"},
    {"QUARTER_ENDS", "[n]/DAYS:during:caloperate(MONTHS, *, 3)"},
    {"MID_MONTHS", "[15]/DAYS:during:MONTHS"},
    {"FIRST_MONDAYS",
     "{M = [1]/DAYS:during:WEEKS; return ([1]/M:overlaps:MONTHS);}"},
    {"WEEKENDS", "[6..7]/DAYS:during:WEEKS"},
    {"BUS_TUESDAYS", "TUESDAYS:intersects:AM_BUS_DAYS"},
    {"LAST_BUS_DAYS",
     "{LDOM = [n]/DAYS:during:MONTHS; "
     "LDOM_HOL = LDOM - AM_BUS_DAYS:intersects:LDOM; "
     "LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL; "
     "return (LDOM - LDOM_HOL + LAST_BUS_DAY);}"},
};
constexpr int kNumCalendars = sizeof(kCalendars) / sizeof(kCalendars[0]);

constexpr int kFirstHotYear = 1994;
constexpr int kHotYears = 8;
// Distinct windows start in [kFirstHotYear, kLastYear - 8] and last two to
// eight years; market calendars cover every window with a year to spare.
constexpr int kLastYear = 2020;
constexpr int kMarketFirstYear = kFirstHotYear - 1;
constexpr int kMarketLastYear = kLastYear + 1;

constexpr int64_t kOpsPerRound = 20000;
constexpr int kDistinctPercent = 20;
constexpr int kScriptPercent = 10;
constexpr int kSampleEvery = 16;          // distinct results checked after
constexpr size_t kSamplePerClient = 400;  // the phase, per client

struct Op {
  uint8_t cal;
  bool script;    // `cal <name>` through Session::Execute
  int16_t hot;    // hot window index, or -1 for a distinct window
};

// Count, first/last point and an FNV-1a hash of the leaves: enough to
// tell two evaluations apart without keeping them.
struct Summary {
  int64_t count = 0;
  TimePoint first = 0, last = 0;
  uint64_t hash = 1469598103934665603ULL;
  bool operator==(const Summary&) const = default;
};

Summary Summarize(const Calendar& cal) {
  Summary s;
  for (const Interval& iv : cal.Leaves()) {
    if (s.count == 0) s.first = iv.lo;
    s.last = iv.hi;
    ++s.count;
    for (TimePoint p : {iv.lo, iv.hi}) {
      s.hash = (s.hash ^ static_cast<uint64_t>(p)) * 1099511628211ULL;
    }
  }
  return s;
}

uint64_t HashText(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : text) h = (h ^ ch) * 1099511628211ULL;
  return h;
}

struct Sample {
  uint8_t cal;
  bool script;
  Interval window;
  Summary summary;      // EvalCalendar ops
  uint64_t text_hash;   // script ops
};

class CalendarSessions : public Workload {
 public:
  explicit CalendarSessions(const Config& cfg)
      : cfg_(cfg),
        ops_per_round_(cfg.smoke ? 500 : kOpsPerRound),
        clients_(cfg.clients) {}

  std::vector<std::string> Classes() const override { return {"cal"}; }
  std::vector<std::string> PrimaryClasses() const override { return {"cal"}; }
  int Clients() const override { return clients_; }

  Status Setup(SpanRecorder::Sink* sink) override {
    return Build(&engine_, sink);
  }

  Status Prepare() override {
    const caldb::CalendarCatalog& catalog = engine_->catalog();
    for (int y = 0; y < kHotYears; ++y) {
      CALDB_ASSIGN_OR_RETURN(
          Interval w, catalog.YearWindow(kFirstHotYear + y, kFirstHotYear + y));
      hot_windows_.push_back(w);
    }
    CALDB_ASSIGN_OR_RETURN(
        Interval range, catalog.YearWindow(kFirstHotYear, kLastYear - 8));
    distinct_range_ = range;

    // The reference: a second engine, evaluating each calendar's script
    // text (not the catalog entry by name), checked against civil dates.
    CALDB_RETURN_IF_ERROR(Build(&reference_engine_, nullptr));
    reference_ = reference_engine_->CreateSession();
    for (int cal = 0; cal < kNumCalendars; ++cal) {
      for (int y = 0; y < kHotYears; ++y) {
        reference_->SetWindow(hot_windows_[y]);
        CALDB_ASSIGN_OR_RETURN(caldb::ScriptValue ref,
                               reference_->EvalScript(kCalendars[cal].script));
        CALDB_RETURN_IF_ERROR(CheckCivil(cal, kFirstHotYear + y,
                                         hot_windows_[y], ref.calendar));
        hot_summary_.push_back(Summarize(ref.calendar));
        hot_text_.push_back(ref.calendar.ToString());
      }
    }

    ops_.assign(clients_, {});
    samples_.assign(clients_, {});
    for (int c = 0; c < clients_; ++c) {
      Rng rng(cfg_.seed * 6364136223846793005ULL + c);
      for (int64_t i = 0; i < ops_per_round_; ++i) {
        Op op;
        op.script = rng.Below(100) < kScriptPercent;
        op.hot = rng.Below(100) < kDistinctPercent
                     ? int16_t{-1}
                     : static_cast<int16_t>(rng.Below(kHotYears));
        op.cal = static_cast<uint8_t>(rng.Below(kNumCalendars));
        ops_[c].push_back(op);
      }
    }
    return Status::OK();
  }

  void Round(SpanRecorder* spans, PhaseResult* result) override {
    for (int c = 0; c < clients_; ++c) {
      sessions_.push_back(engine_->CreateSession());
    }
    // Every round runs the same ops, so only the first keeps samples.
    const bool keep_samples = result->rounds == 0;
    RunClients(clients_, spans, result,
               [this, keep_samples](int c, ClientStats& stats,
                                    SpanRecorder::Sink* sink) {
                 Client(c, keep_samples, stats, sink);
               });
  }

  void Reset() override {
    sessions_.clear();
    engine_.reset();
  }

  void Finish(PhaseResult* result) override {
    for (const std::vector<Sample>& samples : samples_) {
      for (const Sample& s : samples) {
        ++result->checks;
        reference_->SetWindow(s.window);
        Result<caldb::ScriptValue> ref =
            reference_->EvalScript(kCalendars[s.cal].script);
        const bool right =
            ref.ok() && (s.script ? s.text_hash ==
                                        HashText(ref->calendar.ToString())
                                  : s.summary == Summarize(ref->calendar));
        if (!right) {
          result->total.Fail(std::string("distinct-window result of ") +
                             kCalendars[s.cal].name + " " +
                             caldb::FormatInterval(s.window));
        }
      }
    }
  }

 private:
  Status Build(std::unique_ptr<caldb::Engine>* engine,
               SpanRecorder::Sink* sink) {
    {
      SpanScope span(sink, SpanName::kEngineCreate);
      CALDB_ASSIGN_OR_RETURN(*engine, caldb::Engine::Create());
    }
    CALDB_RETURN_IF_ERROR(caldb::InstallMarketCalendars(
        &(*engine)->catalog(), kMarketFirstYear, kMarketLastYear));
    std::unique_ptr<caldb::Session> session = (*engine)->CreateSession();
    for (const CalendarDef& def : kCalendars) {
      CALDB_RETURN_IF_ERROR(Exec(*session,
                                 std::string("define calendar ") + def.name +
                                     " as " + def.script,
                                 sink));
    }
    return Status::OK();
  }

  // The civil-date answer for calendar `cal` in calendar year `year`,
  // compared on the points inside the year (week-based calendars also
  // yield points of the weeks straddling the window's edges).
  Status CheckCivil(int cal, int year, Interval window, const Calendar& got) {
    const caldb::TimeSystem& ts = reference_engine_->time_system();
    CALDB_ASSIGN_OR_RETURN(Calendar holidays,
                           caldb::UsFederalHolidays(ts, year - 1, year + 1));
    std::set<TimePoint> holiday_days;
    for (const Interval& iv : holidays.Leaves()) {
      for (TimePoint p = iv.lo; p <= iv.hi; ++p) holiday_days.insert(p);
    }
    auto business = [&](TimePoint p) {
      const Weekday w = ts.WeekdayOfDayPoint(p);
      return w != Weekday::kSaturday && w != Weekday::kSunday &&
             holiday_days.count(p) == 0;
    };
    const std::string name = kCalendars[cal].name;
    std::vector<TimePoint> want;
    for (int month = 1; month <= 12; ++month) {
      const TimePoint first = ts.DayPointFromCivil(CivilDate{year, month, 1});
      const TimePoint last = ts.DayPointFromCivil(
          CivilDate{year, month, caldb::DaysInMonth(year, month)});
      int fridays = 0, mondays = 0;
      TimePoint last_business = 0;
      for (TimePoint p = first; p <= last; ++p) {
        const Weekday w = ts.WeekdayOfDayPoint(p);
        const bool weekday_match =
            (name == "TUESDAYS" && w == Weekday::kTuesday) ||
            (name == "FRIDAYS" && w == Weekday::kFriday) ||
            (name == "WEEKENDS" &&
             (w == Weekday::kSaturday || w == Weekday::kSunday)) ||
            (name == "BUS_TUESDAYS" && w == Weekday::kTuesday && business(p));
        if (weekday_match) want.push_back(p);
        if (w == Weekday::kFriday && ++fridays == 3 &&
            name == "THIRD_FRIDAYS") {
          want.push_back(p);
        }
        if (w == Weekday::kMonday && ++mondays == 1 &&
            name == "FIRST_MONDAYS") {
          want.push_back(p);
        }
        if (p - first == 14 && name == "MID_MONTHS") want.push_back(p);
        if (business(p)) last_business = p;
      }
      if (name == "MONTH_ENDS" ||
          (name == "QUARTER_ENDS" && month % 3 == 0)) {
        want.push_back(last);
      }
      if (name == "LAST_BUS_DAYS") want.push_back(last_business);
    }
    std::vector<TimePoint> have;
    for (const Interval& iv : got.Leaves()) {
      for (TimePoint p = std::max(iv.lo, window.lo);
           p <= std::min(iv.hi, window.hi); ++p) {
        have.push_back(p);
      }
    }
    std::sort(have.begin(), have.end());
    if (have != want) {
      return Status::Internal("reference " + name + " for " +
                              std::to_string(year) +
                              " disagrees with civil dates");
    }
    return Status::OK();
  }

  // Deterministic distinct window number i of client c.
  Interval DistinctWindow(int c, int64_t i) const {
    Rng rng(cfg_.seed ^ (static_cast<uint64_t>(c) << 56) ^
            (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL));
    const int64_t span = distinct_range_.hi - distinct_range_.lo;
    const TimePoint lo = distinct_range_.lo + rng.Below(span);
    return Interval{lo, lo + 729 + rng.Below(2192)};
  }

  // Runs client c's ops of one round.
  void Client(int c, bool keep_samples, ClientStats& stats,
              SpanRecorder::Sink* sink) {
    caldb::Session& session = *sessions_[c];
    const std::vector<Op>& ops = ops_[c];
    std::vector<Sample>& samples = samples_[c];
    int64_t distinct = 0;
    for (int64_t i = 0; i < ops_per_round_; ++i) {
      const Op& op = ops[i];
      const Interval window = op.hot >= 0 ? hot_windows_[op.hot]
                                          : DistinctWindow(c, distinct++);
      const CalendarDef& def = kCalendars[op.cal];
      const int64_t op_id = (int64_t{c} + 1) << 40 | i;
      const int64_t t0 = NowNs();
      session.SetWindow(window);
      Result<Calendar> cal = Calendar();
      Result<QueryResult> text = QueryResult();
      if (op.script) {
        SpanScope span(sink, SpanName::kSessionExecute, op_id);
        text = session.Execute(std::string("cal ") + def.name);
      } else {
        SpanScope span(sink, SpanName::kEvalCalendar, op_id);
        cal = session.EvalCalendar(def.name);
      }
      const int64_t ns = NowNs() - t0;
      ++stats.ops;
      if (!cal.ok() || !text.ok()) {
        stats.cal.Add(Latencies::kFailedNs);
        stats.Fail(std::string(def.name) + ": " +
                   (cal.ok() ? text.status() : cal.status()).ToString());
        continue;
      }
      bool right = true;
      if (op.hot >= 0) {
        const size_t ref = static_cast<size_t>(op.cal) * kHotYears + op.hot;
        right = op.script ? text->message == hot_text_[ref]
                          : Summarize(*cal) == hot_summary_[ref];
      } else if (keep_samples && distinct % kSampleEvery == 0 &&
                 samples.size() < kSamplePerClient) {
        samples.push_back(Sample{op.cal, op.script, window,
                                 op.script ? Summary{} : Summarize(*cal),
                                 op.script ? HashText(text->message) : 0});
      }
      stats.cal.Add(right ? ns : Latencies::kFailedNs);
      if (!right) {
        stats.Fail(std::string("wrong hot-window result of ") + def.name);
      }
    }
  }

  const Config cfg_;
  const int64_t ops_per_round_;
  const int clients_;
  std::unique_ptr<caldb::Engine> engine_;
  std::unique_ptr<caldb::Engine> reference_engine_;
  std::unique_ptr<caldb::Session> reference_;
  std::vector<std::unique_ptr<caldb::Session>> sessions_;
  std::vector<Interval> hot_windows_;
  Interval distinct_range_;
  std::vector<Summary> hot_summary_;  // [cal * kHotYears + year]
  std::vector<std::string> hot_text_;
  std::vector<std::vector<Op>> ops_;
  std::vector<std::vector<Sample>> samples_;  // samples_[c]: client c only
};

}  // namespace

std::unique_ptr<Workload> MakeCalendarSessions(const Config& cfg) {
  return std::make_unique<CalendarSessions>(cfg);
}

}  // namespace perfbench
