// rule_firing: DBCRON firing ~1,000 temporal rules on a virtual clock.
//
// Rules mix weekly, monthly, quarterly, nested (n-th weekday of the
// month) and named-calendar expressions (last business day over
// AM_BUS_DAYS, third Fridays, quarter ends), 200 of each; each one's
// action is `append alerts (rule = <id>, day = $1)`.  One closed-loop
// client advances the engine's clock one day per op with
// Engine::AdvanceTo, which returns after the day's firings, and then
// runs a prepared retrieve of that day's alerts.  Next-fire evaluation
// dominates the advance.  The read runs after the advance, not beside it
// on a second client: a concurrent reader made the advance's latency
// depend on how the two threads were scheduled against the firings'
// exclusive lock, and the figures jumped between runs of the same code.
//
// Each round advances a fresh engine over the same kSpanDays days from
// the epoch, so every run measures the same days whatever the program's
// speed.
//
// Correctness: an oracle engine evaluates every distinct rule expression
// over the span before the first round.  Each read must return exactly
// the rules whose calendars hold the day just advanced, and after each
// round each rule's alerts must be exactly its calendar's points in the
// span.

#include <algorithm>
#include <map>

#include "workload.h"

namespace perfbench {
namespace {

using caldb::Interval;
using caldb::QueryResult;
using caldb::Result;
using caldb::Status;
using caldb::TimePoint;
using caldb::Value;

constexpr int kFirstYear = 1993;  // the engine's epoch year
// The days each round advances.  A one-day advance costs more the further
// the clock has gone (about 4 ms on the first days, 14 ms some 1,300 days
// later), so a fixed-time phase would let a faster program reach slower
// days; a fixed span keeps the work of every run the same.
constexpr int kSpanDays = 365;
// Market calendars and the oracle cover the span with a year to spare.
constexpr int kYears = 2;

struct NamedCalendar {
  const char* name;
  const char* script;
};

constexpr NamedCalendar kNamed[] = {
    {"FRIDAYS", "[5]/DAYS:during:WEEKS"},
    {"THIRD_FRIDAYS", "[3]/FRIDAYS:overlaps:MONTHS"},
    {"QUARTER_ENDS", "[n]/DAYS:during:caloperate(MONTHS, *, 3)"},
    {"LAST_BUS_DAYS",
     "{LDOM = [n]/DAYS:during:MONTHS; "
     "LDOM_HOL = LDOM - AM_BUS_DAYS:intersects:LDOM; "
     "LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL; "
     "return (LDOM - LDOM_HOL + LAST_BUS_DAY);}"},
};

// The i-th expression of the rule set: the family is i % 5 and the
// parameters step through the family's range (weekday, day of month or
// quarter, ordinal and weekday, named calendar), so the set, and with it
// the number of firings on each day, is the same for every seed.  With
// the parameters drawn from the seed, the median advance differed from
// seed to seed while the mean did not.
std::string RuleExpression(int i) {
  const int j = i / 5;
  switch (i % 5) {
    case 0:
      return Format("[%d]/DAYS:during:WEEKS", 1 + j % 5);
    case 1:
      return j % 29 == 28 ? "[n]/DAYS:during:MONTHS"
                          : Format("[%d]/DAYS:during:MONTHS", 1 + j % 29);
    case 2:
      return j % 90 == 89
                 ? "[n]/DAYS:during:caloperate(MONTHS, *, 3)"
                 : Format("[%d]/DAYS:during:caloperate(MONTHS, *, 3)",
                          1 + j % 90);
    case 3:
      return Format("[%d]/([%d]/DAYS:during:WEEKS):overlaps:MONTHS",
                    1 + j % 4, 1 + (j / 4) % 5);
    default: {
      static const char* const kRefs[] = {"LAST_BUS_DAYS", "THIRD_FRIDAYS",
                                          "QUARTER_ENDS"};
      return kRefs[j % 3];
    }
  }
}

class RuleFiring : public Workload {
 public:
  explicit RuleFiring(const Config& cfg)
      : cfg_(cfg),
        rules_(cfg.smoke ? 40 : 1000) {}

  std::vector<std::string> Classes() const override {
    return {"advance", "read"};
  }
  std::vector<std::string> PrimaryClasses() const override {
    return {"advance"};
  }
  int Clients() const override { return 1; }

  Status Setup(SpanRecorder::Sink* sink) override {
    CALDB_RETURN_IF_ERROR(Build(&engine_, sink));
    std::unique_ptr<caldb::Session> session = engine_->CreateSession();
    CALDB_RETURN_IF_ERROR(
        Exec(*session, "create table alerts (rule int, day int)", sink));
    CALDB_RETURN_IF_ERROR(Exec(*session, "create index on alerts (day)", sink));
    // The seed decides which rule gets which expression.
    expressions_.clear();
    for (int i = 0; i < rules_; ++i) expressions_.push_back(RuleExpression(i));
    Rng rng(cfg_.seed);
    for (int i = rules_ - 1; i > 0; --i) {
      std::swap(expressions_[i], expressions_[rng.Below(i + 1)]);
    }
    for (int i = 0; i < rules_; ++i) {
      CALDB_RETURN_IF_ERROR(Exec(
          *session,
          "declare rule r" + std::to_string(i) + " on " + expressions_[i] +
              " do append alerts (rule = " + std::to_string(i) + ", day = $1)",
          sink));
    }
    return Status::OK();
  }

  Status Prepare() override {
    start_day_ = engine_->Now();
    last_day_ = start_day_ + kSpanDays;

    // The oracle: every distinct expression evaluated once over the span on
    // a separate engine (so the measured engine's caches stay cold),
    // keeping the points DBCRON may fire: those after start_day_.
    std::unique_ptr<caldb::Engine> oracle;
    CALDB_RETURN_IF_ERROR(Build(&oracle, nullptr));
    std::unique_ptr<caldb::Session> session = oracle->CreateSession();
    CALDB_ASSIGN_OR_RETURN(
        Interval horizon,
        oracle->catalog().YearWindow(kFirstYear, kFirstYear + kYears - 1));
    session->SetWindow(horizon);
    std::map<std::string, std::vector<TimePoint>> by_expression;
    points_.clear();
    expected_per_day_.assign(last_day_ + 1, 0);
    for (int i = 0; i < rules_; ++i) {
      auto [it, fresh] = by_expression.try_emplace(expressions_[i]);
      if (fresh) {
        CALDB_ASSIGN_OR_RETURN(caldb::ScriptValue value,
                               session->EvalScript(expressions_[i]));
        for (const Interval& iv : value.calendar.Leaves()) {
          for (TimePoint p = std::max(iv.lo, start_day_ + 1);
               p <= std::min(iv.hi, last_day_); ++p) {
            it->second.push_back(p);
          }
        }
        std::sort(it->second.begin(), it->second.end());
        it->second.erase(std::unique(it->second.begin(), it->second.end()),
                         it->second.end());
      }
      points_.push_back(it->second);
      for (TimePoint p : it->second) ++expected_per_day_[p];
    }
    return Status::OK();
  }

  void Round(SpanRecorder* spans, PhaseResult* result) override {
    const Status st = PrepareReader();
    if (!st.ok()) {
      ++result->total.ops;
      result->total.Fail("prepare reader: " + st.ToString());
      return;
    }
    const int64_t fires_before = engine_->CronStats().fires;
    completed_ = start_day_;
    RunClients(1, spans, result,
               [this](int, ClientStats& stats, SpanRecorder::Sink* sink) {
                 Client(stats, sink);
               });
    const caldb::DbCron::CronStats cron = engine_->CronStats();
    result->fires += cron.fires - fires_before;
    result->heap_depth_max =
        std::max(result->heap_depth_max, cron.max_heap_size);
    result->advances = static_cast<int64_t>(result->total.advance.count());
    if (result->rounds == 0) result->statement_sample.push_back(read_.text());
    CheckAlerts(result);
  }

  void Reset() override {
    read_ = caldb::PreparedStatement();
    reader_.reset();
    engine_.reset();
  }

 private:
  Status Build(std::unique_ptr<caldb::Engine>* engine,
               SpanRecorder::Sink* sink) {
    {
      SpanScope span(sink, SpanName::kEngineCreate);
      CALDB_ASSIGN_OR_RETURN(*engine, caldb::Engine::Create());
    }
    CALDB_RETURN_IF_ERROR(caldb::InstallMarketCalendars(
        &(*engine)->catalog(), kFirstYear - 1, kFirstYear + kYears));
    std::unique_ptr<caldb::Session> session = (*engine)->CreateSession();
    for (const NamedCalendar& def : kNamed) {
      CALDB_RETURN_IF_ERROR(Exec(*session,
                                 std::string("define calendar ") + def.name +
                                     " as " + def.script,
                                 sink));
    }
    return Status::OK();
  }

  // Every alert of the round's engine must be a firing point of its rule
  // no later than the last completed day, and every rule must have fired
  // on each of its points up to that day.
  void CheckAlerts(PhaseResult* result) {
    const TimePoint end = completed_;
    std::unique_ptr<caldb::Session> session = engine_->CreateSession();
    ++result->checks;
    Result<QueryResult> all =
        session->Execute("retrieve (a.rule, a.day) from a in alerts");
    if (!all.ok()) {
      result->total.Fail("alerts scan: " + all.status().ToString());
      return;
    }
    std::vector<int64_t> fired(rules_, 0);
    for (const caldb::Row& row : all->rows) {
      ++result->checks;
      const int64_t rule = row[0].AsInt().value_or(-1);
      const TimePoint day = row[1].AsInt().value_or(-1);
      if (rule < 0 || rule >= rules_ ||
          !std::binary_search(points_[rule].begin(), points_[rule].end(),
                              day) ||
          day > end) {
        result->total.Fail("alert (" + std::to_string(rule) + ", " +
                           std::to_string(day) + ") is not a firing point");
        continue;
      }
      ++fired[rule];
    }
    for (int i = 0; i < rules_; ++i) {
      ++result->checks;
      const std::vector<TimePoint>& pts = points_[i];
      const int64_t want =
          std::upper_bound(pts.begin(), pts.end(), end) - pts.begin();
      if (fired[i] != want) {
        result->total.Fail("rule r" + std::to_string(i) + " (" +
                           expressions_[i] + ") fired " +
                           std::to_string(fired[i]) + " times, expected " +
                           std::to_string(want));
      }
    }
  }

  Status PrepareReader() {
    reader_ = engine_->CreateSession();
    CALDB_ASSIGN_OR_RETURN(
        read_, reader_->Prepare(
                   "retrieve (a.rule) from a in alerts where a.day = $1"));
    return Status::OK();
  }

  // Advances one day per op over the whole span; after each advance,
  // reads that day's alerts.
  void Client(ClientStats& stats, SpanRecorder::Sink* sink) {
    for (TimePoint day = start_day_ + 1; day <= last_day_; ++day) {
      int64_t t0 = NowNs();
      Status st = [&] {
        SpanScope span(sink, SpanName::kAdvanceTo, int64_t{1} << 40 | day);
        return engine_->AdvanceTo(day);
      }();
      int64_t ns = NowNs() - t0;
      ++stats.ops;
      if (!st.ok()) {
        stats.advance.Add(Latencies::kFailedNs);
        stats.Fail("advance to " + std::to_string(day) + ": " + st.ToString());
        break;  // the clock is stuck; later days would fail the same way
      }
      stats.advance.Add(ns);
      completed_ = day;

      t0 = NowNs();
      Result<QueryResult> r = [&] {
        SpanScope span(sink, SpanName::kPreparedExecute, int64_t{2} << 40 | day);
        return read_.Execute({Value::Int(day)});
      }();
      ns = NowNs() - t0;
      ++stats.ops;
      if (!r.ok()) {
        stats.read.Add(Latencies::kFailedNs);
        stats.Fail("alerts read: " + r.status().ToString());
        continue;
      }
      stats.rows_returned += static_cast<int64_t>(r->rows.size());
      const bool right = static_cast<int64_t>(r->rows.size()) ==
                         expected_per_day_[day];
      stats.read.Add(right ? ns : Latencies::kFailedNs);
      if (!right) {
        stats.Fail("alerts of day " + std::to_string(day) + ": " +
                   std::to_string(r->rows.size()) + " rows, expected " +
                   std::to_string(expected_per_day_[day]));
      }
    }
  }

  const Config cfg_;
  const int rules_;
  std::unique_ptr<caldb::Engine> engine_;
  std::unique_ptr<caldb::Session> reader_;
  caldb::PreparedStatement read_;
  std::vector<std::string> expressions_;
  std::vector<std::vector<TimePoint>> points_;  // per rule, sorted
  std::vector<int32_t> expected_per_day_;
  TimePoint start_day_ = 1;
  TimePoint last_day_ = 1;
  TimePoint completed_ = 1;  // last day whose firings are done
};

}  // namespace

std::unique_ptr<Workload> MakeRuleFiring(const Config& cfg) {
  return std::make_unique<RuleFiring>(cfg);
}

}  // namespace perfbench
