// Differential harness for the per-rule next-fire cursor
// (CalendarCatalog::NextFireCursor): for every after-point of a three-year
// span, a search through a cursor must return exactly what a cursor-less
// NextFirePointForPlan returns.  Expressions come from the random
// expression generator plus the five rule families of the rule_firing
// benchmark workload.  Plans that read `today` must never be answered from
// a cursor, and redefining a calendar a plan invokes must invalidate it.
//
// Seeded (fixed, printed) and bounded in time: a slow build (sanitizers)
// checks fewer random expressions, never fewer than kMinRandom valid ones.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "catalog/calendar_catalog.h"
#include "finance/market_calendars.h"
#include "obs/obs.h"
#include "rules/dbcron.h"
#include "tests/lang/expression_generator.h"

namespace caldb {
namespace {

constexpr uint64_t kSeed = 0x5EEDC0125ull;
constexpr int kMinRandom = 8;
constexpr int kMaxRandom = 40;
constexpr auto kRandomBudget = std::chrono::seconds(10);
constexpr auto kEveryPointCost = std::chrono::microseconds(1500);
constexpr auto kBoundaryCost = std::chrono::milliseconds(20);

// The rule_firing workload's named calendars and one expression of each
// of its five families (weekday, day of month, day of quarter, n-th
// weekday of the month, named calendar).
constexpr const char* kNamed[][2] = {
    {"FRIDAYS", "[5]/DAYS:during:WEEKS"},
    {"THIRD_FRIDAYS", "[3]/FRIDAYS:overlaps:MONTHS"},
    {"QUARTER_ENDS", "[n]/DAYS:during:caloperate(MONTHS, *, 3)"},
    {"LAST_BUS_DAYS",
     "{LDOM = [n]/DAYS:during:MONTHS; "
     "LDOM_HOL = LDOM - AM_BUS_DAYS:intersects:LDOM; "
     "LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL; "
     "return (LDOM - LDOM_HOL + LAST_BUS_DAY);}"},
};
constexpr const char* kFamilies[] = {
    "[3]/DAYS:during:WEEKS",
    "[n]/DAYS:during:MONTHS",
    "[29]/DAYS:during:MONTHS",
    "[90]/DAYS:during:caloperate(MONTHS, *, 3)",
    "[2]/([4]/DAYS:during:WEEKS):overlaps:MONTHS",
    "LAST_BUS_DAYS",
    "THIRD_FRIDAYS",
    "QUARTER_ENDS",
};

class NextFireCursorTest : public ::testing::Test {
 protected:
  NextFireCursorTest() : catalog_(TimeSystem{CivilDate{1993, 1, 1}}) {}

  void SetUp() override {
    std::printf("next_fire_cursor_test seed %#llx\n",
                static_cast<unsigned long long>(kSeed));
    ASSERT_TRUE(InstallMarketCalendars(&catalog_, 1991, 1997).ok());
    for (const auto& def : kNamed) {
      ASSERT_TRUE(catalog_.DefineDerived(def[0], def[1]).ok()) << def[0];
    }
    first_ = catalog_.time_system().DayPointFromCivil({1992, 12, 1});
    last_ = catalog_.time_system().DayPointFromCivil({1995, 12, 31});
    limit_ = catalog_.time_system().DayPointFromCivil({1996, 6, 30});
  }

  // One search each way; the cursor one must agree with the cursor-less
  // one on status and point.  Returns the evaluations the cursor search
  // ran.
  int CheckOne(const Plan& plan, TimePoint after, NextFireCursor* cursor,
               Granularity unit = Granularity::kDays) {
    const TimePoint limit = unit == Granularity::kDays ? limit_ : limit_ * 24;
    Result<std::optional<TimePoint>> want =
        catalog_.NextFirePointForPlan(plan, after, limit, unit);
    int evaluations = -1;
    Result<std::optional<TimePoint>> got = catalog_.NextFirePointForPlan(
        plan, after, limit, unit, cursor, &evaluations);
    EXPECT_EQ(got.ok(), want.ok()) << "after " << after;
    if (got.ok() && want.ok()) {
      EXPECT_EQ(*got, *want) << "after " << after;
    }
    return evaluations;
  }

  // Every after-point of the span in order (the firing direction), then
  // a quarter of them again in a shuffled order, through one cursor.
  // Returns the number of searches the cursor answered alone.
  int CheckSpan(const Plan& plan, std::mt19937_64* rng) {
    std::vector<TimePoint> afters;
    for (TimePoint p = first_; p <= last_; p = PointAdd(p, 1)) {
      afters.push_back(p);
    }
    NextFireCursor cursor;
    int hits = 0;
    for (TimePoint p : afters) {
      hits += CheckOne(plan, p, &cursor) == 0;
      if (::testing::Test::HasFailure()) return hits;
    }
    std::shuffle(afters.begin(), afters.end(), *rng);
    afters.resize(afters.size() / 4);
    for (TimePoint p : afters) {
      CheckOne(plan, p, &cursor);
      if (::testing::Test::HasFailure()) return hits;
    }
    return hits;
  }

  // The after-points within ten days of each year boundary of the span,
  // in order, through one cursor.
  void CheckYearBoundaries(const Plan& plan) {
    NextFireCursor cursor;
    for (int32_t year = 1993; year <= 1995; ++year) {
      const TimePoint jan1 =
          catalog_.time_system().DayPointFromCivil({year, 1, 1});
      for (TimePoint p = PointAdd(jan1, -10); p <= PointAdd(jan1, 10);
           p = PointAdd(p, 1)) {
        CheckOne(plan, p, &cursor);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }

  CalendarCatalog catalog_;
  TimePoint first_ = 1;
  TimePoint last_ = 1;
  TimePoint limit_ = 1;
};

TEST_F(NextFireCursorTest, RuleFiringFamiliesMatchCursorlessSearch) {
  std::mt19937_64 rng(kSeed);
  const int span_days = static_cast<int>(last_ - first_);
  for (const char* text : kFamilies) {
    SCOPED_TRACE(text);
    Result<Plan> plan = catalog_.CompileScriptText(text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const int hits = CheckSpan(*plan, &rng);
    ASSERT_FALSE(HasFailure()) << "seed " << kSeed;
    // The cursor misses only where the search leaves its year window.
    EXPECT_GT(hits, span_days * 9 / 10);
  }
}

// Random expressions cost anywhere from microseconds to tens of
// milliseconds per evaluation (a `<` chain over DAYS builds an order-2
// calendar of quadratic size).  Each is timed on its first search: cheap
// ones are checked at every after-point, dearer ones at the after-points
// around each year boundary, and the dearest only at that first search.
TEST_F(NextFireCursorTest, RandomExpressionsMatchCursorlessSearch) {
  std::mt19937_64 rng(kSeed);
  ExpressionGenerator gen(kSeed);
  const auto deadline = std::chrono::steady_clock::now() + kRandomBudget;
  int every_point = 0;
  int boundaries = 0;
  int valid = 0;
  for (int i = 0; i < kMaxRandom; ++i) {
    if (valid >= kMinRandom && std::chrono::steady_clock::now() > deadline) {
      break;
    }
    const std::string text = gen.Generate();
    SCOPED_TRACE(text);
    Result<Plan> plan = catalog_.CompileScriptText(text);
    if (!plan.ok()) continue;  // ill-typed: some random expressions are
    ++valid;
    const auto start = std::chrono::steady_clock::now();
    NextFireCursor cursor;
    CheckOne(*plan, first_, &cursor);
    const auto cost = std::chrono::steady_clock::now() - start;
    if (cost < kEveryPointCost) {
      CheckSpan(*plan, &rng);
      ++every_point;
    } else if (cost < kBoundaryCost) {
      CheckYearBoundaries(*plan);
      ++boundaries;
    }
    ASSERT_FALSE(HasFailure()) << "seed " << kSeed << " expression #" << i;
  }
  std::printf("random expressions: %d valid, %d at every point, %d at year "
              "boundaries\n",
              valid, every_point, boundaries);
  EXPECT_GE(every_point, kMinRandom / 2);
}

TEST_F(NextFireCursorTest, TodayReadingPlansAreNeverServedFromTheCursor) {
  // `today` read directly, and only inside an invoked (multi-statement)
  // derived calendar.
  ASSERT_TRUE(catalog_
                  .DefineDerived("THIS_WEEK",
                                 "{W = WEEKS:intersects:today; return (W);}")
                  .ok());
  std::mt19937_64 rng(kSeed);
  for (const char* text :
       {"WEEKS:intersects:today", "[2]/DAYS:during:THIS_WEEK"}) {
    SCOPED_TRACE(text);
    Result<Plan> plan = catalog_.CompileScriptText(text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    NextFireCursor cursor;
    std::vector<TimePoint> afters;
    for (TimePoint p = first_; p <= last_; p = PointAdd(p, 3)) {
      afters.push_back(p);
    }
    std::shuffle(afters.begin(), afters.end(), rng);
    for (TimePoint p : afters) {
      EXPECT_GT(CheckOne(*plan, p, &cursor), 0) << "after " << p;
      EXPECT_EQ(cursor.version, 0u) << "a today-reading plan filled the cursor";
      ASSERT_FALSE(HasFailure()) << "seed " << kSeed;
    }
  }
}

TEST_F(NextFireCursorTest, RedefiningAnInvokedCalendarInvalidatesTheCursor) {
  // A multi-statement derivation is invoked at run time, not inlined, so
  // its redefinition changes what the rule's plan evaluates to.
  auto define = [&](int day) {
    return catalog_.DefineDerived(
        "PAYDAYS", "{P = [" + std::to_string(day) +
                       "]/DAYS:during:MONTHS; return (P);}");
  };
  ASSERT_TRUE(define(15).ok());
  Result<Plan> plan = catalog_.CompileScriptText("PAYDAYS");
  ASSERT_TRUE(plan.ok()) << plan.status();
  NextFireCursor cursor;
  const TimePoint mid = catalog_.time_system().DayPointFromCivil({1993, 6, 10});
  for (TimePoint p = 1; p < mid; p = PointAdd(p, 1)) CheckOne(*plan, p, &cursor);
  // The cursor now holds 1993 at the current version: June 15 is next.
  int evaluations = -1;
  auto hit = catalog_.NextFirePointForPlan(*plan, mid, limit_,
                                           Granularity::kDays, &cursor,
                                           &evaluations);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(**hit, mid + 5);

  ASSERT_TRUE(catalog_.Drop("PAYDAYS").ok());
  ASSERT_TRUE(define(20).ok());
  EXPECT_GT(CheckOne(*plan, mid, &cursor), 0) << "stale cursor served";
  hit = catalog_.NextFirePointForPlan(*plan, mid, limit_, Granularity::kDays,
                                      &cursor, &evaluations);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(**hit, mid + 10);  // June 20 under the new definition
  for (TimePoint p = mid; p <= last_; p = PointAdd(p, 1)) {
    CheckOne(*plan, p, &cursor);
  }
}

TEST_F(NextFireCursorTest, CursorIsKeyedOnTheUnit) {
  // The same plan searched in DAYS then HOURS through one cursor: the
  // HOURS search must not reuse DAYS points.
  Result<Plan> plan = catalog_.CompileScriptText("[3]/DAYS:during:WEEKS");
  ASSERT_TRUE(plan.ok()) << plan.status();
  NextFireCursor cursor;
  for (TimePoint p = 1; p < 60; p = PointAdd(p, 1)) {
    CheckOne(*plan, p, &cursor, Granularity::kDays);
    EXPECT_GT(CheckOne(*plan, p * 24, &cursor, Granularity::kHours), 0);
    EXPECT_GT(CheckOne(*plan, p, &cursor, Granularity::kDays), 0);
  }
}

// Through the rule manager: a declared rule's cursor is seeded by the
// first-fire search, firings are answered from it, the instruments split
// cursor hits from evaluations, and every firing lands on its calendar.
TEST_F(NextFireCursorTest, FiringsAreServedFromTheSeededCursor) {
  Database db;
  auto manager = TemporalRuleManager::Create(&catalog_, &db);
  ASSERT_TRUE(manager.ok()) << manager.status();
  std::vector<TimePoint> fires;
  TemporalAction action;
  action.callback = [&fires](TimePoint day) {
    fires.push_back(day);
    return Status::OK();
  };
  auto id = (*manager)->DeclareRule("third_fridays", "THIRD_FRIDAYS",
                                    std::move(action), /*now_day=*/1);
  ASSERT_TRUE(id.ok()) << id.status();
  auto rule = (*manager)->GetRule(*id);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->next_fire_cursor.version, catalog_.version());

  obs::Counter* hits =
      obs::Metrics().counter("caldb.rules.next_fire.cursor_hits");
  obs::Counter* evals = obs::Metrics().counter("caldb.rules.next_fire.evals");
  obs::Histogram* next_fire_ns =
      obs::Metrics().histogram("caldb.rules.next_fire_ns");
  const int64_t hits_before = hits->value();
  const int64_t evals_before = evals->value();
  const int64_t lookups_before = next_fire_ns->count();

  VirtualClock clock(1);
  DbCron cron(manager->get(), &clock);
  ASSERT_TRUE(cron.AdvanceTo(365).ok());

  EvalOptions year;
  year.window_days = Interval{1, 365};
  auto want = catalog_.EvaluateCalendar("THIRD_FRIDAYS", year);
  ASSERT_TRUE(want.ok());
  std::vector<TimePoint> expected;
  for (const Interval& i : want->Leaves()) expected.push_back(i.lo);
  EXPECT_EQ(fires, expected);
  // Eleven of the twelve firings stay inside 1993; only the December one
  // must evaluate past it.
  EXPECT_GE(hits->value() - hits_before, 11);
  EXPECT_LE(evals->value() - evals_before, 2);
  if (obs::Enabled()) {
    EXPECT_EQ(next_fire_ns->count() - lookups_before, 12);
  }
}

}  // namespace
}  // namespace caldb
