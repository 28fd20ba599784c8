// The catalog's calendar-value cache stays within its fixed budget
// whatever windows clients choose: every distinct window a session
// evaluates a calendar over, and every distinct day a cal_contains probe
// evaluates around, adds entries.

#include "caldb.h"

#include <string>

#include "gtest/gtest.h"

namespace caldb {
namespace {

void ExpectWithinBudget(const CalendarCache& cache) {
  EXPECT_LE(cache.entries(), CalendarCache::kMaxEntries);
  EXPECT_LE(cache.bytes(), CalendarCache::kMaxBytes);
}

TEST(CalendarCacheBoundTest, DistinctWindowsAndProbedDaysStayWithinBudget) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(
      session->DefineCalendar("TUESDAYS", "[2]/DAYS:during:WEEKS").ok());
  const CalendarCache& cache = engine->catalog().cache();
  obs::Counter* evictions =
      obs::Metrics().counter("caldb.eval.gen_cache.evictions");
  const int64_t evictions_before = evictions->value();

  // 100k distinct one-week windows: each is a derived-value miss plus
  // base generations.
  constexpr TimePoint kWindows = 100000;
  for (TimePoint lo = 1; lo <= kWindows; ++lo) {
    session->SetWindow(Interval{lo, lo + 6});
    auto value = session->EvalCalendar("TUESDAYS");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    // The window's Tuesday, plus one from a week straddling an edge.
    ASSERT_GE(value->TotalIntervals(), 1) << value->ToString();
    ASSERT_LE(value->TotalIntervals(), 2) << value->ToString();
    if (lo % 10000 == 0) ExpectWithinBudget(cache);
  }
  ExpectWithinBudget(cache);
  EXPECT_EQ(cache.entries(), CalendarCache::kMaxEntries);
  EXPECT_GT(evictions->value(), evictions_before);

  // One retrieve probing 10k distinct days: each evaluates the calendar
  // over its own window around the day.
  constexpr int kDays = 10000;
  ASSERT_TRUE(session->Execute("create table d (day int)").ok());
  auto append = session->Prepare("append d (day = $1)");
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  for (int day = 1; day <= kDays; ++day) {
    ASSERT_TRUE(append->Execute({Value::Int(day)}).ok());
  }
  auto rows = session->Execute(
      "retrieve (x.day) from x in d where cal_contains('TUESDAYS', x.day)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // One Tuesday a week.
  EXPECT_NEAR(static_cast<double>(rows->rows.size()), kDays / 7.0, 1.0);
  ExpectWithinBudget(cache);
}

}  // namespace
}  // namespace caldb
