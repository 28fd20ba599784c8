// Regression tests for cached calendar content served where it no longer
// holds.
//
// The CalendarCatalog's one calendar-value cache (lang/evaluator.h,
// CalendarCache) keys derived values by the catalog's monotonic
// definition version — CalendarCatalog::version() — so content computed
// against an old definition is never served after a DefineDerived /
// DefineValues / Drop, even when the redefinition races an in-flight
// evaluation in another session.  Values that read `today` are never
// cached, since `today` is not part of the key.

#include "caldb.h"

#include <atomic>
#include <string>
#include <thread>

#include "gtest/gtest.h"

namespace caldb {
namespace {

TEST(StaleCacheTest, RedefinitionIsVisibleAcrossSessions) {
  auto engine = Engine::Create().value();
  ASSERT_TRUE(engine->catalog()
                  .DefineValues("E", Calendar::Order1(Granularity::kDays,
                                                      {{10, 10}}))
                  .ok());
  ASSERT_TRUE(engine->catalog().DefineDerived("D", "E").ok());

  auto writer = engine->CreateSession();
  auto reader = engine->CreateSession();

  // Warm both cache layers from the reader's side.
  auto before = reader->EvalCalendar("D");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->ToString(), "{(10,10)}");
  auto again = reader->EvalCalendar("D");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), "{(10,10)}");

  // Another session redefines the values calendar D is built from.
  ASSERT_TRUE(engine->catalog().Drop("E").ok());
  ASSERT_TRUE(engine->catalog()
                  .DefineValues("E", Calendar::Order1(Granularity::kDays,
                                                      {{20, 20}}))
                  .ok());

  // The reader must see the new content, not its cached evaluation.
  auto after = reader->EvalCalendar("D");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->ToString(), "{(20,20)}");
  (void)writer;
}

// The racing variant: an evaluation in flight during the redefinition
// must not leave its (stale) result where later callers hit it.  The
// version captured before Resolve files such an insert under the old
// version, unreachable by post-redefinition lookups.
TEST(StaleCacheTest, RacingRedefinitionNeverServesStaleContent) {
  auto engine = Engine::Create().value();
  ASSERT_TRUE(engine->catalog()
                  .DefineValues("E", Calendar::Order1(Granularity::kDays,
                                                      {{1, 1}}))
                  .ok());
  ASSERT_TRUE(engine->catalog().DefineDerived("D", "E").ok());

  std::atomic<bool> done{false};
  std::thread evaluator([&] {
    auto session = engine->CreateSession();
    while (!done.load(std::memory_order_acquire)) {
      // Mid-redefinition the reference can dangle (E briefly dropped);
      // errors are fine — served *stale* content is the bug.
      auto value = session->EvalCalendar("D");
      if (value.ok()) {
        EXPECT_EQ(value->TotalIntervals(), 1u) << value->ToString();
      }
    }
  });

  constexpr int kRounds = 200;
  for (int day = 2; day <= kRounds; ++day) {
    ASSERT_TRUE(engine->catalog().Drop("E").ok());
    ASSERT_TRUE(engine->catalog()
                    .DefineValues("E", Calendar::Order1(Granularity::kDays,
                                                        {{day, day}}))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  evaluator.join();

  // A fresh evaluation after the dust settles must reflect the final
  // definition — the one observable that the pre-fix race broke.
  auto session = engine->CreateSession();
  auto final_value = session->EvalCalendar("D");
  ASSERT_TRUE(final_value.ok()) << final_value.status().ToString();
  EXPECT_EQ(final_value->ToString(),
            "{(" + std::to_string(kRounds) + "," + std::to_string(kRounds) +
                ")}");
}

// Base generations do not depend on the catalog, so a definition leaves
// them warm: the shared cache keys only derived values by version.  A
// session's second run of a script generates nothing, and neither does a
// run after an unrelated define.
TEST(StaleCacheTest, WarmBaseGenerationSurvivesUnrelatedDefine) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  const std::string script = "[n]/DAYS:during:MONTHS";

  auto cold = session->EvalScript(script);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(session->last_eval_stats().generate_calls, 0);

  auto warm = session->EvalScript(script);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(session->last_eval_stats().generate_calls, 0);
  EXPECT_GT(session->last_eval_stats().cache_hits, 0);

  ASSERT_TRUE(session->DefineCalendar("bump", "DAYS:during:days{(1,5)}").ok());
  auto after_define = session->EvalScript(script);
  ASSERT_TRUE(after_define.ok());
  EXPECT_EQ(session->last_eval_stats().generate_calls, 0);
  EXPECT_EQ(after_define->calendar, cold->calendar);
}

// A derived calendar that reads `today` depends on more than its name,
// window and catalog version, so its value must not be served from the
// cache to an evaluation with another `today`.
constexpr char kThisWeek[] = "{W = WEEKS:intersects:today; return (W);}";

TEST(StaleCacheTest, TodayReadingCalendarFollowsSessionToday) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(session->DefineCalendar("THIS_WEEK", kThisWeek).ok());

  session->SetToday(10);
  auto early = session->EvalCalendar("THIS_WEEK");
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  session->SetToday(200);
  auto late = session->EvalCalendar("THIS_WEEK");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(early->ToString(), "{(2,2)}");
  EXPECT_EQ(late->ToString(), "{(30,30)}");
}

// The same through cal_contains: with a lifespan, every probe evaluates
// the calendar over the same window, whatever the probed day.
TEST(StaleCacheTest, CalContainsFollowsTheProbedDay) {
  auto engine = Engine::Create().value();
  auto session = engine->CreateSession();
  ASSERT_TRUE(
      session->DefineCalendar("THIS_WEEK", kThisWeek, Interval{1, 365}).ok());
  ASSERT_TRUE(session->Execute("create table d (day int)").ok());
  ASSERT_TRUE(session->Execute("append d (day = 10)").ok());
  ASSERT_TRUE(session->Execute("append d (day = 200)").ok());
  // Days 10 and 200 fall in different weeks; each is in its own week.
  auto rows = session->Execute(
      "retrieve (x.day) from x in d where cal_contains('THIS_WEEK', x.day)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);
}

}  // namespace
}  // namespace caldb
