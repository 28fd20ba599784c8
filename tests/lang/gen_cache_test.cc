// The bounded calendar-value cache: LRU order across both key kinds,
// entry and byte budgets, covering-window lookup of base generations,
// exact-only lookup of derived values, and the eviction counter.

#include <gtest/gtest.h>

#include <vector>

#include "lang/evaluator.h"
#include "obs/obs.h"

namespace caldb {
namespace {

constexpr Granularity kD = Granularity::kDays;
constexpr Granularity kW = Granularity::kWeeks;

CalendarCache::Key Base(Granularity g, Granularity unit, Interval window) {
  return CalendarCache::Key::Base(g, unit, window);
}
CalendarCache::Key Derived(const char* name, uint64_t version,
                           Interval window) {
  return CalendarCache::Key::Derived(name, version, window);
}

Calendar DaysCalendar(int64_t n) {
  std::vector<Interval> v;
  for (int64_t i = 1; i <= n; ++i) v.push_back({i, i});
  return Calendar::Order1(Granularity::kDays, std::move(v));
}

bool HasBase(CalendarCache& cache, TimePoint lo, TimePoint hi) {
  auto hit = cache.FindBase(Base(kD, kD, Interval{lo, hi}));
  return hit.has_value() && !hit->covering;
}

bool HasDerived(CalendarCache& cache, const char* name, uint64_t version,
                Interval window) {
  return cache.FindDerived(Derived(name, version, window)).has_value();
}

TEST(CalendarCacheTest, FindExactAndMiss) {
  CalendarCache cache(8, 1u << 20);
  cache.Insert(Base(kD, kD, {1, 100}), DaysCalendar(100));
  auto hit = cache.FindBase(Base(kD, kD, {1, 100}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->covering);
  EXPECT_EQ(hit->value.TotalIntervals(), 100);
  EXPECT_FALSE(cache.FindBase(Base(kD, kD, {1, 101})).has_value());
  EXPECT_FALSE(cache.FindBase(Base(kD, kW, {1, 100})).has_value());
  EXPECT_FALSE(cache.FindBase(Base(kW, kD, {1, 100})).has_value());
}

TEST(CalendarCacheTest, FindCoveringMatchesUnitAndWindow) {
  CalendarCache cache(8, 1u << 20);
  cache.Insert(Base(kD, kD, {1, 100}), DaysCalendar(100));
  // Narrower request in the same unit: covered.
  auto covered = cache.FindBase(Base(kD, kD, {10, 50}));
  ASSERT_TRUE(covered.has_value());
  EXPECT_TRUE(covered->covering);
  EXPECT_EQ(covered->value.TotalIntervals(), 100);  // the caller slices
  // Wider request: not covered.
  EXPECT_FALSE(cache.FindBase(Base(kD, kD, {10, 200})).has_value());
  // Different unit: never covered.
  EXPECT_FALSE(cache.FindBase(Base(kD, kW, {10, 50})).has_value());
}

TEST(CalendarCacheTest, DerivedValuesMatchExactlyOnNameVersionAndWindow) {
  CalendarCache cache(8, 1u << 20);
  cache.Insert(Derived("Tuesdays", 3, {1, 100}), DaysCalendar(14));
  auto hit = cache.FindDerived(Derived("Tuesdays", 3, {1, 100}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->TotalIntervals(), 14);
  EXPECT_FALSE(HasDerived(cache, "Tuesdays", 4, {1, 100}));
  EXPECT_FALSE(HasDerived(cache, "Tuesdays", 3, {10, 50}));
  EXPECT_FALSE(HasDerived(cache, "Fridays", 3, {1, 100}));
  // A derived value never answers a base lookup, covering or not.
  EXPECT_FALSE(cache.FindBase(Base(kD, kD, {10, 50})).has_value());
}

TEST(CalendarCacheTest, EntryBudgetEvictsLeastRecentlyUsed) {
  CalendarCache cache(2, 1u << 20);
  obs::Counter* evictions =
      obs::Metrics().counter("caldb.eval.gen_cache.evictions");
  const int64_t before = evictions->value();

  cache.Insert(Base(kD, kD, {1, 10}), DaysCalendar(10));
  cache.Insert(Derived("D", 1, {1, 20}), DaysCalendar(20));
  // Touch the older entry so the newer one becomes the LRU victim.
  ASSERT_TRUE(HasBase(cache, 1, 10));
  cache.Insert(Base(kD, kD, {1, 30}), DaysCalendar(30));

  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(evictions->value(), before + 1);
  EXPECT_TRUE(HasBase(cache, 1, 10));  // survived (touched)
  EXPECT_FALSE(HasDerived(cache, "D", 1, {1, 20}));  // evicted
  EXPECT_TRUE(HasBase(cache, 1, 30));
}

TEST(CalendarCacheTest, ByteBudgetBoundsPayload) {
  // Room for roughly one 1000-interval calendar, not two.
  const size_t one_entry = 1000 * sizeof(Interval) + 512;
  CalendarCache cache(64, one_entry);
  cache.Insert(Base(kD, kD, {1, 1000}), DaysCalendar(1000));
  EXPECT_EQ(cache.entries(), 1u);
  cache.Insert(Base(kD, kD, {1001, 2000}), DaysCalendar(1000));
  // The older entry was evicted to make room; bytes stay under budget.
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_LE(cache.bytes(), one_entry);
  EXPECT_FALSE(HasBase(cache, 1, 1000));
  EXPECT_TRUE(HasBase(cache, 1001, 2000));
}

TEST(CalendarCacheTest, InsertReplacesExistingKey) {
  CalendarCache cache(4, 1u << 20);
  cache.Insert(Base(kD, kD, {1, 10}), DaysCalendar(10));
  cache.Insert(Base(kD, kD, {1, 10}), DaysCalendar(5));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.FindBase(Base(kD, kD, {1, 10}))->value.TotalIntervals(), 5);
}

TEST(CalendarCacheTest, HitsShareTheRep) {
  CalendarCache cache(4, 1u << 20);
  Calendar original = DaysCalendar(100);
  const Interval* buffer = original.intervals().data();
  cache.Insert(Base(kD, kD, {1, 100}), std::move(original));
  auto hit = cache.FindBase(Base(kD, kD, {1, 100}));
  ASSERT_TRUE(hit.has_value());
  // The handle copied out still wraps the same leaf buffer: a hit is a
  // handle copy, not an interval copy.
  EXPECT_EQ(hit->value.intervals().data(), buffer);
}

}  // namespace
}  // namespace caldb
