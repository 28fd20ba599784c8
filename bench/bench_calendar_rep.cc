// PERF-5: what the shared CalendarRep buys.  BM_HandleAssign vs
// BM_DeepClone at the same arg are the after/before pair for calendar
// assignment (the old Calendar deep-copied its interval vectors on every
// copy; the COW handle bumps a refcount) — the rewrite claims >= 10x at
// 100k leaf intervals.  BM_GenCacheExactHit and BM_WarmEvaluatorRun pin
// the cache-hit path: a hit hands out a shared handle, so its cost must
// stay flat as the cached calendar grows.  BM_Flattened covers the
// zero-copy sorted flatten.  Counter deltas (caldb.cal.*) ride along in
// the BENCH JSON lines.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/calendar_catalog.h"
#include "core/calendar.h"
#include "lang/analyzer.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "lang/planner.h"

namespace caldb {
namespace {

// An order-1 calendar of n day-point singletons.
Calendar DaysCalendar(int64_t n) {
  std::vector<Interval> v;
  v.reserve(n);
  for (int64_t i = 1; i <= n; ++i) v.push_back({i, i});
  return Calendar::Order1(Granularity::kDays, std::move(v));
}

// An order-2 calendar grouping those points into 100-wide children.
Calendar GroupedCalendar(int64_t n) {
  std::vector<Calendar> children;
  for (int64_t lo = 1; lo <= n; lo += 100) {
    std::vector<Interval> v;
    for (int64_t i = lo; i < lo + 100 && i <= n; ++i) v.push_back({i, i});
    children.push_back(Calendar::Order1(Granularity::kDays, std::move(v)));
  }
  return Calendar::Nested(Granularity::kDays, std::move(children));
}

// After: assignment is a handle copy (refcount bump), O(1) in n.
void BM_HandleAssign(benchmark::State& state) {
  Calendar src = DaysCalendar(state.range(0));
  for (auto _ : state) {
    Calendar copy = src;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HandleAssign)->Arg(10000)->Arg(100000)->Arg(1000000);

// Before: the seed's Calendar copied its interval vector on every
// assignment.  Rebuilding from the leaves reproduces that cost.
void BM_DeepClone(benchmark::State& state) {
  Calendar src = DaysCalendar(state.range(0));
  for (auto _ : state) {
    Calendar copy = Calendar::Order1(
        src.granularity(),
        std::vector<Interval>(src.intervals().begin(), src.intervals().end()));
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeepClone)->Arg(10000)->Arg(100000)->Arg(1000000);

// Flattening a nested calendar whose leaf buffer is already sorted is a
// zero-copy view — flat in n.
void BM_Flattened(benchmark::State& state) {
  Calendar src = GroupedCalendar(state.range(0));
  for (auto _ : state) {
    Calendar flat = src.Flattened();
    benchmark::DoNotOptimize(flat);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Flattened)->Arg(10000)->Arg(100000)->Arg(1000000);

// An exact-key cache hit copies out a shared handle: O(1) regardless of
// the cached calendar's interval count.
void BM_GenCacheExactHit(benchmark::State& state) {
  const int64_t n = state.range(0);
  CalendarCache cache(8, static_cast<size_t>(-1));
  const auto key = CalendarCache::Key::Base(Granularity::kDays,
                                            Granularity::kDays, {1, n});
  cache.Insert(key, DaysCalendar(n));
  for (auto _ : state) {
    // The handle the evaluator hands to the register.
    auto hit = cache.FindBase(key);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenCacheExactHit)->Arg(10000)->Arg(100000)->Arg(1000000);

// End to end: a warm evaluator re-running a pure GENERATE plan serves the
// calendar from the cache as a shared handle, so per-run cost stays flat
// as the window (and thus the generated calendar) grows.
void BM_WarmEvaluatorRun(benchmark::State& state) {
  CalendarCatalog catalog(TimeSystem{CivilDate{1993, 1, 1}});
  Script script = ParseScript("DAYS").value();
  Analyzer analyzer(&catalog);
  if (!analyzer.AnalyzeScript(&script).ok()) {
    state.SkipWithError("analyze failed");
    return;
  }
  Plan plan = CompileScript(script).value();
  EvalOptions opts;
  opts.window_days = Interval{1, state.range(0)};
  CalendarCache cache(CalendarCache::kMaxEntries, static_cast<size_t>(-1));
  Evaluator evaluator(&catalog.time_system(), &catalog, &cache);
  // Warm the cache once outside the timed loop.
  if (!evaluator.Run(plan, opts).ok()) {
    state.SkipWithError("warmup run failed");
    return;
  }
  for (auto _ : state) {
    auto value = evaluator.Run(plan, opts);
    if (!value.ok()) state.SkipWithError(value.status().ToString().c_str());
    benchmark::DoNotOptimize(value);
  }
  state.counters["window_days"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_WarmEvaluatorRun)->Arg(4096)->Arg(65536)->Arg(1048576);

}  // namespace
}  // namespace caldb
