#include "obs/trace.h"

#include <gtest/gtest.h>

#include "tests/obs/json_check.h"

namespace caldb::obs {
namespace {

using caldb::test::JsonValue;
using caldb::test::ParseJson;

TEST(Tracer, RecordsFinishedSpans) {
  Tracer tracer(16);
  {
    Tracer::Span span = tracer.StartSpan("work");
    EXPECT_TRUE(span.active());
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_GE(spans[0].duration_ns(), 0);
}

TEST(Tracer, NestingRecordsParent) {
  Tracer tracer(16);
  uint64_t outer_id = 0;
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    outer_id = outer.id();
    {
      Tracer::Span inner = tracer.StartSpan("inner");
      EXPECT_NE(inner.id(), outer_id);
    }
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Ring order is finish order: inner first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(Tracer, EndIsIdempotentAndEarly) {
  Tracer tracer(16);
  Tracer::Span span = tracer.StartSpan("early");
  span.End();
  span.End();
  EXPECT_FALSE(span.active());
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(Tracer, AttrsAppearInRecord) {
  Tracer tracer(16);
  {
    Tracer::Span span = tracer.StartSpan("attr");
    span.AddAttr("calendar", "paydays");
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "calendar");
  EXPECT_EQ(spans[0].attrs[0].second, "paydays");
}

TEST(Tracer, RingWrapsOverwritingOldest) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    Tracer::Span span = tracer.StartSpan("s" + std::to_string(i));
  }
  EXPECT_EQ(tracer.total_finished(), 10);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: the last four spans survive.
  EXPECT_EQ(spans[0].name, "s6");
  EXPECT_EQ(spans[3].name, "s9");
}

TEST(Tracer, DisabledSpansAreInactive) {
  Tracer tracer(16);
  tracer.set_enabled(false);
  {
    Tracer::Span span = tracer.StartSpan("ignored");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.set_enabled(true);
  { Tracer::Span span = tracer.StartSpan("seen"); }
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(Tracer, ClearEmptiesRing) {
  Tracer tracer(16);
  { Tracer::Span span = tracer.StartSpan("gone"); }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.total_finished(), 0);
}

TEST(Tracer, ToStringIndentsChildren) {
  Tracer tracer(16);
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    Tracer::Span inner = tracer.StartSpan("inner");
  }
  std::string rendered = tracer.ToString();
  size_t outer_pos = rendered.find("outer");
  size_t inner_pos = rendered.find("  inner");
  EXPECT_NE(outer_pos, std::string::npos);
  EXPECT_NE(inner_pos, std::string::npos);
  // Parent renders before (above) the indented child.
  EXPECT_LT(outer_pos, inner_pos);
}

TEST(Tracer, RingWrapsPastDefaultCapacity) {
  Tracer tracer;  // default 4096
  ASSERT_EQ(tracer.capacity(), Tracer::kDefaultCapacity);
  const int kSpans = static_cast<int>(Tracer::kDefaultCapacity) + 100;
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Span span = tracer.StartSpan("s" + std::to_string(i));
  }
  EXPECT_EQ(tracer.total_finished(), kSpans);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), Tracer::kDefaultCapacity);
  // Oldest surviving span is the 101st; newest is the last started.
  EXPECT_EQ(spans.front().name, "s100");
  EXPECT_EQ(spans.back().name, "s" + std::to_string(kSpans - 1));
}

TEST(Tracer, ExportChromeTraceIsValidTraceEventJson) {
  Tracer tracer(16);
  uint64_t parent_id = 0;
  {
    Tracer::Span outer = tracer.StartSpan("db.execute");
    parent_id = outer.id();
    Tracer::Span inner = tracer.StartSpan("cron.fire");
    inner.AddAttr("rule", "pay\"day");
  }
  std::optional<JsonValue> parsed = ParseJson(tracer.ExportChromeTrace());
  ASSERT_TRUE(parsed.has_value()) << tracer.ExportChromeTrace();
  const JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 2u);
  for (const JsonValue& event : events->items) {
    EXPECT_EQ(event.Get("ph")->str, "X");
    EXPECT_EQ(event.Get("cat")->str, "caldb");
    EXPECT_GE(event.Get("ts")->number, 0.0);
    EXPECT_GE(event.Get("dur")->number, 0.0);
    EXPECT_GE(event.Get("tid")->number, 1.0);
    ASSERT_NE(event.Get("args"), nullptr);
  }
  // Finish order: inner first; its args carry parent and the attr.
  const JsonValue& inner_event = events->items[0];
  EXPECT_EQ(inner_event.Get("name")->str, "cron.fire");
  EXPECT_DOUBLE_EQ(inner_event.Get("args")->Get("parent")->number,
                   static_cast<double>(parent_id));
  EXPECT_EQ(inner_event.Get("args")->Get("rule")->str, "pay\"day");
}

TEST(Tracer, ExportChromeTraceEmptyRingIsStillValid) {
  Tracer tracer(16);
  std::optional<JsonValue> parsed = ParseJson(tracer.ExportChromeTrace());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->Get("traceEvents"), nullptr);
  EXPECT_TRUE(parsed->Get("traceEvents")->items.empty());
}

}  // namespace
}  // namespace caldb::obs
