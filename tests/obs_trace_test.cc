// Tests for the obs:: tracing layer: RAII span capture, per-thread ring
// buffers with drop accounting, and the two exporters. The exporter tests
// are golden-validity checks: every Trace Event object and NDJSON line must
// round-trip through the repo's own strict flat-JSON parser
// (serve::ParseFlatObject), so a malformed trace fails here before it ever
// reaches chrome://tracing or trace_summary.py.

#include "obs/trace.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/json.h"

namespace pa::obs {
namespace {

// Spans from other tests (and instrumented library code) share the global
// ring buffers, so every test starts from a drained state and filters by
// its own span names.
std::vector<TraceEvent> DrainNamed(const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : DrainTraceEvents()) {
    if (e.name != nullptr && name == e.name) out.push_back(e);
  }
  return out;
}

// Splits the "traceEvents" array of a Chrome trace into the raw text of its
// element objects. Event objects are flat, so scanning for braces outside
// strings is exact.
std::vector<std::string> SplitTraceEventObjects(const std::string& json) {
  std::vector<std::string> objects;
  const size_t open = json.find('[');
  const size_t close = json.rfind(']');
  EXPECT_NE(open, std::string::npos);
  EXPECT_NE(close, std::string::npos);
  bool in_string = false;
  bool escaped = false;
  size_t start = std::string::npos;
  for (size_t i = open + 1; i < close; ++i) {
    const char ch = json[i];
    if (escaped) {
      escaped = false;
    } else if (ch == '\\') {
      escaped = true;
    } else if (ch == '"') {
      in_string = !in_string;
    } else if (!in_string && ch == '{') {
      start = i;
    } else if (!in_string && ch == '}') {
      EXPECT_NE(start, std::string::npos);
      objects.push_back(json.substr(start, i - start + 1));
      start = std::string::npos;
    }
  }
  return objects;
}

TEST(TraceSpan, DisabledTracingRecordsNothing) {
  SetTracingEnabled(false);
  DrainTraceEvents();
  { PA_TRACE_SPAN("test.trace.off"); }
  EXPECT_TRUE(DrainNamed("test.trace.off").empty());
}

TEST(TraceSpan, NestedSpansAreContainedInTheirParent) {
  DrainTraceEvents();
  SetTracingEnabled(true);
  {
    PA_TRACE_SPAN("test.trace.outer");
    { PA_TRACE_SPAN("test.trace.inner"); }
    { PA_TRACE_SPAN("test.trace.inner"); }
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = DrainTraceEvents();
  std::vector<TraceEvent> outer;
  std::vector<TraceEvent> inner;
  for (const TraceEvent& e : events) {
    if (std::string("test.trace.outer") == e.name) outer.push_back(e);
    if (std::string("test.trace.inner") == e.name) inner.push_back(e);
  }
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 2u);
  const uint64_t outer_end = outer[0].start_ns + outer[0].dur_ns;
  for (const TraceEvent& e : inner) {
    EXPECT_EQ(e.tid, outer[0].tid);  // Same scope, same thread.
    EXPECT_GE(e.start_ns, outer[0].start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, outer_end);
  }
  // DrainTraceEvents sorts by start with longer spans first on ties, so the
  // parent always precedes its children.
  EXPECT_LE(outer[0].start_ns, inner[0].start_ns);
}

TEST(TraceSpan, SpansGetUniqueNonzeroIdsWhenTracingIsOn) {
  DrainTraceEvents();
  SetTracingEnabled(true);
  uint64_t id1 = 0;
  uint64_t id2 = 0;
  {
    TraceSpan a("test.trace.ids");
    id1 = a.id();
    TraceSpan b("test.trace.ids");
    id2 = b.id();
  }
  SetTracingEnabled(false);
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, 0u);
  EXPECT_NE(id1, id2);
  // The recorded events carry the same ids, so an exemplar referencing
  // span.id() resolves against the dumped trace.
  const std::vector<TraceEvent> events = DrainNamed("test.trace.ids");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE((events[0].id == id1 && events[1].id == id2) ||
              (events[0].id == id2 && events[1].id == id1));

  // Tracing off: id() is 0 — the "no exemplar" sentinel.
  TraceSpan off("test.trace.ids.off");
  EXPECT_EQ(off.id(), 0u);
}

TEST(TraceSpan, SpansFromSeparateThreadsGetDistinctTids) {
  DrainTraceEvents();
  SetTracingEnabled(true);
  { PA_TRACE_SPAN("test.trace.tids"); }
  std::thread other([] { PA_TRACE_SPAN("test.trace.tids"); });
  other.join();
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = DrainNamed("test.trace.tids");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceSpan, RingOverflowKeepsNewestAndCountsDropped) {
  DrainTraceEvents();
  const uint64_t dropped_before = TraceEventsDropped();
  constexpr int kSpans = 70000;  // Past the 64Ki per-thread ring capacity.
  SetTracingEnabled(true);
  for (int i = 0; i < kSpans; ++i) {
    PA_TRACE_SPAN("test.trace.ring");
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = DrainNamed("test.trace.ring");
  EXPECT_EQ(events.size(), size_t{1} << 16);
  EXPECT_EQ(TraceEventsDropped() - dropped_before,
            static_cast<uint64_t>(kSpans) - (uint64_t{1} << 16));
  // Ring keeps the most recent spans: the survivors must be a contiguous
  // suffix, i.e. monotonically increasing start times after the sort.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
}

TEST(TraceContext, SpansLinkUnderTheActiveContextWithoutGlobalTracing) {
  SetTracingEnabled(false);
  // A request trace alone (no ring tracing) still assigns ids and links
  // parents; the events go to the reservoir, not the ring — so the ring
  // stays empty but the span ids are real.
  const TraceContext ctx{0x1234, 77};
  uint64_t outer_id = 0;
  uint64_t inner_parent = 0;
  uint64_t inner_id = 0;
  {
    const TraceContextScope scope(ctx);
    TraceSpan outer("test.ctx.outer");
    outer_id = outer.id();
    {
      TraceSpan inner("test.ctx.inner");
      inner_id = inner.id();
      inner_parent = CurrentTraceContext().parent_span;
    }
    // Inner restored the parent chain on close.
    EXPECT_EQ(CurrentTraceContext().parent_span, outer_id);
  }
  EXPECT_NE(outer_id, 0u);
  EXPECT_NE(inner_id, 0u);
  EXPECT_EQ(inner_parent, inner_id);  // Inner installed itself for children.
  // Scope exit restored the inactive ambient context.
  EXPECT_FALSE(CurrentTraceContext().active());
}

TEST(TraceContext, ScopeRestoresThePreviousContext) {
  const TraceContext a{11, 1};
  const TraceContext b{22, 2};
  const TraceContextScope outer(a);
  {
    const TraceContextScope inner(b);
    EXPECT_EQ(CurrentTraceContext().trace_id, 22u);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, 11u);
  EXPECT_EQ(CurrentTraceContext().parent_span, 1u);
}

TEST(TraceContext, InactiveScopeIsolatesFromAmbientTrace) {
  const TraceContextScope outer(TraceContext{5, 1});
  {
    const TraceContextScope isolated(TraceContext{});
    EXPECT_FALSE(CurrentTraceContext().active());
  }
  EXPECT_TRUE(CurrentTraceContext().active());
}

TEST(TraceContext, RecordedEventsCarryTraceAndParentIds) {
  DrainTraceEvents();
  SetTracingEnabled(true);
  {
    const TraceContextScope scope(TraceContext{0xabcd, 900});
    PA_TRACE_SPAN("test.ctx.recorded");
  }
  SetTracingEnabled(false);
  const std::vector<TraceEvent> events = DrainNamed("test.ctx.recorded");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0xabcdu);
  EXPECT_EQ(events[0].parent_id, 900u);
}

TEST(TraceContext, RecordStageSpanSynthesizesALinkedSpan) {
  DrainTraceEvents();
  SetTracingEnabled(true);
  const TraceContext ctx{0x77, 3};
  const uint64_t id = RecordStageSpan("test.ctx.stage", 1000, 4500, ctx);
  SetTracingEnabled(false);
  EXPECT_NE(id, 0u);
  const std::vector<TraceEvent> events = DrainNamed("test.ctx.stage");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, id);
  EXPECT_EQ(events[0].start_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 3500u);
  EXPECT_EQ(events[0].trace_id, 0x77u);
  EXPECT_EQ(events[0].parent_id, 3u);

  // Both switches off: nothing recorded, id 0 (the no-exemplar sentinel).
  DrainTraceEvents();
  EXPECT_EQ(RecordStageSpan("test.ctx.stage", 1, 2, TraceContext{}), 0u);
  EXPECT_TRUE(DrainNamed("test.ctx.stage").empty());
}

TEST(TraceContext, TraceIdHexIsLowercaseHexWithoutPrefix) {
  EXPECT_EQ(TraceIdHex(0x1a2b3c), "1a2b3c");
  EXPECT_EQ(TraceIdHex(1), "1");
}

TEST(TraceExport, NdjsonEmitsTraceAndParentOnlyForLinkedSpans) {
  std::vector<TraceEvent> events;
  events.push_back({"linked", 1000, 500, 0, 7, 0xbeef, 6});
  events.push_back({"unlinked", 2000, 500, 0, 8, 0, 0});
  const std::string ndjson = TraceNdjson(events);
  EXPECT_NE(ndjson.find("\"trace\":\"beef\",\"parent\":6"), std::string::npos);
  std::istringstream lines(ndjson);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.find("\"trace\""), std::string::npos);
  std::map<std::string, serve::JsonValue> fields;
  std::string error;
  EXPECT_TRUE(serve::ParseFlatObject(line, &fields, &error)) << error;
}

TEST(TraceExport, ChromeTraceJsonEventsRoundTripThroughStrictParser) {
  std::vector<TraceEvent> events;
  events.push_back({"alpha", 1500, 2750, 0});
  events.push_back({"needs \"escaping\"\\here", 4250, 10, 3});
  const std::string json = ChromeTraceJson(events);

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  const std::vector<std::string> objects = SplitTraceEventObjects(json);
  ASSERT_EQ(objects.size(), 2u);

  std::map<std::string, serve::JsonValue> fields;
  std::string error;
  ASSERT_TRUE(serve::ParseFlatObject(objects[0], &fields, &error)) << error;
  EXPECT_EQ(fields.at("name").string, "alpha");
  EXPECT_EQ(fields.at("ph").string, "X");
  EXPECT_EQ(fields.at("cat").string, "pa");
  // Timestamps are microseconds with nanosecond decimals: 1500ns -> 1.5us.
  EXPECT_DOUBLE_EQ(fields.at("ts").number, 1.5);
  EXPECT_DOUBLE_EQ(fields.at("dur").number, 2.75);
  EXPECT_EQ(fields.at("pid").number, 1.0);
  EXPECT_EQ(fields.at("tid").number, 0.0);

  ASSERT_TRUE(serve::ParseFlatObject(objects[1], &fields, &error)) << error;
  EXPECT_EQ(fields.at("name").string, "needs \"escaping\"\\here");
  EXPECT_DOUBLE_EQ(fields.at("ts").number, 4.25);
  EXPECT_EQ(fields.at("tid").number, 3.0);
}

TEST(TraceExport, NdjsonLinesRoundTripThroughStrictParser) {
  std::vector<TraceEvent> events;
  events.push_back({"one", 1000, 500, 0, 11});
  events.push_back({"two", 2000, 42, 1, 12});
  const std::string ndjson = TraceNdjson(events);

  std::istringstream lines(ndjson);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    std::map<std::string, serve::JsonValue> fields;
    std::string error;
    ASSERT_TRUE(serve::ParseFlatObject(line, &fields, &error)) << error;
    ASSERT_TRUE(fields.at("name").is_string());
    ASSERT_TRUE(fields.at("ts_us").is_number());
    ASSERT_TRUE(fields.at("dur_us").is_number());
    ASSERT_TRUE(fields.at("tid").is_number());
    // Span id rides along so exemplars can be looked up in the dump.
    ASSERT_TRUE(fields.at("id").is_number());
    EXPECT_GT(fields.at("id").number, 10.0);
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
  EXPECT_NE(ndjson.find("\"name\":\"one\",\"ts_us\":1.000,\"dur_us\":0.500"),
            std::string::npos);
}

TEST(TraceExport, WriteTraceFilePicksFormatBySuffix) {
  const std::string dir = ::testing::TempDir();

  DrainTraceEvents();
  SetTracingEnabled(true);
  { PA_TRACE_SPAN("test.trace.file"); }
  SetTracingEnabled(false);
  const std::string chrome_path = dir + "/obs_trace_test.json";
  ASSERT_TRUE(WriteTraceFile(chrome_path));
  {
    std::FILE* f = std::fopen(chrome_path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    const std::string body(buf, n);
    EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(body.find("test.trace.file"), std::string::npos);
  }

  SetTracingEnabled(true);
  { PA_TRACE_SPAN("test.trace.file"); }
  SetTracingEnabled(false);
  const std::string ndjson_path = dir + "/obs_trace_test.ndjson";
  ASSERT_TRUE(WriteTraceFile(ndjson_path));
  {
    std::FILE* f = std::fopen(ndjson_path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    const std::string body(buf, n);
    EXPECT_EQ(body.rfind("{\"name\":", 0), 0u);  // Flat line, no wrapper.
    EXPECT_NE(body.find("\"ts_us\":"), std::string::npos);
  }

  std::remove(chrome_path.c_str());
  std::remove(ndjson_path.c_str());

  EXPECT_FALSE(WriteTraceFile("/nonexistent-dir-for-obs-test/trace.json"));
}

}  // namespace
}  // namespace pa::obs
