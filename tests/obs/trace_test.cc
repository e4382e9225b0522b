// spider::obs tracing: span capture semantics, Chrome trace-event JSON
// shape, and the end-to-end golden — a traced DebugSession run writes a
// file that parses as trace-event JSON with the schema Perfetto and
// about:tracing expect.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "debugger/debug_session.h"
#include "incremental/source_delta.h"
#include "mapping/parser.h"
#include "obs/metrics.h"
#include "testing/fixtures.h"
#include "testing/json_check.h"

namespace spider {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One trace event must carry name/ph/pid/tid (+ts for events, +dur for
/// complete spans, +s for instants).
void CheckEventSchema(const testing::JsonValue& event) {
  ASSERT_EQ(event.kind, testing::JsonValue::Kind::kObject);
  const testing::JsonValue* name = event.Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->kind, testing::JsonValue::Kind::kString);
  const testing::JsonValue* ph = event.Find("ph");
  ASSERT_NE(ph, nullptr);
  ASSERT_EQ(ph->kind, testing::JsonValue::Kind::kString);
  EXPECT_NE(event.Find("pid"), nullptr);
  EXPECT_NE(event.Find("tid"), nullptr);
  if (ph->string_value == "M") return;  // Metadata has no timestamp.
  const testing::JsonValue* ts = event.Find("ts");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->kind, testing::JsonValue::Kind::kNumber);
  if (ph->string_value == "X") {
    const testing::JsonValue* dur = event.Find("dur");
    ASSERT_NE(dur, nullptr);
    EXPECT_EQ(dur->kind, testing::JsonValue::Kind::kNumber);
  }
  if (ph->string_value == "i") {
    const testing::JsonValue* scope = event.Find("s");
    ASSERT_NE(scope, nullptr);
    EXPECT_EQ(scope->string_value, "t");
  }
}

/// Checks `json` parses and has the Chrome trace-event shape: an object
/// with displayTimeUnit and a traceEvents array of schema-valid entries.
/// Returns the parsed document (nullptr on parse failure) for
/// test-specific assertions.
std::unique_ptr<testing::JsonValue> CheckTraceSchema(const std::string& json) {
  testing::JsonReader reader(json);
  std::unique_ptr<testing::JsonValue> doc = reader.Parse();
  EXPECT_NE(doc, nullptr) << reader.error();
  if (doc == nullptr) return nullptr;
  EXPECT_EQ(doc->kind, testing::JsonValue::Kind::kObject);

  const testing::JsonValue* unit = doc->Find("displayTimeUnit");
  EXPECT_NE(unit, nullptr) << "missing displayTimeUnit";
  if (unit != nullptr) {
    EXPECT_EQ(unit->string_value, "ms");
  }

  const testing::JsonValue* events = doc->Find("traceEvents");
  EXPECT_NE(events, nullptr) << "missing traceEvents";
  if (events == nullptr) return doc;
  EXPECT_EQ(events->kind, testing::JsonValue::Kind::kArray);
  for (const auto& event : events->items) {
    CheckEventSchema(*event);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return doc;
}

/// True when some traceEvents entry has the given name.
bool HasEventNamed(const testing::JsonValue& doc, const std::string& name) {
  const testing::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr) return false;
  for (const auto& event : events->items) {
    const testing::JsonValue* n = event->Find("name");
    if (n != nullptr && n->string_value == name) return true;
  }
  return false;
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Stop();
  size_t before = tracer.NumEventsForTest();
  {
    obs::TraceSpan span("test", "ignored");
    span.AddArg("n", 1);
  }
  tracer.RecordInstant("test", "also_ignored");
  EXPECT_EQ(tracer.NumEventsForTest(), before);
}

TEST(TraceTest, SpansInstantsAndThreadNamesSerialize) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();  // Clears previous events.
  tracer.SetCurrentThreadName("trace-test-main");
  {
    obs::TraceSpan span("test", "outer \"quoted\"");
    span.AddArg("items", 7);
    obs::TraceSpan inner("test", "inner");
  }
  tracer.RecordInstant("test", "tick", {{"count", 3}});
  tracer.Stop();
  EXPECT_EQ(tracer.NumEventsForTest(), 3u);

  std::string json = tracer.ToJson();
  std::unique_ptr<testing::JsonValue> doc = CheckTraceSchema(json);
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(HasEventNamed(*doc, "outer \"quoted\""));
  EXPECT_TRUE(HasEventNamed(*doc, "inner"));
  EXPECT_TRUE(HasEventNamed(*doc, "tick"));
  EXPECT_TRUE(HasEventNamed(*doc, "thread_name"));

  // The span's arg survives with its value.
  const testing::JsonValue* events = doc->Find("traceEvents");
  bool found_arg = false;
  for (const auto& event : events->items) {
    const testing::JsonValue* args = event->Find("args");
    if (args == nullptr) continue;
    const testing::JsonValue* items = args->Find("items");
    if (items != nullptr) {
      EXPECT_EQ(items->string_value, "7");
      found_arg = true;
    }
  }
  EXPECT_TRUE(found_arg);
}

TEST(TraceTest, StartClearsPreviousEvents) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();
  { obs::TraceSpan span("test", "stale"); }
  tracer.Start();
  { obs::TraceSpan span("test", "fresh"); }
  tracer.Stop();
  EXPECT_EQ(tracer.NumEventsForTest(), 1u);
  EXPECT_EQ(tracer.ToJson().find("stale"), std::string::npos);
}

// The golden: a DebugSession opened with trace_path/metrics_path traces the
// initial chase, a route probe and an incremental edit, and on destruction
// writes a schema-valid Chrome trace plus a parsable metrics dump.
TEST(TraceTest, DebugSessionWritesValidChromeTrace) {
  const std::string trace_path = ::testing::TempDir() + "/spider_trace.json";
  const std::string metrics_path =
      ::testing::TempDir() + "/spider_metrics.json";
  {
    DebugSessionOptions options;
    options.trace_path = trace_path;
    options.metrics_path = metrics_path;
    DebugSession session(ParseScenario(testing::TransitiveClosureText()),
                         options);
    session.RouteFor("T(1, 3)");
    SourceDelta delta;
    delta.Insert("S", Tuple({Value::Int(7), Value::Int(8)}));
    session.Apply(delta);
    session.RouteFor("T(7, 8)");
  }  // Destructor stops tracing and writes both files.

  std::string trace_json = ReadFileOrDie(trace_path);
  std::unique_ptr<testing::JsonValue> doc = CheckTraceSchema(trace_json);
  ASSERT_NE(doc, nullptr);
  // The session's own phases are on the trace...
  EXPECT_TRUE(HasEventNamed(*doc, "open"));
  EXPECT_TRUE(HasEventNamed(*doc, "apply"));
  EXPECT_TRUE(HasEventNamed(*doc, "route_for"));
  // ...and so are the engine spans beneath them: route computation and
  // cache probes from RouteFor, the incremental insert phase from Apply.
  EXPECT_TRUE(HasEventNamed(*doc, "one_route"));
  EXPECT_TRUE(HasEventNamed(*doc, "insert_apply"));
  EXPECT_TRUE(HasEventNamed(*doc, "route_miss"));

  testing::JsonReader metrics_reader(ReadFileOrDie(metrics_path));
  std::unique_ptr<testing::JsonValue> metrics = metrics_reader.Parse();
  ASSERT_NE(metrics, nullptr) << metrics_reader.error();
  EXPECT_NE(metrics->Find("counters"), nullptr);
  EXPECT_NE(metrics->Find("histograms"), nullptr);
}

}  // namespace
}  // namespace spider
