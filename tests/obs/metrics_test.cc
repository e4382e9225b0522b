// spider::obs metrics: instrument behavior, the fixed-key-order JSON
// export, and the determinism contract — counters published by the engines
// are byte-identical at every thread count because they come from the
// per-task stats structs merged in canonical order, not from racy bumps.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "debugger/debug_session.h"
#include "debugger/debugger.h"
#include "incremental/delta_chase.h"
#include "mapping/parser.h"
#include "provenance/annotated_chase.h"
#include "routes/one_route.h"
#include "routes/route_forest.h"
#include "testing/fixtures.h"
#include "testing/json_check.h"
#include "workload/relational_scenario.h"

namespace spider {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsTest, GaugeSetsAndAdds) {
  obs::Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(MetricsTest, HistogramBucketsLogarithmically) {
  obs::Histogram histogram;
  histogram.Record(0.5);   // 2^-1 ms -> bucket 5 (upper bound 0.5).
  histogram.Record(1.0);   // bucket 6 (upper bound 1).
  histogram.Record(100.0);  // bucket 13 (upper bound 128).
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum_ms(), 101.5);
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 100.0);
  std::vector<uint64_t> buckets = histogram.buckets();
  ASSERT_EQ(buckets.size(), static_cast<size_t>(obs::Histogram::kNumBuckets));
  EXPECT_EQ(buckets[5], 1u);
  EXPECT_EQ(buckets[6], 1u);
  EXPECT_EQ(buckets[13], 1u);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperMs(6), 1.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  obs::Registry registry;
  obs::Counter* a = registry.GetCounter("a");
  EXPECT_EQ(registry.GetCounter("a"), a);
  EXPECT_NE(registry.GetCounter("b"), a);
  a->Add(5);
  registry.ResetAll();
  // Reset zeroes values but keeps the instruments alive.
  EXPECT_EQ(registry.GetCounter("a"), a);
  EXPECT_EQ(a->value(), 0u);
}

TEST(MetricsTest, EmptyRegistryJson) {
  obs::Registry registry;
  EXPECT_EQ(registry.ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST(MetricsTest, JsonKeysAreSortedRegardlessOfRegistrationOrder) {
  obs::Registry registry;
  registry.GetCounter("z.last")->Add(2);
  registry.GetCounter("a.first")->Add(1);
  registry.GetGauge("g")->Set(5);
  registry.GetHistogram("h")->Record(1.0);

  std::string json = registry.ToJson();
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {\n"
            "    \"a.first\": 1,\n"
            "    \"z.last\": 2\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": 5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 1, \"sum_ms\": 1, \"min_ms\": 1, "
            "\"max_ms\": 1, \"buckets\": [{\"le_ms\": 1, \"count\": 1}]}\n"
            "  }\n"
            "}\n");

  testing::JsonReader reader(json);
  auto doc = reader.Parse();
  ASSERT_NE(doc, nullptr) << reader.error();
  const testing::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members.size(), 2u);
  EXPECT_EQ(counters->members[0].first, "a.first");
  EXPECT_EQ(counters->members[1].first, "z.last");
}

TEST(MetricsTest, CountersJsonExcludesHistograms) {
  obs::Registry registry;
  registry.GetCounter("c")->Add(3);
  registry.GetHistogram("h")->Record(2.0);
  std::string json = registry.CountersJson();
  EXPECT_EQ(json.find("histograms"), std::string::npos);
  EXPECT_NE(json.find("\"c\": 3"), std::string::npos);
}

TEST(MetricsTest, EnabledSwitchGatesEnginePublication) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAll();
  Scenario scenario = ParseScenario(
      "source schema { R(a); }\n"
      "target schema { T(a); }\n"
      "m: R(x) -> T(x);\n"
      "source instance { R(1); R(2); }\n");

  obs::SetMetricsEnabled(false);
  EXPECT_FALSE(obs::MetricsEnabled());
  ChaseResult quiet = Chase(*scenario.mapping, *scenario.source);
  ASSERT_EQ(quiet.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(registry.GetCounter("chase.st_steps")->value(), 0u);

  obs::SetMetricsEnabled(true);
  ChaseResult loud = Chase(*scenario.mapping, *scenario.source);
  ASSERT_EQ(loud.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(registry.GetCounter("chase.st_steps")->value(), 2u);
}

using FieldValues = std::vector<std::pair<std::string, uint64_t>>;

/// Expects the global registry's counters under `prefix` to be exactly
/// `fields`: each listed counter equals its value (an absent key reads as
/// zero, since zero fields publish nothing), and no non-zero counter under
/// `prefix` is missing from the list. (ResetAll keeps the keys earlier
/// tests created, at zero.)
void ExpectCountersUnder(const std::string& prefix, const FieldValues& fields) {
  testing::JsonReader reader(obs::Registry::Global().CountersJson());
  auto doc = reader.Parse();
  ASSERT_NE(doc, nullptr) << reader.error();
  const testing::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [field, expected] : fields) {
    const testing::JsonValue* value = counters->Find(prefix + field);
    EXPECT_EQ(value == nullptr ? 0u : std::stoull(value->string_value),
              expected)
        << prefix << field;
  }
  for (const auto& [name, value] : counters->members) {
    if (name.rfind(prefix, 0) != 0 || value->string_value == "0") continue;
    bool known = false;
    for (const auto& [field, expected] : fields) {
      if (name == prefix + field) known = true;
    }
    EXPECT_TRUE(known) << name;
  }
}

/// The registry names and values of `eval`'s counters, under "eval.".
FieldValues EvalFields(const EvalStats& eval) {
  return {
      {"eval.tuples_scanned", eval.tuples_scanned},
      {"eval.index_probes", eval.index_probes},
      {"eval.point_lookups", eval.point_lookups},
      {"eval.levels_entered", eval.levels_entered},
      {"eval.plans_built", eval.plans_built},
      {"eval.plan_cache_hits", eval.plan_cache_hits},
  };
}

// One Chase() publishes its ChaseStats under "chase.", plus the run count.
TEST(MetricsTest, ChaseCountersEqualStructTotals) {
  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetAll();
  Scenario scenario = ParseScenario(testing::TransitiveClosureText());
  ChaseResult result = Chase(*scenario.mapping, *scenario.source);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);

  const ChaseStats& stats = result.stats;
  EXPECT_GT(stats.target_steps, 0u);
  FieldValues fields = {
      {"runs", 1},
      {"st_steps", stats.st_steps},
      {"st_triggers", stats.st_triggers},
      {"target_steps", stats.target_steps},
      {"egd_steps", stats.egd_steps},
      {"nulls_created", stats.nulls_created},
      {"rounds", stats.rounds},
      {"target_enumerations_skipped", stats.target_enumerations_skipped},
  };
  for (const auto& field : EvalFields(stats.eval)) fields.push_back(field);
  ExpectCountersUnder("chase.", fields);
}

// One ComputeAllRoutes publishes the forest's RouteStats under "routes.",
// plus the run count.
TEST(MetricsTest, RouteCountersEqualStructTotals) {
  obs::SetMetricsEnabled(true);
  Scenario scenario = testing::CreditCardScenario();
  MappingDebugger debugger(&scenario);
  FactRef fact = debugger.TargetFact("Accounts(5539, \"40K\", 153)");
  obs::Registry::Global().ResetAll();
  RouteForest forest = ComputeAllRoutes(*scenario.mapping, *scenario.source,
                                        *scenario.target, {fact});

  const RouteStats& stats = forest.stats();
  EXPECT_GT(stats.branches_added, 0u);
  FieldValues fields = {
      {"all_routes_runs", 1},
      {"findhom_calls", stats.findhom_calls},
      {"findhom_successes", stats.findhom_successes},
      {"infer_fires", stats.infer_fires},
      {"nodes_expanded", stats.nodes_expanded},
      {"branches_added", stats.branches_added},
  };
  for (const auto& field : EvalFields(stats.eval)) fields.push_back(field);
  ExpectCountersUnder("routes.", fields);
}

// Apply() publishes each batch's difference of IncrementalStats, so after
// an insertion and a deletion batch every "incremental.*" counter, the eval
// counters included, matches its field.
TEST(MetricsTest, IncrementalCountersEqualStructTotals) {
  obs::SetMetricsEnabled(true);
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAll();
  // Full tgds only, so every RHS containment check is fully bound and takes
  // the point-lookup path.
  Scenario scenario = ParseScenario(testing::TransitiveClosureText());
  Instance target(&scenario.mapping->target());
  IncrementalChaser chaser(scenario.mapping.get(), scenario.source.get(),
                           &target);
  SourceDelta insert;
  insert.Insert("S", Tuple({Value::Int(3), Value::Int(4)}));
  chaser.Apply(insert);
  SourceDelta remove;
  remove.Delete("S", Tuple({Value::Int(1), Value::Int(2)}));
  chaser.Apply(remove);

  const IncrementalStats& stats = chaser.stats();
  EXPECT_GT(stats.eval.point_lookups, 0u);
  FieldValues fields = {
      {"batches", stats.batches},
      {"source_inserted", stats.source_inserted},
      {"source_deleted", stats.source_deleted},
      {"st_steps", stats.st_steps},
      {"target_steps", stats.target_steps},
      {"egd_steps", stats.egd_steps},
      {"triggers_enumerated", stats.triggers_enumerated},
      {"overdeleted", stats.overdeleted},
      {"rederived", stats.rederived},
      {"refired", stats.refired},
      {"full_rechases", stats.full_rechases},
  };
  for (const auto& field : EvalFields(stats.eval)) fields.push_back(field);
  ExpectCountersUnder("incremental.", fields);
}

// DebugSession publishes the RouteCacheStats difference of each Apply,
// RouteFor and ForestFor call, so every "cache.*" counter matches its field
// after probes that hit, miss and are evicted.
TEST(MetricsTest, CacheCountersEqualStructTotals) {
  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetAll();
  DebugSession session(ParseScenario(testing::TransitiveClosureText()));
  for (int probe = 0; probe < 2; ++probe) {
    session.RouteFor("T(1, 3)");
    session.ForestFor("T(1, 3)");
  }
  SourceDelta insert;
  insert.Insert("S", Tuple({Value::Int(3), Value::Int(4)}));
  session.Apply(insert);  // Threatens T: evicts the forest.
  session.ForestFor("T(1, 3)");
  SourceDelta remove;
  remove.Delete("S", Tuple({Value::Int(1), Value::Int(2)}));
  session.Apply(remove);  // Evicts T(1,3)'s route and every forest.
  session.RouteFor("T(2, 3)");

  const RouteCacheStats& stats = session.cache_stats();
  EXPECT_GT(stats.route_evictions, 0u);
  EXPECT_GT(stats.forest_evictions, 0u);
  FieldValues fields = {
      {"route_hits", stats.route_hits},
      {"route_misses", stats.route_misses},
      {"forest_hits", stats.forest_hits},
      {"forest_misses", stats.forest_misses},
      {"route_evictions", stats.route_evictions},
      {"forest_evictions", stats.forest_evictions},
      {"clears", stats.clears},
      {"route_capacity_evictions", stats.route_capacity_evictions},
  };
  ExpectCountersUnder("cache.", fields);
}

/// The first `count` target facts in relation-major order.
std::vector<FactRef> FirstTargetFacts(const Instance& target, size_t count) {
  std::vector<FactRef> facts;
  for (size_t r = 0; r < target.NumRelations() && facts.size() < count; ++r) {
    RelationId rel = static_cast<RelationId>(r);
    int32_t rows = static_cast<int32_t>(target.NumTuples(rel));
    for (int32_t row = 0; row < rows && facts.size() < count; ++row) {
      facts.push_back(FactRef{Side::kTarget, rel, row});
    }
  }
  return facts;
}

/// Resets the global registry, runs chase + one-route + all-routes, then the
/// annotated chase and an incremental maintainer (opening chase plus one
/// deletion batch) at the given thread count, and returns the deterministic
/// counters export.
std::string CountersAfterPipeline(int num_threads) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAll();

  RelationalScenarioOptions options;
  options.joins = 1;
  options.groups = 3;
  options.sizes.units = 2;
  Scenario scenario = BuildRelationalScenario(options);

  ChaseOptions chase_options;
  chase_options.exec.num_threads = num_threads;
  ChaseScenario(&scenario, chase_options);

  RouteOptions route_options;
  route_options.exec.num_threads = num_threads;
  std::vector<FactRef> selected = FirstTargetFacts(*scenario.target, 6);
  ComputeOneRoute(*scenario.mapping, *scenario.source, *scenario.target,
                  selected, route_options);
  ComputeAllRoutes(*scenario.mapping, *scenario.source, *scenario.target,
                   selected, route_options);

  AnnotatedChase(*scenario.mapping, *scenario.source, chase_options);
  Instance source(*scenario.source);
  Instance target(&scenario.mapping->target());
  IncrementalOptions incremental;
  incremental.exec.num_threads = num_threads;
  IncrementalChaser chaser(scenario.mapping.get(), &source, &target,
                           incremental);
  SourceDelta delta;
  delta.Delete(source.schema().relation(0).name(), source.tuple(0, 0));
  chaser.Apply(delta);
  return registry.CountersJson();
}

// The headline determinism claim: the counters JSON is byte-identical at
// 1, 2 and 8 threads. (Histograms record wall clock and are deliberately
// excluded from this export.)
TEST(MetricsTest, CountersJsonByteIdenticalAcrossThreadCounts) {
  obs::SetMetricsEnabled(true);
  std::string base = CountersAfterPipeline(1);
  EXPECT_NE(base.find("\"chase."), std::string::npos) << base;
  EXPECT_NE(base.find("\"routes."), std::string::npos) << base;
  EXPECT_NE(base.find("\"incremental."), std::string::npos) << base;
  // The copy chain's second fixpoint round finds every premise unchanged,
  // so the chase skips those target-tgd enumerations.
  testing::JsonReader reader(base);
  auto doc = reader.Parse();
  ASSERT_NE(doc, nullptr) << reader.error();
  const testing::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const testing::JsonValue* skipped =
      counters->Find("chase.target_enumerations_skipped");
  ASSERT_NE(skipped, nullptr) << base;
  EXPECT_GT(std::stoull(skipped->string_value), 0u);
  for (int threads : {2, 8}) {
    EXPECT_EQ(CountersAfterPipeline(threads), base) << threads << " threads";
  }
}

/// The non-zero counters and gauges of the global registry's deterministic
/// export, by name.
std::map<std::string, std::string> NonZeroCounters() {
  testing::JsonReader reader(obs::Registry::Global().CountersJson());
  auto doc = reader.Parse();
  SPIDER_CHECK(doc != nullptr, reader.error());
  std::map<std::string, std::string> out;
  for (const char* section : {"counters", "gauges"}) {
    const testing::JsonValue* values = doc->Find(section);
    SPIDER_CHECK(values != nullptr, section);
    for (const auto& [name, value] : values->members) {
      if (value->string_value != "0") out[name] = value->string_value;
    }
  }
  return out;
}

/// Resets the global registry and runs one of every engine entry point that
/// publishes stats at `num_threads`: an egd chase, the annotated chase, an
/// incremental maintainer (open, one insertion batch, one deletion batch),
/// one-route and all-routes, and a debug session probing one fact twice
/// (a miss, then a hit).
std::map<std::string, std::string> CountersAfterEverySubsystem(
    int num_threads) {
  obs::Registry::Global().ResetAll();
  ChaseOptions chase_options;
  chase_options.exec.num_threads = num_threads;

  Scenario egd = ParseScenario(R"(
    source schema { R(a); P(a, b); Q(a); }
    target schema { T(a, b); U(a); V(a); W(a, b); }
    m1: R(x) -> exists Y . T(x, Y);
    m2: P(x, y) -> W(x, y);
    m3: Q(y) -> U(y);
    t: T(x, y) & U(y) -> V(x);
    e: T(x, y) & W(x, z) -> y = z;
    source instance { R(1); P(1, 2); Q(2); }
  )");
  SPIDER_CHECK(Chase(*egd.mapping, *egd.source, chase_options).outcome ==
                   ChaseOutcome::kSuccess,
               "egd chase failed");

  RelationalScenarioOptions options;
  options.joins = 1;
  options.groups = 3;
  options.sizes.units = 2;
  Scenario scenario = BuildRelationalScenario(options);
  ChaseScenario(&scenario, chase_options);
  AnnotatedChase(*scenario.mapping, *scenario.source, chase_options);

  Instance source(*scenario.source);
  const RelationId rel = static_cast<RelationId>(0);
  const std::string& rel_name = source.schema().relation(rel).name();
  Tuple held = source.tuple(rel, 0);
  Tuple dropped = source.tuple(rel, 1);
  source.Erase(rel, held);
  Instance target(&scenario.mapping->target());
  IncrementalOptions incremental;
  incremental.exec.num_threads = num_threads;
  IncrementalChaser chaser(scenario.mapping.get(), &source, &target,
                           incremental);
  SourceDelta insert;
  insert.Insert(rel_name, held);
  chaser.Apply(insert);
  SourceDelta remove;
  remove.Delete(rel_name, dropped);
  chaser.Apply(remove);

  RouteOptions route_options;
  route_options.exec.num_threads = num_threads;
  std::vector<FactRef> selected = FirstTargetFacts(*scenario.target, 6);
  ComputeOneRoute(*scenario.mapping, *scenario.source, *scenario.target,
                  selected, route_options);
  ComputeAllRoutes(*scenario.mapping, *scenario.source, *scenario.target,
                   selected, route_options);

  DebugSessionOptions session_options;
  session_options.incremental.exec.num_threads = num_threads;
  session_options.routes.exec.num_threads = num_threads;
  DebugSession session(ParseScenario(testing::TransitiveClosureText()),
                       session_options);
  session.RouteFor("T(1, 3)");
  session.RouteFor("T(1, 3)");
  return NonZeroCounters();
}

// Every non-zero counter and gauge the engines publish, pinned by name and
// value. Zero-valued keys are left out on purpose: whether a zero is
// published at all is not part of the contract.
TEST(MetricsTest, NonZeroCountersPinnedAcrossSubsystems) {
  obs::SetMetricsEnabled(true);
  const std::map<std::string, std::string> expected = {
      {"analysis.reachability_runs", "1"},
      {"cache.route_hits", "1"},
      {"cache.route_misses", "1"},
      {"chase.egd_steps", "1"},
      {"chase.eval.index_probes", "432"},
      {"chase.eval.levels_entered", "492"},
      {"chase.eval.plan_cache_hits", "1"},
      {"chase.eval.plans_built", "48"},
      {"chase.eval.point_lookups", "6091"},
      {"chase.eval.tuples_scanned", "2746"},
      {"chase.nulls_created", "1"},
      {"chase.rounds", "11"},
      {"chase.runs", "5"},
      {"chase.st_steps", "765"},
      {"chase.st_triggers", "765"},
      {"chase.target_enumerations_skipped", "25"},
      {"chase.target_steps", "1522"},
      {"incremental.batches", "2"},
      {"incremental.eval.index_probes", "3"},
      {"incremental.eval.levels_entered", "36"},
      {"incremental.eval.plan_cache_hits", "20"},
      {"incremental.eval.plans_built", "11"},
      {"incremental.eval.point_lookups", "48"},
      {"incremental.eval.tuples_scanned", "90"},
      {"incremental.overdeleted", "18"},
      {"incremental.source_deleted", "1"},
      {"incremental.source_inserted", "1"},
      {"incremental.st_steps", "5"},
      {"incremental.target_steps", "10"},
      {"incremental.triggers_enumerated", "25"},
      {"routes.all_routes_runs", "1"},
      {"routes.branches_added", "26"},
      {"routes.eval.index_probes", "10"},
      {"routes.eval.levels_entered", "92"},
      {"routes.eval.plan_cache_hits", "39"},
      {"routes.eval.plans_built", "10"},
      {"routes.eval.point_lookups", "80"},
      {"routes.eval.tuples_scanned", "115"},
      {"routes.findhom_calls", "96"},
      {"routes.findhom_successes", "34"},
      {"routes.infer_fires", "1"},
      {"routes.nodes_expanded", "6"},
      {"routes.one_route_runs", "2"},
  };
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(CountersAfterEverySubsystem(threads), expected)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace spider
