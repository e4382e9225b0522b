// spider::obs metrics: instrument behavior, the fixed-key-order JSON
// export, and the determinism contract — counters published by the engines
// are byte-identical at every thread count because they come from the
// per-task stats structs merged in canonical order, not from racy bumps.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chase/chase.h"
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

// IncrementalStats::PublishDeltaTo promises that registry totals equal the
// struct totals: after an insertion and a deletion batch every
// "incremental.*" counter, the eval counters included, matches its field.
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
  const std::vector<std::pair<std::string, uint64_t>> fields = {
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
      {"eval.tuples_scanned", stats.eval.tuples_scanned},
      {"eval.index_probes", stats.eval.index_probes},
      {"eval.point_lookups", stats.eval.point_lookups},
      {"eval.levels_entered", stats.eval.levels_entered},
      {"eval.plans_built", stats.eval.plans_built},
      {"eval.plan_cache_hits", stats.eval.plan_cache_hits},
  };
  for (const auto& [field, value] : fields) {
    EXPECT_EQ(registry.GetCounter("incremental." + field)->value(), value)
        << field;
  }
  // And no incremental counter is published that the struct lacks.
  testing::JsonReader reader(registry.CountersJson());
  auto doc = reader.Parse();
  ASSERT_NE(doc, nullptr) << reader.error();
  const testing::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, value] : counters->members) {
    if (name.rfind("incremental.", 0) != 0) continue;
    bool known = false;
    for (const auto& [field, expected] : fields) {
      if (name == "incremental." + field) known = true;
    }
    EXPECT_TRUE(known) << name;
  }
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

}  // namespace
}  // namespace spider
