// The shared cache tiers: SharedRouteCache (state-keyed routes/forests,
// byte-bounded LRU) and PlanCache's bounded mode (per-instance keying,
// eviction, Forget). Plus the end-to-end property the tiers exist for:
// two DebugSessions with identical histories reuse each other's work, and
// a shared-tier hit leaves a session's behavior identical to a miss.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/value.h"
#include "debugger/debug_session.h"
#include "incremental/shared_route_cache.h"
#include "mapping/parser.h"
#include "query/plan_cache.h"
#include "storage/instance.h"
#include "testing/fixtures.h"

namespace spider {
namespace {

FactKey TestKey(int32_t relation, int64_t a, int64_t b) {
  return FactKey{Side::kTarget, relation,
                 Tuple({Value::Int(a), Value::Int(b)})};
}

TEST(SharedRouteCacheTest, RouteRoundTripAndStateIsolation) {
  SharedRouteCache cache;
  FactKey fact = TestKey(0, 1, 3);
  EXPECT_EQ(cache.FindRoute(1, fact), nullptr);

  Route route;
  cache.PutRoute(1, fact, route);
  auto hit = cache.FindRoute(1, fact);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->steps(), route.steps());

  // A different state key is a different world: no hit.
  EXPECT_EQ(cache.FindRoute(2, fact), nullptr);

  SharedRouteCacheStats stats = cache.stats();
  EXPECT_EQ(stats.route_hits, 1u);
  EXPECT_EQ(stats.route_misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SharedRouteCacheTest, EvictsColdestUnderByteBudget) {
  SharedRouteCache cache(/*max_bytes=*/1);  // Room for one entry at most.
  cache.PutRoute(1, TestKey(0, 1, 2), Route());
  cache.PutRoute(1, TestKey(0, 3, 4), Route());
  SharedRouteCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The newest entry survives; the older one was evicted.
  EXPECT_NE(cache.FindRoute(1, TestKey(0, 3, 4)), nullptr);
  EXPECT_EQ(cache.FindRoute(1, TestKey(0, 1, 2)), nullptr);
}

TEST(SharedRouteCacheTest, EvictedForestSurvivesViaSharedPtr) {
  SharedRouteCache cache(/*max_bytes=*/1);
  DebugSession session(ParseScenario(testing::TransitiveClosureText()));
  auto forest = std::make_shared<RouteForest>(
      session.debugger().AllRoutes({session.debugger().TargetFact("T(1, 3)")}));
  size_t nodes = forest->NumNodes();
  std::shared_ptr<RouteForest> held =
      cache.PutForest(1, TestKey(0, 1, 2), std::move(forest));
  cache.PutRoute(1, TestKey(0, 9, 9), Route());  // Evicts the forest.
  EXPECT_EQ(cache.FindForest(1, TestKey(0, 1, 2)), nullptr);
  ASSERT_NE(held, nullptr);  // The handed-out reference stays valid.
  EXPECT_EQ(held->NumNodes(), nodes);
}

TEST(SharedRouteCacheTest, SessionsWithEqualHistoryShareRoutes) {
  SharedRouteCache shared;
  DebugSessionOptions options;
  options.shared_route_cache = &shared;

  DebugSession a(ParseScenario(testing::TransitiveClosureText()), options);
  DebugSession b(ParseScenario(testing::TransitiveClosureText()), options);
  ASSERT_EQ(a.state_key(), b.state_key());

  std::string first = a.debugger().Render(a.RouteFor("T(1, 3)"));
  // b's local cache is cold, but the shared tier is hot.
  std::string second = b.debugger().Render(b.RouteFor("T(1, 3)"));
  EXPECT_EQ(first, second);
  SharedRouteCacheStats stats = shared.stats();
  EXPECT_EQ(stats.route_hits, 1u);
  EXPECT_EQ(stats.route_misses, 1u);

  // The shared hit seeded b's LOCAL cache: a further probe stays local
  // (no new shared lookup), exactly as if b had computed the route itself.
  b.RouteFor("T(1, 3)");
  EXPECT_EQ(shared.stats().route_hits, 1u);
  EXPECT_EQ(b.cache_stats().route_hits, 1u);
}

TEST(SharedRouteCacheTest, ApplyDivergesStateKey) {
  SharedRouteCache shared;
  DebugSessionOptions options;
  options.shared_route_cache = &shared;

  DebugSession a(ParseScenario(testing::TransitiveClosureText()), options);
  DebugSession b(ParseScenario(testing::TransitiveClosureText()), options);
  a.RouteFor("T(1, 3)");

  SourceDelta delta;
  delta.Insert("S", Tuple({Value::Int(7), Value::Int(8)}));
  b.Apply(delta);
  EXPECT_NE(a.state_key(), b.state_key());

  // b is in a different state now: a's entry must not serve it.
  uint64_t misses_before = shared.stats().route_misses;
  b.RouteFor("T(1, 3)");
  EXPECT_EQ(shared.stats().route_hits, 0u);
  EXPECT_GT(shared.stats().route_misses, misses_before);

  // Applying the SAME delta to a converges the keys again.
  SourceDelta same;
  same.Insert("S", Tuple({Value::Int(7), Value::Int(8)}));
  a.Apply(same);
  EXPECT_EQ(a.state_key(), b.state_key());
}

TEST(SharedRouteCacheTest, ForestSharedAcrossSessions) {
  SharedRouteCache shared;
  DebugSessionOptions options;
  options.shared_route_cache = &shared;

  DebugSession a(ParseScenario(testing::TransitiveClosureText()), options);
  DebugSession b(ParseScenario(testing::TransitiveClosureText()), options);
  std::string first = a.debugger().Render(a.ForestFor("T(1, 3)"));
  std::string second = b.debugger().Render(b.ForestFor("T(1, 3)"));
  EXPECT_EQ(first, second);
  SharedRouteCacheStats stats = shared.stats();
  EXPECT_EQ(stats.forest_hits, 1u);
  EXPECT_EQ(stats.forest_misses, 1u);
}

/// A distinguishable single-atom plan for cache bookkeeping tests.
QueryPlan OrderPlan(std::vector<size_t> order) {
  QueryPlan plan;
  plan.order = std::move(order);
  plan.levels.resize(plan.order.size());
  return plan;
}

TEST(PlanCacheBoundedTest, EvictsAndRecountsBytes) {
  Schema schema("S");
  schema.AddRelation("R", {"a", "b"});
  Instance instance(&schema);

  PlanCache cache(/*max_bytes=*/1);  // Every insert evicts the previous.
  EvalStats stats;
  auto plan = [] { return OrderPlan({0, 1}); };
  cache.Get(1, instance, plan, &stats);
  cache.Get(2, instance, plan, &stats);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Key 1 was evicted: a re-Get re-plans rather than hitting.
  uint64_t built_before = stats.plans_built;
  cache.Get(1, instance, plan, &stats);
  EXPECT_EQ(stats.plans_built, built_before + 1);
}

TEST(PlanCacheBoundedTest, InstancesKeyedSeparatelyAndForgotten) {
  Schema schema("S");
  schema.AddRelation("R", {"a", "b"});
  Instance one(&schema);
  Instance two(&schema);

  PlanCache cache(/*max_bytes=*/1 << 20);
  EvalStats stats;
  cache.Get(1, one, [] { return OrderPlan({0}); }, &stats);
  cache.Get(1, two, [] { return OrderPlan({1}); }, &stats);
  EXPECT_EQ(cache.size(), 2u);
  // Same key, different instance: each sees its own plan.
  EXPECT_EQ(cache.Get(1, one, [] { return OrderPlan({9}); }, &stats)->order,
            (std::vector<size_t>{0}));
  EXPECT_EQ(cache.Get(1, two, [] { return OrderPlan({9}); }, &stats)->order,
            (std::vector<size_t>{1}));

  cache.Forget(&one);
  EXPECT_EQ(cache.size(), 1u);
  // Forgetting never counts as eviction...
  EXPECT_EQ(cache.evictions(), 0u);
  // ...and a new instance at one's old address would re-plan, not inherit.
  EXPECT_EQ(cache.Get(1, one, [] { return OrderPlan({7}); }, &stats)->order,
            (std::vector<size_t>{7}));
}

}  // namespace
}  // namespace spider
