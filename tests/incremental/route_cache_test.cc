// Unit tests for the RouteCache: dependency extraction, hit/miss
// accounting, the invalidation rules (fine-grained for routes,
// relation-level for forests, wholesale on full re-chase), the edge cases
// of the dependency index behind route eviction and the capacity bound.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "incremental/route_cache.h"
#include "mapping/parser.h"
#include "routes/one_route.h"
#include "routes/route_forest.h"
#include "testing/fixtures.h"
#include "workload/rng.h"

namespace spider {
namespace {

FactKey TargetKeyOf(const Scenario& s, const std::string& rel,
                    const Tuple& tuple) {
  return FactKey{Side::kTarget, s.mapping->target().Require(rel), tuple};
}

FactKey SourceKeyOf(const Scenario& s, const std::string& rel,
                    const Tuple& tuple) {
  return FactKey{Side::kSource, s.mapping->source().Require(rel), tuple};
}

/// Chased transitive-closure scenario plus the route for T(1,3).
struct ClosureFixture {
  Scenario s;
  FactRef t13;
  Route route;

  ClosureFixture() : s(ParseScenario(testing::TransitiveClosureText())) {
    ChaseScenario(&s);
    RelationId t = s.mapping->target().Require("T");
    t13 = FactRef{Side::kTarget, t,
                  *s.target->FindRow(t, Tuple({Value::Int(1), Value::Int(3)}))};
    OneRouteResult result =
        ComputeOneRoute(*s.mapping, *s.source, *s.target, {t13});
    EXPECT_TRUE(result.found);
    route = std::move(result.route);
  }
};

/// The one route the chased scenario `s` gives for T(x,y).
Route RouteOf(const Scenario& s, int64_t x, int64_t y) {
  RelationId t = s.mapping->target().Require("T");
  FactRef fact{Side::kTarget, t,
               *s.target->FindRow(t, Tuple({Value::Int(x), Value::Int(y)}))};
  OneRouteResult result =
      ComputeOneRoute(*s.mapping, *s.source, *s.target, {fact});
  EXPECT_TRUE(result.found);
  return std::move(result.route);
}

/// A delta removing the source facts S(x,y) for the given pairs.
ApplyDeltaResult Removal(const Scenario& s,
                         const std::vector<std::pair<int, int>>& edges) {
  ApplyDeltaResult delta;
  for (auto [x, y] : edges) {
    delta.removed.push_back(
        SourceKeyOf(s, "S", Tuple({Value::Int(x), Value::Int(y)})));
  }
  return delta;
}

TEST(RouteDependenciesTest, CoversLhsAndRhsFacts) {
  ClosureFixture f;
  std::vector<FactKey> deps = RouteDependencies(*f.s.mapping, f.route);
  // Producing T(1,3) takes S(1,2), S(2,3) (sources of the two copy steps),
  // T(1,2), T(2,3) (copies, also the closure step's LHS) and T(1,3) itself.
  auto has = [&](const FactKey& key) {
    return std::find(deps.begin(), deps.end(), key) != deps.end();
  };
  EXPECT_TRUE(has(SourceKeyOf(f.s, "S", Tuple({Value::Int(1), Value::Int(2)}))));
  EXPECT_TRUE(has(SourceKeyOf(f.s, "S", Tuple({Value::Int(2), Value::Int(3)}))));
  EXPECT_TRUE(has(TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(2)}))));
  EXPECT_TRUE(has(TargetKeyOf(f.s, "T", Tuple({Value::Int(2), Value::Int(3)}))));
  EXPECT_TRUE(has(TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}))));
  // Deduplicated: no key twice.
  for (size_t i = 0; i < deps.size(); ++i) {
    for (size_t j = i + 1; j < deps.size(); ++j) {
      EXPECT_FALSE(deps[i] == deps[j]);
    }
  }
}

TEST(RouteCacheTest, FindCountsHitsAndMisses) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));

  EXPECT_EQ(cache.FindRoute(key), nullptr);
  EXPECT_EQ(cache.stats().route_misses, 1u);
  cache.PutRoute(key, f.route);
  const Route* cached = cache.FindRoute(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->steps(), f.route.steps());
  EXPECT_EQ(cache.stats().route_hits, 1u);
  EXPECT_EQ(cache.NumRoutes(), 1u);
}

TEST(RouteCacheTest, RemovalOfDependencyEvictsRoute) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);

  ApplyDeltaResult delta;
  delta.removed.push_back(
      SourceKeyOf(f.s, "S", Tuple({Value::Int(2), Value::Int(3)})));
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumRoutes(), 0u);
  EXPECT_EQ(cache.stats().route_evictions, 1u);
}

TEST(RouteCacheTest, UnrelatedRemovalKeepsRoute) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);

  ApplyDeltaResult delta;
  delta.removed.push_back(
      SourceKeyOf(f.s, "S", Tuple({Value::Int(8), Value::Int(9)})));
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumRoutes(), 1u);
  EXPECT_EQ(cache.stats().route_evictions, 0u);
}

TEST(RouteCacheTest, AdditionsNeverEvictRoutes) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);

  ApplyDeltaResult delta;
  delta.added.push_back(
      SourceKeyOf(f.s, "S", Tuple({Value::Int(3), Value::Int(4)})));
  delta.added.push_back(
      TargetKeyOf(f.s, "T", Tuple({Value::Int(3), Value::Int(4)})));
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumRoutes(), 1u);
}

TEST(RouteCacheTest, AnyRemovalEvictsAllForests) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutForest(
      key, ComputeAllRoutes(*f.s.mapping, *f.s.source, *f.s.target, {f.t13}));
  ASSERT_EQ(cache.NumForests(), 1u);

  // The removed fact is unrelated to the forest's content, but forests hold
  // row indexes, which any removal destabilizes.
  ApplyDeltaResult delta;
  delta.removed.push_back(
      SourceKeyOf(f.s, "S", Tuple({Value::Int(8), Value::Int(9)})));
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumForests(), 0u);
  EXPECT_EQ(cache.stats().forest_evictions, 1u);
}

TEST(RouteCacheTest, ThreateningAdditionEvictsForest) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutForest(
      key, ComputeAllRoutes(*f.s.mapping, *f.s.source, *f.s.target, {f.t13}));

  // An added S-fact can fire sigma1 into T, and the forest owns T-nodes:
  // its branch lists could grow, so it must go.
  ApplyDeltaResult delta;
  delta.added.push_back(
      SourceKeyOf(f.s, "S", Tuple({Value::Int(1), Value::Int(9)})));
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumForests(), 0u);
  EXPECT_EQ(cache.stats().forest_evictions, 1u);
}

TEST(RouteCacheTest, NonThreateningAdditionKeepsForest) {
  // Two disconnected tgds: U-facts can only reach V, never T, so a forest
  // whose nodes all live in T survives a U/V addition.
  Scenario s = ParseScenario(R"(
source schema { S(x); U(x); }
target schema { T(x); V(x); }
st1: S(x) -> T(x);
st2: U(x) -> V(x);
source instance { S(1); U(2); }
target instance { }
)");
  ChaseScenario(&s);
  RelationId t = s.mapping->target().Require("T");
  FactRef t1{Side::kTarget, t, *s.target->FindRow(t, Tuple({Value::Int(1)}))};
  RouteCache cache(s.mapping.get());
  FactKey key = TargetKeyOf(s, "T", Tuple({Value::Int(1)}));
  cache.PutForest(key,
                  ComputeAllRoutes(*s.mapping, *s.source, *s.target, {t1}));

  ApplyDeltaResult delta;
  delta.added.push_back(SourceKeyOf(s, "U", Tuple({Value::Int(3)})));
  delta.added.push_back(TargetKeyOf(s, "V", Tuple({Value::Int(3)})));
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumForests(), 1u);
  EXPECT_EQ(cache.stats().forest_evictions, 0u);
}

TEST(RouteCacheTest, FullRechaseClearsEverything) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);
  cache.PutForest(
      key, ComputeAllRoutes(*f.s.mapping, *f.s.source, *f.s.target, {f.t13}));

  ApplyDeltaResult delta;
  delta.full_rechase = true;
  cache.Invalidate(delta);

  EXPECT_EQ(cache.NumRoutes(), 0u);
  EXPECT_EQ(cache.NumForests(), 0u);
  EXPECT_EQ(cache.stats().clears, 1u);
}

TEST(RouteCacheTest, PutReplacesExistingEntry) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);
  // Replace it with T(1,2)'s route, which does not depend on S(2,3).
  Route t12 = RouteOf(f.s, 1, 2);
  cache.PutRoute(key, t12);
  EXPECT_EQ(cache.NumRoutes(), 1u);
  EXPECT_EQ(cache.FindRoute(key)->steps(), t12.steps());

  // The replaced entry's index users are gone: removing a fact only it
  // used evicts nothing.
  cache.Invalidate(Removal(f.s, {{2, 3}}));
  EXPECT_EQ(cache.NumRoutes(), 1u);
  EXPECT_EQ(cache.stats().route_evictions, 0u);

  // A fact the new route uses evicts it, once.
  cache.Invalidate(Removal(f.s, {{1, 2}}));
  EXPECT_EQ(cache.NumRoutes(), 0u);
  EXPECT_EQ(cache.stats().route_evictions, 1u);
}

TEST(RouteCacheTest, SharedRemovedFactEvictsEveryUser) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  for (auto [x, y] : {std::pair{1, 2}, {2, 3}, {1, 3}}) {
    FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(x), Value::Int(y)}));
    cache.PutRoute(key, RouteOf(f.s, x, y));
  }

  // S(1,2) feeds T(1,2) and T(1,3), not T(2,3).
  cache.Invalidate(Removal(f.s, {{1, 2}}));
  EXPECT_EQ(cache.NumRoutes(), 1u);
  EXPECT_EQ(cache.stats().route_evictions, 2u);
  EXPECT_NE(cache.FindRoute(TargetKeyOf(
                f.s, "T", Tuple({Value::Int(2), Value::Int(3)}))),
            nullptr);
}

TEST(RouteCacheTest, RouteHitByTwoRemovedFactsIsEvictedOnce) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);

  // T(1,3)'s route uses both source facts.
  ApplyDeltaResult delta = Removal(f.s, {{1, 2}, {2, 3}});
  cache.Invalidate(delta);
  EXPECT_EQ(cache.NumRoutes(), 0u);
  EXPECT_EQ(cache.stats().route_evictions, 1u);

  // The index held no dangling user: the same delta again evicts nothing.
  cache.Invalidate(delta);
  EXPECT_EQ(cache.stats().route_evictions, 1u);
}

TEST(RouteCacheTest, InvalidateAfterClear) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  FactKey key = TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)}));
  cache.PutRoute(key, f.route);
  cache.Clear();
  EXPECT_EQ(cache.stats().route_evictions, 1u);

  cache.Invalidate(Removal(f.s, {{1, 2}}));
  EXPECT_EQ(cache.NumRoutes(), 0u);
  EXPECT_EQ(cache.stats().route_evictions, 1u);

  // The index works again for entries put after the clear.
  cache.PutRoute(key, f.route);
  cache.Invalidate(Removal(f.s, {{2, 3}}));
  EXPECT_EQ(cache.NumRoutes(), 0u);
  EXPECT_EQ(cache.stats().route_evictions, 2u);
}

TEST(RouteCacheTest, FullCacheDropsLeastRecentlyUsedRoute) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get(), /*max_routes=*/2);
  auto key = [&](int x, int y) {
    return TargetKeyOf(f.s, "T", Tuple({Value::Int(x), Value::Int(y)}));
  };
  cache.PutRoute(key(1, 2), RouteOf(f.s, 1, 2));
  cache.PutRoute(key(2, 3), RouteOf(f.s, 2, 3));
  // The hit makes T(1,2) the most recent, so T(2,3) is the one dropped.
  ASSERT_NE(cache.FindRoute(key(1, 2)), nullptr);
  cache.PutRoute(key(1, 3), f.route);
  EXPECT_EQ(cache.NumRoutes(), 2u);
  EXPECT_EQ(cache.stats().route_capacity_evictions, 1u);
  EXPECT_EQ(cache.stats().route_evictions, 0u);
  EXPECT_EQ(cache.FindRoute(key(2, 3)), nullptr);

  // Replacing a cached key in a full cache drops nothing else.
  cache.PutRoute(key(1, 3), f.route);
  EXPECT_EQ(cache.NumRoutes(), 2u);
  EXPECT_EQ(cache.stats().route_capacity_evictions, 1u);

  // The dropped route left the index: S(2,3) evicts T(1,3) alone.
  cache.Invalidate(Removal(f.s, {{2, 3}}));
  EXPECT_EQ(cache.NumRoutes(), 1u);
  EXPECT_EQ(cache.stats().route_evictions, 1u);
  EXPECT_NE(cache.FindRoute(key(1, 2)), nullptr);
}

TEST(RouteCacheTest, HashCollisionNeverEvicts) {
  ClosureFixture f;
  RouteCache cache(f.s.mapping.get());
  cache.PutRoute(TargetKeyOf(f.s, "T", Tuple({Value::Int(1), Value::Int(3)})),
                 f.route);

  // Build S(7, b) whose FactKeyHash equals that of S(1,2), a dependency of
  // the cached route, by inverting the hash combine on the last column.
  auto uncombine = [](size_t seed, size_t combined) {
    return (combined ^ seed) - 0x9e3779b97f4a7c15ULL - (seed << 6) -
           (seed >> 2);
  };
  Tuple dep({Value::Int(1), Value::Int(2)});
  size_t prefix = HashCombine(kTupleHashSeed, Value::Int(7).Hash());
  size_t cell = uncombine(prefix, dep.Hash());
  int64_t b = static_cast<int64_t>(
      uncombine(static_cast<size_t>(Value::Kind::kInt), cell));
  FactKey collider =
      SourceKeyOf(f.s, "S", Tuple({Value::Int(7), Value::Int(b)}));
  FactKey real = SourceKeyOf(f.s, "S", dep);
  ASSERT_NE(collider, real);
  ASSERT_EQ(FactKeyHash{}(collider), FactKeyHash{}(real))
      << "the construction no longer collides under FactKeyHash";

  ApplyDeltaResult delta;
  delta.removed.push_back(collider);
  cache.Invalidate(delta);
  EXPECT_EQ(cache.NumRoutes(), 1u);
  EXPECT_EQ(cache.stats().route_evictions, 0u);
}

TEST(RouteCacheTest, RandomPutInvalidateMatchesModel) {
  // A chain S(1,2), ..., S(7,8) whose closure holds T(x,y) for x < y; the
  // route for T(x,y) depends on S(x,x+1), ..., S(y-1,y).
  std::string text =
      "source schema { S(x, y); }\n"
      "target schema { T(x, y); }\n"
      "sigma1: S(x,y) -> T(x,y);\n"
      "sigma2: T(x,y) & T(y,z) -> T(x,z);\n"
      "source instance { ";
  for (int i = 1; i < 8; ++i) {
    text += "S(" + std::to_string(i) + "," + std::to_string(i + 1) + "); ";
  }
  text += "}\ntarget instance { }\n";
  Scenario s = ParseScenario(text);
  ChaseScenario(&s);
  std::vector<std::pair<FactKey, Route>> routes;
  for (int x = 1; x < 8; ++x) {
    for (int y = x + 1; y <= 8; ++y) {
      routes.emplace_back(
          TargetKeyOf(s, "T", Tuple({Value::Int(x), Value::Int(y)})),
          RouteOf(s, x, y));
    }
  }

  RouteCache cache(s.mapping.get());
  // The model: each live key with its dependencies, evicted by brute force.
  std::map<FactKey, std::vector<FactKey>> live;
  size_t evictions = 0;
  Rng rng(20061);
  for (int op = 0; op < 2000; ++op) {
    if (rng.Below(3) != 0) {
      const auto& [key, route] = routes[rng.Below(routes.size())];
      cache.PutRoute(key, route);
      live[key] = RouteDependencies(*s.mapping, route);
    } else {
      std::vector<std::pair<int, int>> edges;
      for (int r = static_cast<int>(rng.Below(3)); r >= 0; --r) {
        int x = 1 + static_cast<int>(rng.Below(7));
        edges.push_back({x, x + 1});
      }
      ApplyDeltaResult delta = Removal(s, edges);
      cache.Invalidate(delta);
      for (auto it = live.begin(); it != live.end();) {
        bool stale = std::any_of(
            it->second.begin(), it->second.end(), [&](const FactKey& d) {
              return std::find(delta.removed.begin(), delta.removed.end(),
                               d) != delta.removed.end();
            });
        if (stale) {
          it = live.erase(it);
          ++evictions;
        } else {
          ++it;
        }
      }
    }
    ASSERT_EQ(cache.NumRoutes(), live.size()) << "op " << op;
    ASSERT_EQ(cache.stats().route_evictions, evictions) << "op " << op;
  }
  for (const auto& [key, route] : routes) {
    EXPECT_EQ(cache.FindRoute(key) != nullptr, live.count(key) == 1);
  }
}

TEST(RouteCacheTest, RandomOpsOnFullCacheMatchLruModel) {
  std::string text =
      "source schema { S(x, y); }\n"
      "target schema { T(x, y); }\n"
      "sigma1: S(x,y) -> T(x,y);\n"
      "sigma2: T(x,y) & T(y,z) -> T(x,z);\n"
      "source instance { ";
  for (int i = 1; i < 8; ++i) {
    text += "S(" + std::to_string(i) + "," + std::to_string(i + 1) + "); ";
  }
  text += "}\ntarget instance { }\n";
  Scenario s = ParseScenario(text);
  ChaseScenario(&s);
  std::vector<std::pair<FactKey, Route>> routes;
  for (int x = 1; x < 8; ++x) {
    for (int y = x + 1; y <= 8; ++y) {
      routes.emplace_back(
          TargetKeyOf(s, "T", Tuple({Value::Int(x), Value::Int(y)})),
          RouteOf(s, x, y));
    }
  }

  // 28 keys through 5 slots: puts, finds and removals mixed, so the index
  // sees replacements, capacity drops and evictions in every order.
  constexpr size_t kMaxRoutes = 5;
  RouteCache cache(s.mapping.get(), kMaxRoutes);
  // The model: live keys, most recently used first, each with its deps.
  std::vector<std::pair<FactKey, std::vector<FactKey>>> live;
  auto find_live = [&](const FactKey& key) {
    return std::find_if(live.begin(), live.end(),
                        [&](const auto& entry) { return entry.first == key; });
  };
  size_t evictions = 0;
  size_t drops = 0;
  Rng rng(20062);
  for (int op = 0; op < 4000; ++op) {
    uint64_t roll = rng.Below(4);
    const auto& [key, route] = routes[rng.Below(routes.size())];
    if (roll == 0) {
      auto it = find_live(key);
      ASSERT_EQ(cache.FindRoute(key) != nullptr, it != live.end())
          << "op " << op;
      if (it != live.end()) std::rotate(live.begin(), it, it + 1);
    } else if (roll < 3) {
      cache.PutRoute(key, route);
      if (auto it = find_live(key); it != live.end()) {
        live.erase(it);
      } else if (live.size() == kMaxRoutes) {
        live.pop_back();
        ++drops;
      }
      live.insert(live.begin(), {key, RouteDependencies(*s.mapping, route)});
    } else {
      int x = 1 + static_cast<int>(rng.Below(7));
      ApplyDeltaResult delta = Removal(s, {{x, x + 1}});
      cache.Invalidate(delta);
      size_t before = live.size();
      std::erase_if(live, [&](const auto& entry) {
        return std::find(entry.second.begin(), entry.second.end(),
                         delta.removed[0]) != entry.second.end();
      });
      evictions += before - live.size();
    }
    ASSERT_EQ(cache.NumRoutes(), live.size()) << "op " << op;
    ASSERT_EQ(cache.stats().route_evictions, evictions) << "op " << op;
    ASSERT_EQ(cache.stats().route_capacity_evictions, drops) << "op " << op;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(evictions, 0u);
}

}  // namespace
}  // namespace spider
