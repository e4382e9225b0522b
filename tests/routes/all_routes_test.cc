#include "routes/route_forest.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "mapping/parser.h"
#include "routes/fact_util.h"
#include "routes/naive_print.h"
#include "testing/fixtures.h"

namespace spider {
namespace {

FactRef TargetFact(const Scenario& s, const std::string& relation,
                   std::vector<Value> values) {
  return RequireTargetFact(*s.target, relation, Tuple(std::move(values)));
}

std::vector<std::string> BranchTgds(const RouteForest& /*forest*/,
                                    const RouteForest::Node& node,
                                    const SchemaMapping& mapping) {
  std::vector<std::string> names;
  for (const RouteForest::Branch& b : node.branches) {
    names.push_back(mapping.tgd(b.tgd).name());
  }
  return names;
}

class Example35Test : public ::testing::Test {
 protected:
  Example35Test() : scenario_(ParseScenario(testing::Example35Text(false))) {}

  FactRef T(int i) {
    return TargetFact(scenario_, "T" + std::to_string(i), {Value::Str("a")});
  }

  Scenario scenario_;
};

TEST_F(Example35Test, Figure5ForestShape) {
  RouteForest forest = ComputeAllRoutes(*scenario_.mapping, *scenario_.source,
                                        *scenario_.target, {T(7)});
  // Nodes for T7, T4, T6, T3, T5, T2, T1 — each expanded exactly once.
  EXPECT_EQ(forest.NumNodes(), 7u);
  EXPECT_EQ(forest.NumExpandedNodes(), 7u);
  // Branch counts per Fig. 5: T3 has two branches (sigma7 and sigma3), all
  // other tuples have one.
  EXPECT_EQ(forest.NumBranches(), 8u);
  const SchemaMapping& m = *scenario_.mapping;
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(7)), m),
            (std::vector<std::string>{"sigma6"}));
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(4)), m),
            (std::vector<std::string>{"sigma4"}));
  // sigma7 is declared before sigma3, so it is explored first, matching the
  // paper's figure.
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(3)), m),
            (std::vector<std::string>{"sigma7", "sigma3"}));
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(5)), m),
            (std::vector<std::string>{"sigma5"}));
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(6)), m),
            (std::vector<std::string>{"sigma8"}));
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(1)), m),
            (std::vector<std::string>{"sigma1"}));
  EXPECT_EQ(BranchTgds(forest, *forest.Find(T(2)), m),
            (std::vector<std::string>{"sigma2"}));
}

TEST_F(Example35Test, NaivePrintReproducesRouteR3) {
  RouteForest forest = ComputeAllRoutes(*scenario_.mapping, *scenario_.source,
                                        *scenario_.target, {T(7)});
  NaivePrintResult result = NaivePrint(&forest, {T(7)});
  EXPECT_FALSE(result.truncated);
  // Exactly one route for T7(a) in the base example — the paper's R3:
  // sigma2 sigma3 sigma4 sigma2 sigma3 sigma4 sigma1 sigma5 sigma8 sigma6.
  ASSERT_EQ(result.routes.size(), 1u);
  EXPECT_EQ(result.routes[0].TgdNames(*scenario_.mapping),
            "sigma2 -> sigma3 -> sigma4 -> sigma2 -> sigma3 -> sigma4 -> "
            "sigma1 -> sigma5 -> sigma8 -> sigma6");
  // R3 is valid for T7(a) but not minimal (it repeats steps).
  EXPECT_TRUE(result.routes[0].Validate(*scenario_.mapping, *scenario_.source,
                                        *scenario_.target, {T(7)}));
  EXPECT_FALSE(result.routes[0].IsMinimal(
      *scenario_.mapping, *scenario_.source, *scenario_.target, {T(7)}));
  // Its minimization is the paper's R1 (7 distinct steps:
  // sigma2, sigma3, sigma4, sigma1, sigma5, sigma8, sigma6).
  Route r1 = result.routes[0].Minimize(*scenario_.mapping, *scenario_.source,
                                       *scenario_.target, {T(7)});
  EXPECT_EQ(r1.size(), 7u);
}

TEST_F(Example35Test, LazyExpansionOnlyTouchesReachableNodes) {
  RouteForest forest(*scenario_.mapping, *scenario_.source, *scenario_.target,
                     {T(2)});
  forest.Expand(T(2));
  EXPECT_EQ(forest.NumExpandedNodes(), 1u);
  forest.ExpandAll();
  // T2 is witnessed by sigma2 alone; nothing else is reachable.
  EXPECT_EQ(forest.NumExpandedNodes(), 1u);
}

TEST_F(Example35Test, ForestToStringShowsSharedSubtrees) {
  RouteForest forest = ComputeAllRoutes(*scenario_.mapping, *scenario_.source,
                                        *scenario_.target, {T(7)});
  std::string str = forest.ToString();
  EXPECT_NE(str.find("T7(\"a\")"), std::string::npos);
  EXPECT_NE(str.find("[see above]"), std::string::npos);
  EXPECT_NE(str.find("[source]"), std::string::npos);
}

class Example35ExtendedTest : public ::testing::Test {
 protected:
  Example35ExtendedTest()
      : scenario_(ParseScenario(testing::Example35Text(true, 3))) {}

  FactRef T(int i) {
    return TargetFact(scenario_, "T" + std::to_string(i), {Value::Str("a")});
  }

  Scenario scenario_;
};

TEST_F(Example35ExtendedTest, DottedBranchesAppear) {
  RouteForest forest = ComputeAllRoutes(*scenario_.mapping, *scenario_.source,
                                        *scenario_.target, {T(7)});
  // T5 now has the sigma9 (s-t) branch in addition to sigma5.
  std::vector<std::string> t5;
  for (const RouteForest::Branch& b : forest.Find(T(5))->branches) {
    t5.push_back(scenario_.mapping->tgd(b.tgd).name());
  }
  ASSERT_EQ(t5.size(), 2u);
  EXPECT_EQ(t5[0], "sigma9");  // s-t tgds come first (step 2 before step 3)
  EXPECT_EQ(t5[1], "sigma5");
  // T3 gains sigma10 branches, one per T8 tuple (h differs in y).
  size_t sigma10_branches = 0;
  for (const RouteForest::Branch& b : forest.Find(T(3))->branches) {
    if (scenario_.mapping->tgd(b.tgd).name() == "sigma10") ++sigma10_branches;
  }
  EXPECT_EQ(sigma10_branches, 3u);
}

TEST_F(Example35ExtendedTest, RouteR2Appears) {
  RouteForest forest = ComputeAllRoutes(*scenario_.mapping, *scenario_.source,
                                        *scenario_.target, {T(7)});
  NaivePrintResult result = NaivePrint(&forest, {T(7)});
  EXPECT_FALSE(result.truncated);
  // The paper's R2 — sigma9, sigma7, sigma4, sigma8, sigma6 — must be among
  // the printed routes (exact sequence).
  bool found_r2 = false;
  for (const Route& route : result.routes) {
    if (route.TgdNames(*scenario_.mapping) ==
        "sigma9 -> sigma7 -> sigma4 -> sigma9 -> sigma8 -> sigma6") {
      found_r2 = true;
    }
  }
  // NaivePrint derives T6 via its own subtree, so R2 appears with sigma9
  // repeated (the concatenation semantics); check a normalized form instead:
  // some route minimizes to exactly {sigma9, sigma7, sigma4, sigma8, sigma6}.
  for (const Route& route : result.routes) {
    Route min = route.Minimize(*scenario_.mapping, *scenario_.source,
                               *scenario_.target, {T(7)});
    if (min.TgdNames(*scenario_.mapping) ==
        "sigma9 -> sigma7 -> sigma4 -> sigma8 -> sigma6") {
      found_r2 = true;
    }
  }
  EXPECT_TRUE(found_r2);
  // All printed routes are valid.
  for (const Route& route : result.routes) {
    EXPECT_TRUE(route.Validate(*scenario_.mapping, *scenario_.source,
                               *scenario_.target, {T(7)}));
  }
}

TEST(AllRoutesCreditCardTest, TwoWitnessesForT4) {
  Scenario s = testing::CreditCardScenario();
  FactRef t4 = TargetFact(s, "Accounts", {Value::Int(5539),
                                          Value::Str("40K"),
                                          Value::Int(153)});
  RouteForest forest =
      ComputeAllRoutes(*s.mapping, *s.source, *s.target, {t4});
  // Scenario 2 of the paper: t4 has exactly two m3 branches, the legitimate
  // (s4, s6) witness and the bogus (s3, s6) one revealing the missing join.
  const RouteForest::Node* node = forest.Find(t4);
  ASSERT_NE(node, nullptr);
  size_t m3_branches = 0;
  for (const RouteForest::Branch& b : node->branches) {
    if (s.mapping->tgd(b.tgd).name() == "m3") ++m3_branches;
  }
  EXPECT_EQ(m3_branches, 2u);
}

TEST(AllRoutesCreditCardTest, MultiFactSelection) {
  Scenario s = testing::CreditCardScenario();
  FactRef t2 = TargetFact(s, "Accounts", {Value::Null(1), Value::Str("2K"),
                                          Value::Int(234)});
  FactRef t5 = TargetFact(s, "Clients",
                          {Value::Int(434), Value::Str("Smith"),
                           Value::Str("Smith"), Value::Str("50K"),
                           Value::Null(2)});
  RouteForest forest =
      ComputeAllRoutes(*s.mapping, *s.source, *s.target, {t2, t5});
  NaivePrintResult result = NaivePrint(&forest, {t2, t5});
  ASSERT_FALSE(result.routes.empty());
  for (const Route& route : result.routes) {
    EXPECT_TRUE(route.Validate(*s.mapping, *s.source, *s.target, {t2, t5}));
  }
}

TEST(AllRoutesCreditCardTest, RootsMustBeTargetFacts) {
  Scenario s = testing::CreditCardScenario();
  EXPECT_THROW(ComputeAllRoutes(*s.mapping, *s.source, *s.target,
                                {FactRef{Side::kSource, 0, 0}}),
               SpiderError);
}

TEST(NaivePrintTest, TruncationCapsRoutes) {
  Scenario s = ParseScenario(testing::Example35Text(true, 5));
  FactRef t7 = TargetFact(s, "T7", {Value::Str("a")});
  RouteForest forest =
      ComputeAllRoutes(*s.mapping, *s.source, *s.target, {t7});
  NaivePrintOptions options;
  options.max_routes = 2;
  NaivePrintResult result = NaivePrint(&forest, {t7}, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.routes.size(), 2u);
}

TEST(NaivePrintTest, FactWithNoWitnessYieldsNoRoutes) {
  // A hand-written J containing a fact no tgd can witness.
  Scenario s = ParseScenario(R"(
    source schema { S(a); }
    target schema { T(a); U(a); }
    m: S(x) -> T(x);
    source instance { S(1); }
    target instance { T(1); U(5); }
  )");
  FactRef orphan = TargetFact(s, "U", {Value::Int(5)});
  RouteForest forest =
      ComputeAllRoutes(*s.mapping, *s.source, *s.target, {orphan});
  NaivePrintResult result = NaivePrint(&forest, {orphan});
  EXPECT_TRUE(result.routes.empty());
  EXPECT_FALSE(result.truncated);
}

}  // namespace
}  // namespace spider
