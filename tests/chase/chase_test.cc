#include "chase/chase.h"

#include <gtest/gtest.h>

#include "base/status.h"
#include "chase/homomorphism.h"
#include "chase/solution_check.h"
#include "mapping/parser.h"
#include "testing/fixtures.h"

namespace spider {
namespace {

TEST(ChaseTest, CopiesWithStTgd) {
  Scenario s = ParseScenario(R"(
    source schema { R(a, b); }
    target schema { T(a, b); }
    m: R(x, y) -> T(x, y);
    source instance { R(1, 2); R(3, 4); }
  )");
  ChaseStats stats = ChaseScenario(&s);
  EXPECT_EQ(stats.st_steps, 2u);
  EXPECT_EQ(s.target->TotalTuples(), 2u);
  EXPECT_TRUE(s.target->FindRow(0, Tuple({Value::Int(1), Value::Int(2)}))
                  .has_value());
}

TEST(ChaseTest, InventsLabeledNullsForExistentials) {
  Scenario s = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a, b); }
    m: R(x) -> exists Y . T(x, Y);
    source instance { R(1); }
  )");
  ChaseStats stats = ChaseScenario(&s);
  EXPECT_EQ(stats.nulls_created, 1u);
  const Tuple& t = s.target->tuple(0, 0);
  EXPECT_EQ(t.at(0), Value::Int(1));
  EXPECT_TRUE(t.at(1).is_null());
  EXPECT_EQ(s.max_null_id, 1);
}

TEST(ChaseTest, StandardChaseDoesNotFireSatisfiedTriggers) {
  // Both R rows map to the same T row; the second trigger is already
  // satisfied and must not fire.
  Scenario s = ParseScenario(R"(
    source schema { R(a, b); }
    target schema { T(a); }
    m: R(x, y) -> exists Z . T(Z);
    source instance { R(1, 2); R(3, 4); }
  )");
  ChaseStats stats = ChaseScenario(&s);
  EXPECT_EQ(stats.st_steps, 1u);
  EXPECT_EQ(s.target->TotalTuples(), 1u);
}

TEST(ChaseTest, TargetTgdsRunToFixpoint) {
  Scenario s = ParseScenario(R"(
    source schema { S(a); }
    target schema { T1(a); T2(a); T3(a); }
    m: S(x) -> T1(x);
    t1: T1(x) -> T2(x);
    t2: T2(x) -> T3(x);
    source instance { S(1); }
  )");
  ChaseScenario(&s);
  EXPECT_EQ(s.target->TotalTuples(), 3u);
}

TEST(ChaseTest, TransitiveClosure) {
  Scenario s = ParseScenario(R"(
    source schema { S(x, y); }
    target schema { T(x, y); }
    sigma1: S(x,y) -> T(x,y);
    sigma2: T(x,y) & T(y,z) -> T(x,z);
    source instance { S(1,2); S(2,3); S(3,4); }
  )");
  ChaseScenario(&s);
  // 1->2,2->3,3->4 plus 1->3,2->4,1->4.
  EXPECT_EQ(s.target->TotalTuples(), 6u);
}

TEST(ChaseTest, RecursiveTargetTgdIsReenumeratedToItsFixpoint) {
  // sigma2 reads the relation it writes, so every round that grows T must
  // enumerate it again; `copy` reads T too, and `edges` reads only E, which
  // stops growing after the s-t phase.
  Scenario s = ParseScenario(R"(
    source schema { S(x, y); }
    target schema { E(x, y); T(x, y); U(x, y); W(x, y); }
    sigma0: S(x,y) -> E(x,y);
    sigma1: S(x,y) -> T(x,y);
    sigma2: T(x,y) & T(y,z) -> T(x,z);
    copy: T(x,y) -> U(x,y);
    edges: E(x,y) -> W(x,y);
    source instance {
      S(1,2); S(2,3); S(3,4); S(4,5); S(5,6); S(6,7); S(7,8); S(8,9);
    }
  )");
  ChaseResult result = Chase(*s.mapping, *s.source);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  const Schema& target = s.mapping->target();
  // A path over 9 nodes closes to 9 * 8 / 2 = 36 pairs.
  EXPECT_EQ(result.target->NumTuples(target.Require("T")), 36u);
  EXPECT_EQ(result.target->NumTuples(target.Require("U")), 36u);
  EXPECT_EQ(result.target->NumTuples(target.Require("W")), 8u);
  EXPECT_GE(result.stats.rounds, 4u);
  // `edges` is enumerated once; every later round skips it.
  EXPECT_GE(result.stats.target_enumerations_skipped,
            result.stats.rounds - 1);
  std::string why;
  EXPECT_TRUE(IsSolution(*s.mapping, *s.source, *result.target, &why)) << why;
}

TEST(ChaseTest, EgdUnificationForcesReenumeration) {
  // Round 1 enumerates t while T(1, N) cannot join U(2). The egd then
  // rewrites N to 2 without changing how many tuples T or U hold, and the
  // next round must still find the new match T(1, 2) & U(2).
  Scenario s = ParseScenario(R"(
    source schema { R(a); P(a, b); Q(a); }
    target schema { T(a, b); U(a); V(a); W(a, b); }
    m1: R(x) -> exists Y . T(x, Y);
    m2: P(x, y) -> W(x, y);
    m3: Q(y) -> U(y);
    t: T(x, y) & U(y) -> V(x);
    e: T(x, y) & W(x, z) -> y = z;
    source instance { R(1); P(1, 2); Q(2); }
  )");
  ChaseResult result = Chase(*s.mapping, *s.source);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_EQ(result.stats.egd_steps, 1u);
  EXPECT_EQ(result.stats.target_steps, 1u);
  // Round 3 skips t: no egd step and no premise growth since round 2.
  EXPECT_EQ(result.stats.rounds, 3u);
  EXPECT_EQ(result.stats.target_enumerations_skipped, 1u);
  const Schema& target = s.mapping->target();
  EXPECT_TRUE(
      result.target->FindRow(target.Require("V"), Tuple({Value::Int(1)}))
          .has_value());
  std::string why;
  EXPECT_TRUE(IsSolution(*s.mapping, *s.source, *result.target, &why)) << why;
}

TEST(ChaseTest, EgdUnifiesNullWithConstant) {
  Scenario s = ParseScenario(R"(
    source schema { R(a, b); P(a, c); }
    target schema { T(a, b, c); }
    m1: R(x, y) -> exists C . T(x, y, C);
    m2: P(x, z) -> exists B . T(x, B, z);
    e: T(x, y, z) & T(x, y2, z2) -> y = y2;
    e2: T(x, y, z) & T(x, y2, z2) -> z = z2;
    source instance { R(1, "b"); P(1, "c"); }
  )");
  ChaseStats stats = ChaseScenario(&s);
  EXPECT_GE(stats.egd_steps, 2u);
  // The two T facts must have merged into T(1, "b", "c").
  EXPECT_EQ(s.target->TotalTuples(), 1u);
  EXPECT_EQ(s.target->tuple(0, 0),
            Tuple({Value::Int(1), Value::Str("b"), Value::Str("c")}));
}

TEST(ChaseTest, EgdFailureOnDistinctConstants) {
  Scenario s = ParseScenario(R"(
    source schema { R(a, b); }
    target schema { T(a, b); }
    m: R(x, y) -> T(x, y);
    e: T(x, y) & T(x, y2) -> y = y2;
    source instance { R(1, 10); R(1, 20); }
  )");
  ChaseResult result = Chase(*s.mapping, *s.source);
  EXPECT_EQ(result.outcome, ChaseOutcome::kEgdFailure);
  EXPECT_NE(result.failure_message.find("e"), std::string::npos);
  EXPECT_THROW(ChaseScenario(&s), SpiderError);
}

TEST(ChaseTest, EgdUnifiesTwoNullsDeterministically) {
  Scenario s = ParseScenario(R"(
    source schema { R(a); P(a); }
    target schema { T(a, b); }
    m1: R(x) -> exists B . T(x, B);
    m2: P(x) -> exists B . T(x, B);
    e: T(x, y) & T(x, y2) -> y = y2;
    source instance { R(1); P(1); }
  )");
  ChaseScenario(&s);
  EXPECT_EQ(s.target->TotalTuples(), 1u);
  EXPECT_TRUE(s.target->tuple(0, 0).at(1).is_null());
}

TEST(ChaseTest, StepLimitDetectsDivergence) {
  // T(x,y) -> exists Z . T(y,Z) diverges on any nonempty T.
  Scenario s = ParseScenario(R"(
    source schema { S(x, y); }
    target schema { T(x, y); }
    m: S(x, y) -> T(x, y);
    t: T(x, y) -> exists Z . T(y, Z);
    source instance { S(1, 2); }
  )");
  ChaseOptions options;
  options.max_steps = 1000;
  ChaseResult result = Chase(*s.mapping, *s.source, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kStepLimit);
}

TEST(ChaseTest, ProducesSolution) {
  Scenario s = testing::CreditCardScenario();
  // Chase I from scratch; the result must satisfy all dependencies.
  ChaseResult result = Chase(*s.mapping, *s.source);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  std::string why;
  EXPECT_TRUE(IsSolution(*s.mapping, *s.source, *result.target, &why)) << why;
}

TEST(ChaseTest, PaperTargetInstanceIsSolution) {
  // Figure 2's J is a solution for I (the paper's premise).
  Scenario s = testing::CreditCardScenario();
  std::string why;
  EXPECT_TRUE(IsSolution(*s.mapping, *s.source, *s.target, &why)) << why;
}

TEST(ChaseTest, ChaseResultIsUniversal) {
  // The chased instance maps homomorphically into the paper's J.
  Scenario s = testing::CreditCardScenario();
  ChaseResult result = Chase(*s.mapping, *s.source);
  ASSERT_EQ(result.outcome, ChaseOutcome::kSuccess);
  EXPECT_TRUE(FindHomomorphism(*result.target, *s.target).has_value());
}

TEST(ChaseTest, NullCounterContinuesFromScenario) {
  Scenario s = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a, b); U(a); }
    m: R(x) -> exists Y . T(x, Y);
    source instance { R(1); }
    target instance { U(#Z9); }
  )");
  int64_t declared = s.max_null_id;
  ChaseScenario(&s);
  const Tuple& t = s.target->tuple(0, 0);
  EXPECT_TRUE(t.at(1).is_null());
  EXPECT_GT(t.at(1).AsNull().id, 0);
  EXPECT_GT(s.max_null_id, declared);
}

TEST(ChaseTest, IsSolutionDetectsViolation) {
  Scenario s = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a); }
    m: R(x) -> T(x);
    source instance { R(1); }
    target instance { }
  )");
  std::string why;
  EXPECT_FALSE(IsSolution(*s.mapping, *s.source, *s.target, &why));
  EXPECT_NE(why.find("m"), std::string::npos);
}

TEST(ChaseTest, EmptySourceYieldsEmptySolution) {
  Scenario s = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a); }
    m: R(x) -> T(x);
    t: T(x) -> T(x);
  )");
  ChaseScenario(&s);
  EXPECT_EQ(s.target->TotalTuples(), 0u);
}

}  // namespace
}  // namespace spider
