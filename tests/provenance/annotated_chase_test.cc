#include "provenance/annotated_chase.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/solution_check.h"
#include "mapping/parser.h"
#include "testing/fixtures.h"

namespace spider {
namespace {

TEST(AnnotatedChaseTest, AgreesWithPlainChase) {
  Scenario s = testing::CreditCardScenario();
  ChaseResult plain = Chase(*s.mapping, *s.source);
  AnnotatedChaseResult annotated = AnnotatedChase(*s.mapping, *s.source);
  ASSERT_EQ(annotated.outcome, AnnotatedChaseOutcome::kSuccess);
  // The very same instance: same rows in the same order, same null ids.
  ASSERT_EQ(plain.target->NumRelations(), annotated.target->NumRelations());
  for (size_t r = 0; r < plain.target->NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    EXPECT_EQ(plain.target->tuples(rel), annotated.target->tuples(rel))
        << plain.target->schema().relation(rel).name();
  }
  EXPECT_EQ(plain.next_null_id, annotated.next_null_id);
}

TEST(AnnotatedChaseTest, RecordsProducerForEveryFact) {
  Scenario s = ParseScenario(testing::TransitiveClosureText());
  AnnotatedChaseResult result = AnnotatedChase(*s.mapping, *s.source);
  ASSERT_EQ(result.outcome, AnnotatedChaseOutcome::kSuccess);
  const AnnotatedChaseLog& log = result.log;
  EXPECT_EQ(log.NumFacts(), 3u);  // T(1,2), T(2,3), T(1,3)
  for (size_t f = 0; f < log.NumFacts(); ++f) {
    size_t producer = log.ProducerStep(static_cast<int32_t>(f));
    ASSERT_LT(producer, log.tgd_steps().size());
    // The producer's RHS contains the fact.
    const auto& rhs = log.tgd_steps()[producer].rhs;
    EXPECT_NE(std::find(rhs.begin(), rhs.end(), static_cast<int32_t>(f)),
              rhs.end());
  }
}

TEST(AnnotatedChaseTest, LiveLogFactsAreTheTarget) {
  Scenario s = ParseScenario(testing::Example35Text(false));
  AnnotatedChaseResult result = AnnotatedChase(*s.mapping, *s.source);
  size_t live = 0;
  for (size_t f = 0; f < result.log.NumFacts(); ++f) {
    auto id = static_cast<AnnotatedChaseLog::ProvFactId>(f);
    if (result.log.MergedAway(id)) continue;
    ++live;
    EXPECT_TRUE(result.target->FindRow(result.log.relation(id),
                                       result.log.tuple(id))
                    .has_value());
  }
  EXPECT_EQ(live, result.target->TotalTuples());
}

TEST(AnnotatedChaseTest, EgdStepsRecorded) {
  Scenario s = ParseScenario(R"(
    source schema { R(a, b); P(a, c); }
    target schema { T(a, b, c); }
    m1: R(x, y) -> exists C . T(x, y, C);
    m2: P(x, z) -> exists B . T(x, B, z);
    e1: T(x, y, z) & T(x, y2, z2) -> y = y2;
    e2: T(x, y, z) & T(x, y2, z2) -> z = z2;
    source instance { R(1, "b"); P(1, "c"); }
  )");
  AnnotatedChaseResult result = AnnotatedChase(*s.mapping, *s.source);
  ASSERT_EQ(result.outcome, AnnotatedChaseOutcome::kSuccess);
  EXPECT_EQ(result.target->TotalTuples(), 1u);
  EXPECT_GE(result.log.egd_steps().size(), 2u);
  // One of the two facts was merged away; exactly one live fact remains.
  size_t live = 0;
  for (size_t f = 0; f < result.log.NumFacts(); ++f) {
    if (result.log.Find(0, result.log.tuple(static_cast<int32_t>(f)))
            .has_value()) {
      ++live;
    }
  }
  EXPECT_GE(result.log.NumFacts(), 2u);
  EXPECT_EQ(result.target->NumTuples(0), 1u);
  // Every egd step records the facts it rewrote.
  for (const auto& step : result.log.egd_steps()) {
    EXPECT_FALSE(step.rewritten.empty());
    EXPECT_FALSE(step.lhs.empty());
  }
}

TEST(AnnotatedChaseTest, EgdFailureDetected) {
  Scenario s = ParseScenario(R"(
    source schema { R(a, b); }
    target schema { T(a, b); }
    m: R(x, y) -> T(x, y);
    e: T(x, y) & T(x, y2) -> y = y2;
    source instance { R(1, 10); R(1, 20); }
  )");
  AnnotatedChaseResult result = AnnotatedChase(*s.mapping, *s.source);
  EXPECT_EQ(result.outcome, AnnotatedChaseOutcome::kEgdFailure);
}

TEST(AnnotatedChaseTest, FindResolvesFinalTuples) {
  Scenario s = ParseScenario(testing::TransitiveClosureText());
  AnnotatedChaseResult result = AnnotatedChase(*s.mapping, *s.source);
  auto id = result.log.Find(0, Tuple({Value::Int(1), Value::Int(3)}));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(result.log.tuple(*id), Tuple({Value::Int(1), Value::Int(3)}));
  EXPECT_FALSE(
      result.log.Find(0, Tuple({Value::Int(9), Value::Int(9)})).has_value());
}

TEST(AnnotatedChaseTest, ResultIsSolution) {
  Scenario s = testing::CreditCardScenario();
  AnnotatedChaseResult result = AnnotatedChase(*s.mapping, *s.source);
  std::string why;
  EXPECT_TRUE(IsSolution(*s.mapping, *s.source, *result.target, &why)) << why;
}

}  // namespace
}  // namespace spider
