// Pins the annotated chase's full output — every AnnotatedChaseLog field,
// the target in row order, next_null_id and any EgdFailure — to digests
// recorded from a known-good build, over curated fixtures (egd and
// egd-failure ones included) and 240 random scenarios with egds, at 1, 2
// and 8 threads. A change to how the annotated chase is driven may not move
// a single step, fact id, null id or row.
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapping/parser.h"
#include "provenance/annotated_chase.h"
#include "testing/digest.h"
#include "testing/fixtures.h"
#include "workload/random_scenario.h"
#include "workload/real_scenarios.h"

namespace spider {
namespace {

using testing::Digest;

constexpr int kThreadCounts[] = {1, 2, 8};

AnnotatedChaseResult ChaseAt(const Scenario& s, int threads) {
  ChaseOptions options;
  options.exec.num_threads = threads;
  return AnnotatedChase(*s.mapping, *s.source, options);
}

uint64_t DigestAnnotatedChase(const AnnotatedChaseResult& r) {
  Digest d;
  d.Add(static_cast<int64_t>(r.outcome));
  const AnnotatedChaseLog& log = r.log;
  d.Add(static_cast<int64_t>(log.NumFacts()));
  for (size_t f = 0; f < log.NumFacts(); ++f) {
    auto id = static_cast<AnnotatedChaseLog::ProvFactId>(f);
    d.Add(static_cast<int64_t>(log.relation(id)))
        .Add(log.tuple(id))
        .Add(static_cast<int64_t>(log.ProducerStep(id)))
        .Add(static_cast<int64_t>(log.MergedAway(id)))
        .Add(static_cast<int64_t>(log.Resolve(id)));
  }
  d.Add(static_cast<int64_t>(log.tgd_steps().size()));
  for (const AnnotatedChaseLog::TgdStep& step : log.tgd_steps()) {
    d.Add(static_cast<int64_t>(step.tgd))
        .Add(static_cast<int64_t>(step.seq))
        .Add(step.h);
    d.Add(static_cast<int64_t>(step.source_lhs.size()));
    for (const FactRef& ref : step.source_lhs) {
      d.Add(static_cast<int64_t>(ref.side))
          .Add(static_cast<int64_t>(ref.relation))
          .Add(static_cast<int64_t>(ref.row));
    }
    d.Add(static_cast<int64_t>(step.target_lhs.size()));
    for (auto id : step.target_lhs) d.Add(static_cast<int64_t>(id));
    d.Add(static_cast<int64_t>(step.rhs.size()));
    for (auto id : step.rhs) d.Add(static_cast<int64_t>(id));
  }
  d.Add(static_cast<int64_t>(log.egd_steps().size()));
  for (const AnnotatedChaseLog::EgdStep& step : log.egd_steps()) {
    d.Add(static_cast<int64_t>(step.egd))
        .Add(static_cast<int64_t>(step.seq))
        .Add(step.h)
        .Add(step.victim.id)
        .Add(step.replacement);
    d.Add(static_cast<int64_t>(step.lhs.size()));
    for (auto id : step.lhs) d.Add(static_cast<int64_t>(id));
    d.Add(static_cast<int64_t>(step.rewritten.size()));
    for (auto id : step.rewritten) d.Add(static_cast<int64_t>(id));
  }
  d.Add(static_cast<int64_t>(log.events().size()));
  for (const AnnotatedChaseLog::Event& e : log.events()) {
    d.Add(static_cast<int64_t>(e.kind)).Add(static_cast<int64_t>(e.index));
  }
  d.Add(*r.target).Add(r.next_null_id);
  d.Add(static_cast<int64_t>(r.failure.has_value()));
  if (r.failure.has_value()) {
    const EgdFailure& f = *r.failure;
    d.Add(static_cast<int64_t>(f.egd)).Add(f.h).Add(f.left).Add(f.right);
    d.Add(static_cast<int64_t>(f.lhs.size()));
    for (auto id : f.lhs) d.Add(static_cast<int64_t>(id));
  }
  return d.value();
}

struct Fixture {
  std::string name;
  Scenario scenario;
};

std::vector<Fixture> CuratedFixtures() {
  std::vector<Fixture> out;
  out.push_back({"credit_card", testing::CreditCardScenario()});
  out.push_back({"example35", ParseScenario(testing::Example35Text(false))});
  out.push_back(
      {"example35_extended", ParseScenario(testing::Example35Text(true, 3))});
  out.push_back(
      {"transitive_closure", ParseScenario(testing::TransitiveClosureText())});
  out.push_back({"egd_merge", ParseScenario(R"(
    source schema { R(a, b); P(a, c); }
    target schema { T(a, b, c); }
    m1: R(x, y) -> exists C . T(x, y, C);
    m2: P(x, z) -> exists B . T(x, B, z);
    e1: T(x, y, z) & T(x, y2, z2) -> y = y2;
    e2: T(x, y, z) & T(x, y2, z2) -> z = z2;
    source instance { R(1, "b"); P(1, "c"); R(2, "d"); P(2, "e"); P(3, "f"); }
  )")});
  out.push_back({"egd_failure", ParseScenario(R"(
    source schema { R(card, limit, owner); }
    target schema { Accounts(card, limit, owner); }
    m: R(c, l, o) -> Accounts(c, l, o);
    key: Accounts(c, l, o) & Accounts(c2, l2, o) -> l = l2;
    source instance { R(10, "2K", 1); R(11, "9K", 1); }
  )")});
  out.push_back({"egd_failure_after_merge", ParseScenario(R"(
    source schema { R(a); P(a, b); Q(a, b); }
    target schema { T(a, b); U(a, b); }
    m1: R(x) -> exists Y . T(x, Y) & U(x, Y);
    m2: P(x, y) -> T(x, y);
    m3: Q(x, y) -> U(x, y);
    e1: T(x, y) & T(x, y2) -> y = y2;
    e2: U(x, y) & U(x, y2) -> y = y2;
    source instance { R(1); P(1, 5); Q(1, 6); }
  )")});
  RealScenarioOptions real;
  real.units = 2;
  out.push_back({"dblp", BuildDblpScenario(real)});
  out.push_back({"mondial", BuildMondialScenario(real)});
  return out;
}

/// Digests recorded from a known-good build, in CuratedFixtures() order.
constexpr uint64_t kCuratedDigests[] = {
    0x59af6732c901b807ULL, 0x42e6b0069fc57160ULL, 0xd7933b4497d89abcULL,
    0x272704f9686d93e4ULL, 0xe3e5f5d4d7315078ULL, 0x958d0a8fb7195e60ULL,
    0x7b20ded4700ef253ULL, 0x1c03d68310bfd3e6ULL, 0x6093b88c383ff86eULL,
};

constexpr int kRandomSeeds = 240;
constexpr int kRandomChunk = 40;

/// Chained digests of kRandomChunk consecutive random seeds each, recorded
/// from the same build as kCuratedDigests.
constexpr uint64_t kRandomDigests[kRandomSeeds / kRandomChunk] = {
    0xf41c06ecc2cf5bedULL, 0xd548af3114cd6364ULL, 0x5a3e624edb0710ddULL,
    0x8a1c85610eec64e8ULL, 0x26313be735c37a27ULL, 0x181f321930d43d97ULL,
};

Scenario RandomEgdScenario(int seed) {
  RandomScenarioOptions opts;
  opts.seed = static_cast<uint64_t>(seed);
  opts.egds = 1 + seed % 2;
  opts.rows_per_relation = 8;
  opts.fanout = 3;
  return BuildRandomScenario(opts);
}

TEST(ChaseLogPinTest, CuratedFixturesMatchRecordedDigests) {
  std::vector<Fixture> fixtures = CuratedFixtures();
  ASSERT_EQ(fixtures.size(), std::size(kCuratedDigests));
  for (int threads : kThreadCounts) {
    for (size_t i = 0; i < fixtures.size(); ++i) {
      uint64_t got =
          DigestAnnotatedChase(ChaseAt(fixtures[i].scenario, threads));
      EXPECT_EQ(got, kCuratedDigests[i])
          << fixtures[i].name << " at " << threads << " threads: log digest "
          << Digest::Hex(got) << ", recorded "
          << Digest::Hex(kCuratedDigests[i]);
    }
  }
}

TEST(ChaseLogPinTest, RandomEgdScenariosMatchRecordedDigests) {
  size_t outcomes[3] = {0, 0, 0};
  size_t egd_steps = 0;
  for (int threads : kThreadCounts) {
    for (int chunk = 0; chunk < kRandomSeeds / kRandomChunk; ++chunk) {
      Digest chained;
      for (int i = 0; i < kRandomChunk; ++i) {
        Scenario s = RandomEgdScenario(1 + chunk * kRandomChunk + i);
        AnnotatedChaseResult r = ChaseAt(s, threads);
        ++outcomes[static_cast<int>(r.outcome)];
        egd_steps += r.log.egd_steps().size();
        chained.Add(static_cast<int64_t>(DigestAnnotatedChase(r)));
      }
      EXPECT_EQ(chained.value(), kRandomDigests[chunk])
          << "seeds " << 1 + chunk * kRandomChunk << ".."
          << (chunk + 1) * kRandomChunk << " at " << threads
          << " threads: digest " << Digest::Hex(chained.value())
          << ", recorded " << Digest::Hex(kRandomDigests[chunk]);
    }
  }
  // The set must keep exercising both egd unification and egd failure.
  EXPECT_GT(outcomes[static_cast<int>(AnnotatedChaseOutcome::kSuccess)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(AnnotatedChaseOutcome::kEgdFailure)],
            0u);
  EXPECT_GT(egd_steps, 0u);
}

}  // namespace
}  // namespace spider
