#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapping/parser.h"
#include "testing/fixtures.h"
#include "workload/random_scenario.h"
#include "workload/real_scenarios.h"

namespace spider {
namespace {

bool HasSeverity(const AnalysisReport& report, Severity severity) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == severity) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The three §2.1 debugging scenarios, each reduced to the tgds that seed its
// bug, written with explicit newlines so the asserted spans are exact.
// ---------------------------------------------------------------------------

// Scenario 1: m1 drops `loc` and copies `m` into both name and maidenName.
TEST(AnalyzerTest, Scenario1DroppedVariableAndRepeatWithSpans) {
  Scenario s = ParseScenario(
      "source schema { Cards(cardNo, limit, ssn, name, maidenName, salary, "
      "location); }\n"                                              // line 1
      "target schema {\n"                                           // line 2
      "  Accounts(accNo, limit, accHolder);\n"                      // line 3
      "  Clients(ssn, name, maidenName, income, address);\n"        // line 4
      "}\n"                                                         // line 5
      "m1: Cards(cn,l,s,n,m,sal,loc) ->\n"                          // line 6
      "      exists A . Accounts(cn,l,s) & Clients(s,m,m,sal,A);\n");

  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> dropped =
      report.Matching("shape", "dropped-variable");
  bool found_loc = false;
  for (const Diagnostic& d : dropped) {
    if (d.message.find("'loc'") == std::string::npos) continue;
    found_loc = true;
    // Anchored to the LHS atom that binds loc: Cards(...) on line 6.
    EXPECT_EQ(d.span, (SourceSpan{6, 5, 6, 30}));
    EXPECT_EQ(s.mapping->tgd(d.tgd).name(), "m1");
  }
  EXPECT_TRUE(found_loc);

  std::vector<Diagnostic> repeated =
      report.Matching("shape", "repeated-variable");
  ASSERT_EQ(repeated.size(), 1u);
  EXPECT_NE(repeated[0].message.find("'m'"), std::string::npos);
  // Anchored to the RHS atom with the duplicate: Clients(...) on line 7.
  EXPECT_EQ(repeated[0].span, (SourceSpan{7, 37, 7, 57}));

  // Repeating an EXISTENTIAL variable asserts equality of two unknowns —
  // unusual, but not Scenario 1's bug: only universal repeats are flagged.
  Scenario existential = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a, b, c); }
    m: R(x) -> exists Y . T(x, Y, Y);
  )");
  EXPECT_TRUE(AnalyzeMapping(*existential.mapping)
                  .Matching("shape", "repeated-variable")
                  .empty());
}

// Scenario 2: m3 joins FBAccounts with CreditCards without a join condition.
TEST(AnalyzerTest, Scenario2MissingJoinWithSpan) {
  Scenario s = ParseScenario(
      "source schema {\n"                                           // line 1
      "  FBAccounts(bankNo, ssn, name, income, address);\n"         // line 2
      "  CreditCards(cardNo, creditLimit, custSSN);\n"              // line 3
      "}\n"                                                         // line 4
      "target schema {\n"                                           // line 5
      "  Accounts(accNo, limit, accHolder);\n"                      // line 6
      "  Clients(ssn, name, maidenName, income, address);\n"        // line 7
      "}\n"                                                         // line 8
      "m3: FBAccounts(bn,s,n,i,a) & CreditCards(cn,cl,cs) ->\n"     // line 9
      "      exists M . Accounts(cn,cl,cs) & Clients(cs,n,M,i,a);\n");

  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> cartesian =
      report.Matching("shape", "disconnected-lhs");
  ASSERT_EQ(cartesian.size(), 1u);
  EXPECT_EQ(s.mapping->tgd(cartesian[0].tgd).name(), "m3");
  // The whole dependency, m3's name through the closing ';'.
  EXPECT_EQ(cartesian[0].span, (SourceSpan{9, 1, 10, 59}));

  // Target tgds are checked too.
  Scenario target_tgd = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a); U(a); V(a); }
    m: R(x) -> T(x);
    t: T(x) & U(y) -> V(x);
  )");
  cartesian = AnalyzeMapping(*target_tgd.mapping)
                  .Matching("shape", "disconnected-lhs");
  ASSERT_EQ(cartesian.size(), 1u);
  EXPECT_EQ(target_tgd.mapping->tgd(cartesian[0].tgd).name(), "t");
}

// Scenario 3: Accounts.accNo is only ever filled by m5's existential.
TEST(AnalyzerTest, Scenario3NullOnlyPositionWithSpan) {
  Scenario s = ParseScenario(
      "source schema { SupplementaryCards(accNo, ssn); }\n"         // line 1
      "target schema { Clients(ssn); Accounts(accNo, holder); }\n"  // line 2
      "m2: SupplementaryCards(an, s) -> Clients(s);\n"              // line 3
      "m5: Clients(s) -> exists N . Accounts(N, s);\n");            // line 4

  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> null_only =
      report.Matching("coverage", "null-only-position");
  ASSERT_EQ(null_only.size(), 1u);
  // The seed linter's exact message, now with a position: the first RHS
  // atom writing Accounts, in m5 on line 4.
  EXPECT_EQ(null_only[0].message,
            "target attribute Accounts.accNo is only ever filled with "
            "invented nulls (no tgd supplies a value)");
  EXPECT_EQ(null_only[0].span, (SourceSpan{4, 30, 4, 44}));
  EXPECT_EQ(s.mapping->tgd(null_only[0].tgd).name(), "m5");

  // A position one tgd fills with an existential is not null-only when
  // another tgd grounds it.
  Scenario grounded = ParseScenario(R"(
    source schema { R(a, b); }
    target schema { T(a, b); }
    m1: R(x, y) -> exists Z . T(x, Z);
    m2: R(x, y) -> T(x, y);
  )");
  EXPECT_TRUE(AnalyzeMapping(*grounded.mapping)
                  .Matching("coverage", "null-only-position")
                  .empty());
}

TEST(AnalyzerTest, TransitiveNullOnlyUsesTransitiveWording) {
  Scenario s = ParseScenario(R"(
    source schema { S(a); }
    target schema { T1(a); T2(a); }
    m: S(x) -> exists N . T1(N);
    t: T1(x) -> T2(x);
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> null_only =
      report.Matching("coverage", "null-only-position");
  ASSERT_EQ(null_only.size(), 2u);  // T1.a directly, T2.a transitively.
  bool transitive = false;
  for (const Diagnostic& d : null_only) {
    if (d.message.find("T2.a") != std::string::npos) {
      EXPECT_NE(d.message.find("descends from an existential"),
                std::string::npos);
      transitive = true;
    }
  }
  EXPECT_TRUE(transitive);
}

TEST(AnalyzerTest, CleanMappingHasNoDiagnostics) {
  Scenario s = ParseScenario(R"(
    source schema { Emp(id, name); }
    target schema { Person(id, name); }
    m: Emp(x, n) -> Person(x, n);
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  EXPECT_TRUE(report.diagnostics.empty())
      << RenderDiagnostics(report.diagnostics);

  // The same mapping plus a source relation no s-t tgd reads and a target
  // relation no tgd writes: exactly those two findings.
  Scenario unused = ParseScenario(R"(
    source schema { Emp(id, name); Dead(a); }
    target schema { Person(id, name); Empty(a); }
    m: Emp(x, n) -> Person(x, n);
  )");
  report = AnalyzeMapping(*unused.mapping);
  ASSERT_EQ(report.diagnostics.size(), 2u)
      << RenderDiagnostics(report.diagnostics);
  std::vector<Diagnostic> dead =
      report.Matching("shape", "unused-source-relation");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_NE(dead[0].message.find("'Dead'"), std::string::npos);
  std::vector<Diagnostic> empty =
      report.Matching("shape", "unpopulated-target-relation");
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_NE(empty[0].message.find("'Empty'"), std::string::npos);
}

TEST(AnalyzerTest, SubsumedTgdReported) {
  Scenario s = ParseScenario(R"(
    source schema { S(a, b); }
    target schema { T(a, b); }
    m1: S(x, y) -> T(x, y);
    m2: S(x, y) -> exists Z . T(x, Z);
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> subsumed =
      report.Matching("subsumption", "subsumed-tgd");
  ASSERT_EQ(subsumed.size(), 1u);
  EXPECT_EQ(s.mapping->tgd(subsumed[0].tgd).name(), "m2");
  EXPECT_EQ(subsumed[0].span, s.mapping->tgd(subsumed[0].tgd).span());
  EXPECT_GE(report.chases_run, 2u);
}

TEST(AnalyzerTest, TerminationWitnessNamesCycle) {
  Scenario s = ParseScenario(R"(
    source schema { S(a); }
    target schema { A(x); B(x); }
    m: S(x) -> A(x);
    t1: A(x) -> exists Y . B(Y);
    t2: B(x) -> exists Z . A(Z);
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> cycles =
      report.Matching("termination", "not-weakly-acyclic");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].message.find("~(t1)~>"), std::string::npos);
  EXPECT_NE(cycles[0].message.find("~(t2)~>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Egd interaction.
// ---------------------------------------------------------------------------

TEST(AnalyzerTest, LatentKeyViolationIsAnError) {
  // Every firing of m writes two T facts that agree on the key but carry
  // two different generic values: the egd fails on all non-degenerate data.
  Scenario s = ParseScenario(R"(
    source schema { R(a, b, c); }
    target schema { T(a, b); }
    m: R(x, y, z) -> T(x, y) & T(x, z);
    e: T(a, b) & T(a, c) -> b = c;
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> violations =
      report.Matching("egd", "latent-key-violation");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].severity, Severity::kError);
  EXPECT_EQ(violations[0].egd, 0);
  EXPECT_EQ(s.mapping->tgd(violations[0].tgd).name(), "m");
}

TEST(AnalyzerTest, EgdOnUnwrittenRelationNeverFires) {
  Scenario s = ParseScenario(R"(
    source schema { S(a); }
    target schema { T(a); Dead(a, b); }
    m: S(x) -> T(x);
    e: Dead(k, v) & Dead(k, w) -> v = w;
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> dead = report.Matching("egd", "egd-never-fires");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_NE(dead[0].message.find("no tgd writes Dead"), std::string::npos);
  EXPECT_TRUE(report.Matching("egd", "latent-key-violation").empty());
}

TEST(AnalyzerTest, GuaranteedNullUnificationIsANote) {
  Scenario s = ParseScenario(R"(
    source schema { R(a); }
    target schema { T(a, b); }
    m: R(x) -> exists N, M . T(x, N) & T(x, M);
    e: T(a, b) & T(a, c) -> b = c;
  )");
  AnalysisReport report = AnalyzeMapping(*s.mapping);
  std::vector<Diagnostic> notes = report.Matching("egd", "egd-always-fires");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].severity, Severity::kNote);
  EXPECT_TRUE(report.Matching("egd", "latent-key-violation").empty());
}

// ---------------------------------------------------------------------------
// Bundled workloads: golden structure + determinism.
// ---------------------------------------------------------------------------

TEST(AnalyzerTest, CreditCardScenarioGolden) {
  Scenario s = testing::CreditCardScenario();
  AnalysisReport report = AnalyzeMapping(*s.mapping);

  // The full paper mapping: m3's cartesian product, m1's duplicate 'm',
  // eleven projections, five dead source attributes, and the m4/m5
  // existential cycle. No null-only position (accNo is fed by m1 and m3),
  // no redundant tgd, and m6 interacts with no tgd on generic data.
  EXPECT_EQ(report.Matching("shape", "disconnected-lhs").size(), 1u);
  EXPECT_EQ(report.Matching("shape", "repeated-variable").size(), 1u);
  EXPECT_EQ(report.Matching("shape", "dropped-variable").size(), 11u);
  EXPECT_EQ(report.Matching("coverage", "dead-source-position").size(), 5u);
  EXPECT_EQ(report.Matching("coverage", "null-only-position").size(), 0u);
  EXPECT_EQ(report.Matching("termination").size(), 1u);
  EXPECT_EQ(report.Matching("subsumption").size(), 0u);
  EXPECT_EQ(report.Matching("egd").size(), 0u);
  EXPECT_FALSE(HasSeverity(report, Severity::kError));

  // m6 is statically live, so the egd pass chased every tgd.
  EXPECT_EQ(report.chases_run, s.mapping->NumTgds() * 2);

  // Byte-identical on re-analysis.
  AnalysisReport again = AnalyzeMapping(*s.mapping);
  EXPECT_EQ(DiagnosticsToJson(report.diagnostics),
            DiagnosticsToJson(again.diagnostics));
}

TEST(AnalyzerTest, RealScenariosAnalyzeCleanlyAndDeterministically) {
  RealScenarioOptions options;
  options.units = 2;
  Scenario dblp = BuildDblpScenario(options);
  Scenario mondial = BuildMondialScenario(options);
  for (const Scenario* scenario : {&dblp, &mondial}) {
    AnalysisReport report = AnalyzeMapping(*scenario->mapping);
    // Synthetic-but-faithful mappings: no latent key violations.
    EXPECT_FALSE(HasSeverity(report, Severity::kError))
        << RenderDiagnostics(report.diagnostics);
    AnalysisReport again = AnalyzeMapping(*scenario->mapping);
    EXPECT_EQ(DiagnosticsToJson(report.diagnostics),
              DiagnosticsToJson(again.diagnostics));
  }
}

TEST(AnalyzerTest, RandomScenarioFuzzNeverThrowsAndIsDeterministic) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    RandomScenarioOptions options;
    options.seed = seed;
    options.st_tgds = 3 + static_cast<int>(seed % 3);
    options.target_tgds = static_cast<int>(seed % 4);
    options.egds = static_cast<int>(seed % 3);
    Scenario scenario = BuildRandomScenario(options);

    AnalysisOptions analysis;
    analysis.chase_max_steps = 2'000;
    AnalysisReport first = AnalyzeMapping(*scenario.mapping, analysis);
    AnalysisReport second = AnalyzeMapping(*scenario.mapping, analysis);
    EXPECT_EQ(DiagnosticsToJson(first.diagnostics),
              DiagnosticsToJson(second.diagnostics))
        << "seed " << seed;
    EXPECT_EQ(first.chases_run, second.chases_run) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spider
