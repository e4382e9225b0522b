// Differential fuzz suite for the incremental subsystem: 200+ random edit
// scripts over workload/random_scenario. Every batch is applied through
// three IncrementalChasers (1, 2 and 8 exec threads) and one DebugSession;
// after each batch the maintained targets must be byte-identical across
// thread counts and homomorphically equivalent to the from-scratch chase of
// the edited source. Cached routes that survive invalidation are validated
// and replayed through the RoutePlayer. Each chaser's per-batch outputs are
// also digested and pinned to values recorded from a known-good build, so a
// change to how the maintainer builds its derivation graph cannot silently
// alter a DRed or re-fire result.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/status.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "debugger/debug_session.h"
#include "incremental/delta_chase.h"
#include "routes/fact_util.h"
#include "testing/digest.h"
#include "workload/random_scenario.h"
#include "workload/rng.h"

namespace spider {
namespace {

constexpr int kScriptsPerSeed = 3;
constexpr int kBatchesPerScript = 3;

/// Byte-identical instance comparison (relation by relation, row order
/// included — determinism is exact, not up to isomorphism).
void ExpectIdentical(const Instance& a, const Instance& b,
                     const std::string& where) {
  ASSERT_EQ(a.NumRelations(), b.NumRelations()) << where;
  for (size_t r = 0; r < a.NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    EXPECT_EQ(a.tuples(rel), b.tuples(rel))
        << where << " relation " << a.schema().relation(rel).name();
  }
}

/// Order-insensitive instance comparison: same tuples per relation, any row
/// order. Used against the test's `predicted` source, which reaches the
/// same content through per-tuple Erase calls while the chaser batches its
/// deletions — EraseRows leaves remaining-row order unspecified, so the two
/// may legitimately disagree on order but never on content.
void ExpectSameContent(const Instance& a, const Instance& b,
                       const std::string& where) {
  ASSERT_EQ(a.NumRelations(), b.NumRelations()) << where;
  for (size_t r = 0; r < a.NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    std::vector<Tuple> lhs = a.tuples(rel);
    std::vector<Tuple> rhs = b.tuples(rel);
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    EXPECT_EQ(lhs, rhs)
        << where << " relation " << a.schema().relation(rel).name();
  }
}

struct BatchOps {
  SourceDelta delta;
  /// The source as it will look after the batch (for the oracle chase).
  Instance predicted;

  explicit BatchOps(const Instance& current) : predicted(current) {}
};

/// Draws a random batch: up to 2 deletions of existing tuples, up to 3
/// insertions over the generator's value domain.
BatchOps DrawBatch(Rng* rng, const Schema& schema, const Instance& source,
                   int fanout) {
  BatchOps batch(source);
  const int num_rels = static_cast<int>(source.NumRelations());
  int deletes = static_cast<int>(rng->Below(3));  // 0..2
  for (int d = 0; d < deletes; ++d) {
    RelationId rel = static_cast<RelationId>(rng->Below(num_rels));
    if (source.NumTuples(rel) == 0) continue;
    Tuple victim = source.tuple(
        rel, static_cast<int32_t>(rng->Below(source.NumTuples(rel))));
    batch.delta.Delete(schema.relation(rel).name(), victim);
    batch.predicted.Erase(rel, victim);
  }
  int inserts = 1 + static_cast<int>(rng->Below(3));  // 1..3
  for (int i = 0; i < inserts; ++i) {
    RelationId rel = static_cast<RelationId>(rng->Below(num_rels));
    std::vector<Value> values;
    for (size_t c = 0; c < schema.relation(rel).arity(); ++c) {
      values.push_back(
          Value::Int(static_cast<int64_t>(rng->Below(fanout))));
    }
    Tuple tuple(std::move(values));
    batch.delta.Insert(schema.relation(rel).name(), tuple);
    batch.predicted.Insert(rel, std::move(tuple));
  }
  return batch;
}

/// Folds one batch's observable outcome into a chaser's script digest: the
/// source and target in row order, the next null id and the batch's counts.
void DigestBatch(const Instance& source, const Instance& target,
                 const IncrementalChaser& chaser, const ApplyDeltaResult& r,
                 testing::Digest* d) {
  d->Add(source).Add(target).Add(chaser.next_null_id());
  d->Add(static_cast<int64_t>(r.full_rechase))
      .Add(static_cast<int64_t>(r.source_inserted))
      .Add(static_cast<int64_t>(r.source_deleted))
      .Add(static_cast<int64_t>(r.target_added))
      .Add(static_cast<int64_t>(r.target_removed))
      .Add(static_cast<int64_t>(r.target_rewritten));
}

/// Runs one edit script; returns false when the seed's initial chase fails
/// (egd with no solution — nothing to maintain). `digests` receives one
/// script digest per chaser (1, 2 and 8 threads).
bool RunScript(uint64_t seed, int script, std::vector<uint64_t>* digests) {
  RandomScenarioOptions opts;
  opts.seed = seed * 1000 + static_cast<uint64_t>(script);
  opts.rows_per_relation = 6;
  opts.fanout = 3;
  opts.egds = script % 2;  // half the scripts exercise egd entanglement
  Scenario scenario = BuildRandomScenario(opts);
  if (Chase(*scenario.mapping, *scenario.source).outcome !=
      ChaseOutcome::kSuccess) {
    return false;
  }

  // Three chasers over independent copies of the instances, one per thread
  // count; plus a DebugSession (route cache) over its own scenario copy.
  const int kThreads[] = {1, 2, 8};
  std::vector<Instance> sources;
  std::vector<Instance> targets;
  std::vector<std::unique_ptr<IncrementalChaser>> chasers;
  // Populate the instance vectors fully before handing out pointers.
  for (size_t i = 0; i < std::size(kThreads); ++i) {
    sources.push_back(*scenario.source);
    targets.emplace_back(&scenario.mapping->target());
  }
  for (size_t i = 0; i < std::size(kThreads); ++i) {
    IncrementalOptions inc;
    inc.exec.num_threads = kThreads[i];
    chasers.push_back(std::make_unique<IncrementalChaser>(
        scenario.mapping.get(), &sources[i], &targets[i], inc));
  }
  DebugSession session(BuildRandomScenario(opts));
  std::vector<testing::Digest> script_digests(chasers.size());
  for (size_t i = 0; i < chasers.size(); ++i) {
    DigestBatch(sources[i], targets[i], *chasers[i], ApplyDeltaResult{},
                &script_digests[i]);
  }
  auto finish = [&] {
    for (const testing::Digest& d : script_digests) {
      digests->push_back(d.value());
    }
  };

  Rng rng(opts.seed ^ 0xfeedULL);
  for (int b = 0; b < kBatchesPerScript; ++b) {
    const std::string where = "seed " + std::to_string(opts.seed) +
                              " batch " + std::to_string(b);

    // Probe up to two routes so the cache has entries the batch can evict
    // or preserve.
    std::vector<std::string> probed;
    for (int p = 0; p < 2; ++p) {
      const Instance& t = *session.scenario().target;
      if (t.TotalTuples() == 0) break;
      RelationId rel =
          static_cast<RelationId>(rng.Below(t.NumRelations()));
      if (t.NumTuples(rel) == 0) continue;
      FactRef fact{Side::kTarget, rel,
                   static_cast<int32_t>(rng.Below(t.NumTuples(rel)))};
      std::string text =
          FactToString(fact, *session.scenario().source, t);
      try {
        session.RouteFor(text);
        probed.push_back(std::move(text));
      } catch (const SpiderError&) {
        // Chase-produced facts always have routes; tolerate a probe
        // failing anyway rather than aborting the whole script.
      }
    }

    BatchOps batch = DrawBatch(&rng, scenario.mapping->source(),
                               sources[0], opts.fanout);
    ChaseResult oracle = Chase(*scenario.mapping, batch.predicted);

    if (oracle.outcome != ChaseOutcome::kSuccess) {
      // The edit makes the scenario unsolvable (or non-terminating):
      // every maintainer must refuse it the same way.
      for (auto& chaser : chasers) {
        EXPECT_THROW(chaser->Apply(batch.delta), SpiderError) << where;
      }
      EXPECT_THROW(session.Apply(batch.delta), SpiderError) << where;
      for (testing::Digest& d : script_digests) {
        d.Add(std::string_view("refused"));
      }
      finish();
      return true;  // instances are poisoned; end the script
    }

    ApplyDeltaResult r0 = chasers[0]->Apply(batch.delta);
    DigestBatch(sources[0], targets[0], *chasers[0], r0, &script_digests[0]);
    for (size_t i = 1; i < chasers.size(); ++i) {
      ApplyDeltaResult ri = chasers[i]->Apply(batch.delta);
      DigestBatch(sources[i], targets[i], *chasers[i], ri, &script_digests[i]);
      EXPECT_EQ(r0.full_rechase, ri.full_rechase) << where;
      EXPECT_EQ(r0.added, ri.added) << where;
      EXPECT_EQ(r0.removed, ri.removed) << where;
    }
    session.Apply(batch.delta);

    // Determinism: byte-identical instances and null counters across
    // thread counts.
    for (size_t i = 1; i < chasers.size(); ++i) {
      ExpectIdentical(sources[0], sources[i], where + " (source)");
      ExpectIdentical(targets[0], targets[i], where + " (target)");
      EXPECT_EQ(chasers[0]->next_null_id(), chasers[i]->next_null_id())
          << where;
    }

    // Correctness: homomorphically equivalent to the from-scratch chase.
    ExpectSameContent(sources[0], batch.predicted, where + " (predicted)");
    EXPECT_TRUE(HomomorphicallyEquivalent(targets[0], *oracle.target))
        << where;
    EXPECT_TRUE(HomomorphicallyEquivalent(*session.scenario().target,
                                          *oracle.target))
        << where;

    // Replay every probed fact that still exists: whether the route came
    // from the cache or was recomputed, it must validate and play through.
    for (const std::string& text : probed) {
      FactRef ref;
      try {
        ref = session.debugger().TargetFact(text);
      } catch (const SpiderError&) {
        continue;  // the edit deleted or rewrote the fact
      }
      const Route& route = session.RouteFor(text);
      std::string why;
      EXPECT_TRUE(route.Validate(*session.scenario().mapping,
                                 *session.scenario().source,
                                 *session.scenario().target, {ref}, &why))
          << where << " " << text << ": " << why;
      RoutePlayer player = session.Play(route);
      while (player.Step()) {
      }
      EXPECT_TRUE(player.done()) << where << " " << text;
    }
  }
  finish();
  return true;
}

/// Per-script digests (seed-major, kScriptsPerSeed per seed) recorded from
/// a known-good build; 0 marks a script whose initial chase has no solution.
constexpr uint64_t kScriptDigests[] = {
    0x1f50c65c9c83a680ULL, 0x0740c05de772fbebULL, 0x78f536a2c23f33f8ULL,
    0x85da8c6b3e9512f8ULL, 0xfa700f439674f4a7ULL, 0x5de67f4725d9a1f4ULL,
    0x53197a4881c8bc0bULL, 0, 0x73d264d9364b59fcULL,
    0x73589d0372da89d1ULL, 0, 0xbfccc97fcf3d35abULL,
    0xcb9c8a436f52b3f8ULL, 0x86244d1f792763d0ULL, 0x74d6b7faae022ee3ULL,
    0xd3b5dee2dbeaddcaULL, 0xa45d474e5eed2b58ULL, 0x88607326a0a7e411ULL,
    0x416d7c731ad10493ULL, 0xa3dde7a70e5737ceULL, 0xd0a1818184ed8fe8ULL,
    0x541972c572ee04a9ULL, 0x773f1419a2cc0070ULL, 0x117315abcddc1933ULL,
    0xd8cb90d3acd2c97bULL, 0x089cc521de0fe56cULL, 0x2a8a284aad77f872ULL,
    0x1be1a810fc190241ULL, 0x66e06d1e9ea0818eULL, 0x59bbc3a1073c29b7ULL,
    0x4ad17fff43f06d41ULL, 0x584a7d418acfb791ULL, 0xef6dc6e94e22c5f5ULL,
    0x46e0cfacb626704bULL, 0x7210387e2ae59aa1ULL, 0xe994a897c864ac07ULL,
    0x1c6b659bddefd5eeULL, 0x2cadfa251afed602ULL, 0x4c0cb873b5259e71ULL,
    0x5cf9ce6a6775302aULL, 0x02c6150d9bee5f19ULL, 0x35c7dab3682a8105ULL,
    0x523c7a6c2ce9bf11ULL, 0xeb7b1c9667466554ULL, 0x11f86117ff6121c2ULL,
    0x7018500801f6a17aULL, 0, 0xbd9da97c14720b3bULL,
    0x28be9fef3304fc47ULL, 0xfca73f3779371d3cULL, 0x4477beb655a8018dULL,
    0x44d49441716330deULL, 0x64736fa1f639a47dULL, 0xa05f5ff362295e4aULL,
    0x10252ae5b0125231ULL, 0x1bc83aa3f5041feeULL, 0x24a0974332426465ULL,
    0x598812f214c3cc32ULL, 0x85d517dd5a4f13f0ULL, 0xe0006ecdf4ec9d73ULL,
    0xe17686daee490cf1ULL, 0xc04c51d0cdbe9ddeULL, 0x1c50b5e25e2a9e8cULL,
    0x0a7db355f20462a3ULL, 0xe5f68aa9c55f6e62ULL, 0xf57c30721a5dbf80ULL,
    0xff94704522d9706fULL, 0x5c36479fbc0fb95fULL, 0xb3673cb5fc5149e9ULL,
    0x81684165525ed721ULL, 0xfae6f1357c91e4bdULL, 0xbdd4a6e7801b2b8eULL,
    0xba9762516f1e84dcULL, 0x4ad34b574bc72533ULL, 0xbec1585083d27e6eULL,
    0x15c39d1cccd2fcf3ULL, 0xda683f4b77f516ebULL, 0x0c7aa7321ecf6df1ULL,
    0x04c1b5cd6b127e82ULL, 0x39aa014b5b13aeadULL, 0x21f066ba01f29540ULL,
    0x23b5f4413e3f8647ULL, 0x9a01919370013a50ULL, 0x3f37442f6cf700b6ULL,
    0xfc83a8afc5daaf98ULL, 0x306695616ecb0f7aULL, 0xa35809217eec3b22ULL,
    0x45fed2777d52c3b9ULL, 0x67c5d3d49ea2208fULL, 0x2fac928c9bc90cc8ULL,
    0xdfa8ea25f9c713f8ULL, 0xef4e8f43a9fc7f62ULL, 0xe0de821de32d38b9ULL,
    0x411b4669a7332262ULL, 0x1ffb1e7e60adbd15ULL, 0x5cf52eb354179a28ULL,
    0xca84afab2f99885dULL, 0x68bc9f80d8b98192ULL, 0x2ea01f9b35561bfbULL,
    0xb3291fff485dd6f3ULL, 0x34b56e99dfe30a3bULL, 0x097ad7739c757e34ULL,
    0x9f15dd8aa3f6cf31ULL, 0x0f1f9e37b5994783ULL, 0xcea3d69702206abfULL,
    0xbf2b7df553292351ULL, 0x435843d1928b0077ULL, 0x86c26ae74953551eULL,
    0x440f60940204065dULL, 0x5e066d1fe3f2c57aULL, 0x4ffd5941dedbc254ULL,
    0x70705af95edb6264ULL, 0x9f4d39aaff425207ULL, 0x35080d6b2e7c4e46ULL,
    0xc8dde12705ba0ea6ULL, 0x65abe513de278167ULL, 0x1fa7018a17babcf2ULL,
    0x38fb35ae0c30abdeULL, 0x1ab40edca86f8677ULL, 0xce15c45209fb42edULL,
    0xd2d36c080b3e414aULL, 0xd05b490d330a51b3ULL, 0xba934ac6711c0232ULL,
    0x6f3b763f6c540c8fULL, 0xe099f463a66ea1d4ULL, 0x7457735f84fe1163ULL,
    0x0b41f0974998eef9ULL, 0x76cd120ad48d421dULL, 0x0b75b71cebd8c786ULL,
    0x76d19c23ea3eb1a0ULL, 0xad50b33ab4251493ULL, 0x1b2d2d39130cee26ULL,
    0x2c75cc068e0c9507ULL, 0xb8ebcf542d2f2d1eULL, 0xf4516ac6cee3be82ULL,
    0x151365c1d2c767e0ULL, 0x748c98ca6a9239baULL, 0xd730edf5644d6373ULL,
    0x50e9b839c1943120ULL, 0xfa0f97b0f5dc0f80ULL, 0x324a6ca30d39343fULL,
    0x821fbba85e1cdafdULL, 0x07f0e5fa75717da3ULL, 0x567fb46a49a6f7caULL,
    0x8560b5dc39d10bc4ULL, 0x2d0f425918491876ULL, 0xa5c9ff887373acd5ULL,
    0x4a672307b2695e27ULL, 0xc0fd7a84c4fbaf6bULL, 0xe3d1419da697179eULL,
    0x41c6e73f0e51f5daULL, 0x45bfd6bbdc73fe7bULL, 0xac1de331a4f9a72dULL,
    0xa37ee1eccda24492ULL, 0xc4983c956f3f0636ULL, 0x15de3167af7ade42ULL,
    0xd7ca8a73072eca45ULL, 0x5930b2e63dfa741aULL, 0x1e0853cd44155ca1ULL,
    0x5747079fa8500cf5ULL, 0xed0e8251d069d6e6ULL, 0x28acf7da5f6b1c2eULL,
    0x3b098cc4afcfa114ULL, 0, 0x2dc3f440c53b65b0ULL,
    0x2ed47e2f4061aceaULL, 0x8a68d513966aedddULL, 0x2929ff00834c1776ULL,
    0xafa10d9323595d99ULL, 0x0b72d1d2c128a444ULL, 0xbeb3c32980b0902fULL,
    0x2c7958abe37c3461ULL, 0xb5902377cf0d9e4eULL, 0xa879b607922b833fULL,
    0x5222cc7214298c33ULL, 0x7aed0bf612e9ed12ULL, 0x37967f6674f511c2ULL,
    0x6a54c5e65555f33dULL, 0x7cea420c2ed19ccdULL, 0x8a6a351f535a97e4ULL,
    0x9cb69b26317ab6bfULL, 0xbd93732c8685fefcULL, 0x30c1280cdb8c114aULL,
    0x81a4254da691200aULL, 0xafcc0bc4c24bca8eULL, 0xbf119f939447cc38ULL,
    0x1b0b904083bcfca6ULL, 0xed2cda646f795678ULL, 0x77e9f6e938c3e40bULL,
    0x4fb17ad8ad944c6aULL, 0x15d0dae7c11bd235ULL, 0x1e63139702d8499fULL,
    0x47b84004b7bd5cc9ULL, 0, 0x8084d7a1d93fadf0ULL,
    0xfe57e5d320367c5aULL, 0x78256c2e1a85df3dULL, 0x0cec1ef1d4e2eba3ULL,
    0x01047f9b054b12feULL, 0x6f00fe9a50837662ULL, 0x0095b0fee598ea53ULL,
    0x98b40f8c4bbb049dULL, 0x6750290f4e096ad3ULL, 0x86e8aa39c4479771ULL,
    0x79ab8fafd53d2a79ULL, 0xd661c8c1c75d752fULL, 0xcde59f5d11a17c7dULL,
    0x790022572c0934c4ULL, 0x3a864e927bff5096ULL, 0x1bc7997fa3266ccaULL,
};

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, IncrementalMatchesScratchChase) {
  int ran = 0;
  for (int script = 0; script < kScriptsPerSeed; ++script) {
    std::vector<uint64_t> digests;
    if (RunScript(GetParam(), script, &digests)) ++ran;
    const uint64_t recorded =
        kScriptDigests[(GetParam() - 1) * kScriptsPerSeed + script];
    EXPECT_EQ(digests.empty(), recorded == 0)
        << "seed " << GetParam() << " script " << script;
    for (size_t i = 0; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], recorded)
          << "seed " << GetParam() << " script " << script << " chaser " << i
          << ": digest " << testing::Digest::Hex(digests[i]) << ", recorded "
          << testing::Digest::Hex(recorded);
    }
  }
  // Unsolvable seeds exist but must be rare; each parameter contributes
  // at least one real script so the suite stays above 200 total.
  EXPECT_GE(ran, 1) << "seed " << GetParam();
}

// 70 seeds x 3 scripts = 210 edit scripts.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{71}));

}  // namespace
}  // namespace spider
