// Differential fuzz suite for the incremental subsystem: 200+ random edit
// scripts over workload/random_scenario. Every batch is applied through
// three IncrementalChasers (1, 2 and 8 exec threads) and one DebugSession;
// after each batch the maintained targets must be byte-identical across
// thread counts and homomorphically equivalent to the from-scratch chase of
// the edited source. Cached routes that survive invalidation are validated
// and replayed through the RoutePlayer. Each chaser's per-batch outputs are
// also digested and pinned to values recorded from a known-good build, so a
// change to how the maintainer builds its derivation graph cannot silently
// alter a DRed or re-fire result. The session's route-cache state (its
// stats, its entry counts and whether every previously probed fact
// re-probes as a hit or a miss) is pinned the same way, so a change to how
// the cache finds what an edit invalidates cannot alter what it evicts.
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

/// Folds the session's route-cache state into the script's cache digest:
/// every RouteCacheStats field and the number of cached routes and forests.
void DigestCache(const DebugSession& session, testing::Digest* d) {
  const RouteCacheStats& s = session.cache_stats();
  for (size_t n : {s.route_hits, s.route_misses, s.forest_hits,
                   s.forest_misses, s.route_evictions, s.forest_evictions,
                   s.clears, session.route_cache().NumRoutes(),
                   session.route_cache().NumForests()}) {
    d->Add(static_cast<int64_t>(n));
  }
}

/// Re-probes one fact after a batch and folds the outcome into `d`: "gone"
/// when the edit deleted or rewrote it, else whether the probe was a cache
/// hit. `hits` reads the matching hit counter.
template <typename Probe, typename Hits>
bool Reprobe(const DebugSession& session, const std::string& text,
             const Probe& probe, const Hits& hits, testing::Digest* d) {
  try {
    session.debugger().TargetFact(text);
  } catch (const SpiderError&) {
    d->Add(std::string_view("gone"));
    return false;
  }
  size_t before = hits(session.cache_stats());
  probe();
  d->Add(std::string_view(hits(session.cache_stats()) > before ? "hit"
                                                               : "miss"));
  return true;
}

/// Runs one edit script; returns false when the seed's initial chase fails
/// (egd with no solution — nothing to maintain). `digests` receives one
/// script digest per chaser (1, 2 and 8 threads); `cache_digest` receives
/// the session's route-cache digest.
bool RunScript(uint64_t seed, int script, std::vector<uint64_t>* digests,
               uint64_t* cache_digest) {
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
  testing::Digest cache;
  // Every fact probed so far (routes), and the one forest probed per batch,
  // in first-probe order; all are re-probed after each later batch.
  std::vector<std::string> probed;
  std::vector<std::string> forest_probed;
  for (size_t i = 0; i < chasers.size(); ++i) {
    DigestBatch(sources[i], targets[i], *chasers[i], ApplyDeltaResult{},
                &script_digests[i]);
  }
  auto finish = [&] {
    for (const testing::Digest& d : script_digests) {
      digests->push_back(d.value());
    }
    *cache_digest = cache.value();
  };

  Rng rng(opts.seed ^ 0xfeedULL);
  for (int b = 0; b < kBatchesPerScript; ++b) {
    const std::string where = "seed " + std::to_string(opts.seed) +
                              " batch " + std::to_string(b);

    // Probe up to two routes so the cache has entries the batch can evict
    // or preserve, and the first one's forest.
    const size_t first_new = probed.size();
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
        if (std::find(probed.begin(), probed.end(), text) == probed.end()) {
          probed.push_back(std::move(text));
        }
      } catch (const SpiderError&) {
        // Chase-produced facts always have routes; tolerate a probe
        // failing anyway rather than aborting the whole script.
      }
    }
    if (probed.size() > first_new &&
        std::find(forest_probed.begin(), forest_probed.end(),
                  probed[first_new]) == forest_probed.end()) {
      session.ForestFor(probed[first_new]);
      forest_probed.push_back(probed[first_new]);
    }
    DigestCache(session, &cache);

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
      cache.Add(std::string_view("refused"));
      DigestCache(session, &cache);
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
    DigestCache(session, &cache);

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
      const Route* cached = nullptr;
      if (!Reprobe(
              session, text, [&] { cached = &session.RouteFor(text); },
              [](const RouteCacheStats& s) { return s.route_hits; },
              &cache)) {
        continue;  // the edit deleted or rewrote the fact
      }
      const Route& route = *cached;
      FactRef ref = session.debugger().TargetFact(text);
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
    for (const std::string& text : forest_probed) {
      Reprobe(
          session, text, [&] { session.ForestFor(text); },
          [](const RouteCacheStats& s) { return s.forest_hits; }, &cache);
    }
    DigestCache(session, &cache);
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

/// Per-script route-cache digests (same order; 0 for an unsolvable seed)
/// recorded from a known-good build.
constexpr uint64_t kCacheDigests[] = {
    0x583c316a3b144cecULL, 0xd3b1eb4c6317db29ULL, 0x72631b96f423f8d8ULL,
    0xa8c804eca2441f38ULL, 0x71c2abb09c6436f3ULL, 0x7a707ab63a119291ULL,
    0xac57bad38f7be8e1ULL, 0, 0xc903f69a1ea84450ULL,
    0x59db262770d25278ULL, 0, 0x117f3e3f03baeb7dULL,
    0xb9c1ef5ca59a9cd8ULL, 0x2dcaf22d5a66e1b0ULL, 0x72631b96f423f8d8ULL,
    0x7db3b2a8b79f4410ULL, 0xf3a22bc058309778ULL, 0x378d610f970c54e6ULL,
    0xa1b4876042e797b8ULL, 0x3257c139723ba4e3ULL, 0xfcff10fd6b9e192cULL,
    0x5283d9ffe27ddb63ULL, 0x71c2abb09c6436f3ULL, 0xc0baa181879de3c4ULL,
    0x11d24b47be20832aULL, 0xbd95971d4babef42ULL, 0xa491c2fdfdddcacbULL,
    0x2ad318d65cfe4599ULL, 0xf1de275de8247932ULL, 0x755a1da1c3e09dcbULL,
    0xaa9b041956b98b00ULL, 0x8e50e8ff6b64c24fULL, 0xbc93580f8ff05f61ULL,
    0x57c4a1035db61fa0ULL, 0x2c60c0189a6dc4f9ULL, 0x393c6f6378fd1434ULL,
    0x15e3d796e75da5dbULL, 0xad40b7783e70ee14ULL, 0xcad00dc191a3d4dfULL,
    0xc2ae321ae953cc24ULL, 0x050ac3ce641eccb0ULL, 0x5f9b22dd3b7a1547ULL,
    0x2b9026e2af12ab74ULL, 0x8dd8c3a8b79bd025ULL, 0x9815b962ad611eb1ULL,
    0xa0d4e2a125781d74ULL, 0, 0x5a37386bb32f7a73ULL,
    0xbb2cefa1d516fc33ULL, 0x1ce904ef43c74ba0ULL, 0x71c2abb09c6436f3ULL,
    0x5457718c88e1873bULL, 0x75f1b04d595006abULL, 0x742f3be420f45faaULL,
    0xcc800e0cdaad2132ULL, 0x1aa24fe374ad0b7dULL, 0xba420ee5604d8c2eULL,
    0x15e3d796e75da5dbULL, 0xb1f91c65b012b3edULL, 0x4a8b4f119a690134ULL,
    0xb727b83251d922b1ULL, 0x7d621facf12d8a49ULL, 0x71c2abb09c6436f3ULL,
    0x939ac588b5eb6a10ULL, 0xaeea3e75cc2a85c2ULL, 0x6ffca738f2e6fb1eULL,
    0x72631b96f423f8d8ULL, 0xfd891479c6413a0aULL, 0x72631b96f423f8d8ULL,
    0x6ffca738f2e6fb1eULL, 0x128953cb50a51a65ULL, 0x1294af8d667249b3ULL,
    0xa5d2e316403725bcULL, 0x23cf0f79f3442350ULL, 0x2e8c058ab27c61dbULL,
    0xaca378ad344ed978ULL, 0x9a818f2ef63b1973ULL, 0x22a98529b0f960d0ULL,
    0xe2b2023fe5508ee3ULL, 0x4a3f12d1917bc7d5ULL, 0xe5577a591a28f9eaULL,
    0x29acbe3602d9840aULL, 0x122fd03e311f0503ULL, 0x39dcbb204bdd88c2ULL,
    0x5932352ac4025a42ULL, 0xa7d0181a03a285edULL, 0xef2dfc5867040c85ULL,
    0x61309f2711adedbaULL, 0x1e6cdc33d4111118ULL, 0x2e95b9c9d34cbe97ULL,
    0x200193eaad8eb00dULL, 0xa26ef0a527e21043ULL, 0xc2b365ecc0d3a2efULL,
    0xb02daa76ac7d9aa0ULL, 0xc46d43be3824beb4ULL, 0x1294af8d667249b3ULL,
    0xa9e0a9265e94dd03ULL, 0x2bf4e507bb217321ULL, 0x9abb5cb45c331a19ULL,
    0x334c8bc4d146730dULL, 0x2f38a5b98f862b27ULL, 0xfc28dd4713a3455cULL,
    0x9f000cfd3b1b0ee8ULL, 0x622e2500695d54f2ULL, 0x41e80dc72dbc8c70ULL,
    0xc061aaf9320db4b9ULL, 0x20ea1e8a0f96de75ULL, 0x93a7d9e8f4d98ec7ULL,
    0x3773d4a3d84ddcafULL, 0x88878f2d20fd2e69ULL, 0x43b697c4006a7392ULL,
    0x3b2e0d9783918ff0ULL, 0xac28d7a4c87d25ceULL, 0xe8660e140274bf88ULL,
    0x92172c2af59b4086ULL, 0x86a1297387e569c1ULL, 0x81566722d66d9be5ULL,
    0xd8f99c6a2483a8a0ULL, 0x84d7e90a5c9c3ae0ULL, 0x89f45a54b6889692ULL,
    0x839885c57f952db8ULL, 0x53c25e8630aedb31ULL, 0x222bca9f85786ac7ULL,
    0xf2f2cb1c7c673b8fULL, 0x4a18483d94b973abULL, 0x916121d1d3cc5544ULL,
    0x2f2af8d31002ea0aULL, 0x5e587bef06df650aULL, 0x555aafc523b1b355ULL,
    0x799414e7e4f5e8fcULL, 0x66fedfc097dcd047ULL, 0x44389b07a31bb174ULL,
    0x0e651291d1856dbfULL, 0x242abadd36201ce0ULL, 0x867004ffce629141ULL,
    0x15e3d796e75da5dbULL, 0x74a21d96fc63bbe7ULL, 0x0b71095c03c85090ULL,
    0x2918381254cccd7dULL, 0x495d74680c92bf23ULL, 0x7a4f05009b3bf8c1ULL,
    0x15e3d796e75da5dbULL, 0xe8ba75f4a150fda0ULL, 0xcc297cf26c055a7cULL,
    0xd84ae65f20c68657ULL, 0x4e529f11409227dbULL, 0xbaaf9227615b0728ULL,
    0xc061aaf9320db4b9ULL, 0x5007a0c40b69f2e4ULL, 0xcd9cc53b45f88014ULL,
    0x6ffca738f2e6fb1eULL, 0xc40deef7e03579cdULL, 0xe8660e140274bf88ULL,
    0x9791d69a5268f397ULL, 0x87824b69aee62c77ULL, 0x6ffca738f2e6fb1eULL,
    0xc72779d3bea9c15eULL, 0xcca1203123ffeca5ULL, 0x19e0dcebeb771edfULL,
    0x0f41d468c0f45e15ULL, 0x21ff8a5a4d4cb2f7ULL, 0x589216ea4636c85bULL,
    0x7235c657f438c0c8ULL, 0, 0xcc6facbdbbbb4ceeULL,
    0xa06a82e44133d0faULL, 0x1b23cd99e18a15a1ULL, 0xc061aaf9320db4b9ULL,
    0x4a8b4f119a690134ULL, 0xd6ed737cbcf1225eULL, 0xd1087a398706df48ULL,
    0x6175a359da796556ULL, 0x53b8f7a0fa646487ULL, 0xfad3372dc70afd94ULL,
    0x1202fe3491057c4aULL, 0xa57fa8aad58b440eULL, 0xbf45dba5c692e26cULL,
    0x181ff1e4408cb235ULL, 0xd3b1eb4c6317db29ULL, 0x4e5c368d84b9107dULL,
    0xb83917bda65fb417ULL, 0x15e3d796e75da5dbULL, 0xf4bab4ed4fbcd4d7ULL,
    0x43c069dcb635dae2ULL, 0x193884fd62c92416ULL, 0xdd974dd4cb026d2cULL,
    0xbb0a91dedcb4af6cULL, 0x27b2dca4edcfe20dULL, 0x71c2abb09c6436f3ULL,
    0xaa9b041956b98b00ULL, 0x423df8ec46e5bc8fULL, 0x0b8faea860095fb6ULL,
    0x16b13001c1391bbdULL, 0, 0x3b335b8bef7a2c60ULL,
    0x91674824ffd42010ULL, 0x4d6788392a62c4a1ULL, 0xe37dcbb66155bdf8ULL,
    0x3ae8def6a69dc4f3ULL, 0x0bc2ee84d6f01eb3ULL, 0x498d375c1ff0d9a2ULL,
    0x522df78ca295fc17ULL, 0xdcbef6fa8dfb4971ULL, 0x0c3eaa2091e5fdb8ULL,
    0x25d8622f887cb68bULL, 0x0495370635ab3c7aULL, 0xcf60b693b272ce1dULL,
    0x1aa24fe374ad0b7dULL, 0xa4a1725109b77e42ULL, 0xa434636d8312e9b3ULL,
};

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, IncrementalMatchesScratchChase) {
  int ran = 0;
  for (int script = 0; script < kScriptsPerSeed; ++script) {
    std::vector<uint64_t> digests;
    uint64_t cache_digest = 0;
    if (RunScript(GetParam(), script, &digests, &cache_digest)) ++ran;
    const size_t index = (GetParam() - 1) * kScriptsPerSeed + script;
    const uint64_t recorded = kScriptDigests[index];
    EXPECT_EQ(cache_digest, kCacheDigests[index])
        << "seed " << GetParam() << " script " << script << ": cache digest "
        << testing::Digest::Hex(cache_digest) << ", recorded "
        << testing::Digest::Hex(kCacheDigests[index]);
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
