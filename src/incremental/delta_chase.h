#ifndef SPIDER_INCREMENTAL_DELTA_CHASE_H_
#define SPIDER_INCREMENTAL_DELTA_CHASE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/chase.h"
#include "incremental/fact_key.h"
#include "incremental/source_delta.h"
#include "mapping/schema_mapping.h"
#include "obs/fields.h"
#include "query/evaluator.h"
#include "query/plan_cache.h"
#include "storage/instance.h"

namespace spider {

/// ChaseOptions for the opening chase and every batch. `max_steps` bounds
/// each Apply() separately; `first_null_id` seeds the opening chase (later
/// batches continue from wherever the previous one stopped); `exec` also
/// fans out every delta-scoped enumeration through the chase's
/// EnumerateTriggers, and firing stays in canonical order, so results are
/// byte-identical at every thread count. `cancel` is observed ONLY during the
/// opening chase in the constructor (where aborting just discards the
/// half-built chaser): Apply() batches mutate the instances in place and
/// must run to completion, so the chaser drops the token after
/// construction.
struct IncrementalOptions : ChaseOptions {
  /// Escape hatch: treat every batch as entangled and re-chase from scratch
  /// (still through this class, so callers keep the same interface and
  /// dirty-fact reporting). Used to cross-check the incremental paths.
  bool force_full_rechase = false;
};

/// Wall-clock milliseconds per Apply() phase, accumulated across batches.
/// The split makes regressions attributable: storage churn (erase), graph
/// work (dred), query work (enumeration/refire) and firing show up
/// separately (bench_incremental reports them alongside the totals).
struct IncrementalPhaseTimes : obs::FieldStats<IncrementalPhaseTimes> {
  double delete_apply_ms = 0;  ///< Source row resolution + batched erases.
  double dred_ms = 0;          ///< Over-delete cascade + re-derive fixpoint.
  double commit_ms = 0;        ///< Target row resolution + batched erases.
  double refire_ms = 0;        ///< Backward re-fire enumeration + firing.
  double insert_apply_ms = 0;  ///< Source inserts + dirty-set bookkeeping.
  double trigger_ms = 0;       ///< Semi-naive s-t trigger enumeration.
  double fire_ms = 0;          ///< Candidate RHS checks + tgd firings.
  double propagate_ms = 0;     ///< Target-tgd/egd fixpoint rounds.

  static constexpr std::tuple kFields{
      obs::Field{"delete_apply_ms", &IncrementalPhaseTimes::delete_apply_ms},
      obs::Field{"dred_ms", &IncrementalPhaseTimes::dred_ms},
      obs::Field{"commit_ms", &IncrementalPhaseTimes::commit_ms},
      obs::Field{"refire_ms", &IncrementalPhaseTimes::refire_ms},
      obs::Field{"insert_apply_ms", &IncrementalPhaseTimes::insert_apply_ms},
      obs::Field{"trigger_ms", &IncrementalPhaseTimes::trigger_ms},
      obs::Field{"fire_ms", &IncrementalPhaseTimes::fire_ms},
      obs::Field{"propagate_ms", &IncrementalPhaseTimes::propagate_ms}};

  bool operator==(const IncrementalPhaseTimes&) const = default;
};

/// Totals over every Apply(); each batch's difference is published under
/// "incremental.", so registry totals equal the struct totals.
struct IncrementalStats : obs::FieldStats<IncrementalStats> {
  size_t batches = 0;          ///< Apply() calls processed.
  size_t source_inserted = 0;  ///< Source tuples actually added.
  size_t source_deleted = 0;   ///< Source tuples actually removed.
  size_t st_steps = 0;         ///< s-t tgd firings (insert + re-fire paths).
  size_t target_steps = 0;     ///< Target tgd firings.
  size_t egd_steps = 0;        ///< Egd unifications applied incrementally.
  size_t triggers_enumerated = 0;  ///< Delta-scoped candidates inspected.
  size_t overdeleted = 0;      ///< Facts condemned by the DRed over-delete.
  size_t rederived = 0;        ///< Over-deleted facts revived by re-derivation.
  size_t refired = 0;          ///< Triggers re-fired by the backward pass.
  size_t full_rechases = 0;    ///< Batches that fell back to a full re-chase.
  EvalStats eval;              ///< All conjunctive-query work issued.
  IncrementalPhaseTimes phases;  ///< Where Apply() time went.

  static constexpr std::tuple kFields{
      obs::Field{"batches", &IncrementalStats::batches},
      obs::Field{"source_inserted", &IncrementalStats::source_inserted},
      obs::Field{"source_deleted", &IncrementalStats::source_deleted},
      obs::Field{"st_steps", &IncrementalStats::st_steps},
      obs::Field{"target_steps", &IncrementalStats::target_steps},
      obs::Field{"egd_steps", &IncrementalStats::egd_steps},
      obs::Field{"triggers_enumerated", &IncrementalStats::triggers_enumerated},
      obs::Field{"overdeleted", &IncrementalStats::overdeleted},
      obs::Field{"rederived", &IncrementalStats::rederived},
      obs::Field{"refired", &IncrementalStats::refired},
      obs::Field{"full_rechases", &IncrementalStats::full_rechases},
      obs::Field{"eval", &IncrementalStats::eval},
      obs::Field{"phase", &IncrementalStats::phases}};

  bool operator==(const IncrementalStats&) const = default;
};

/// What one Apply() did, in terms a cache can act on: the content keys of
/// every fact that changed. `added` lists source and target facts that came
/// into existence, `removed` facts that ceased to exist; an egd rewrite
/// contributes its OLD key to `removed` and its new key to `added` (caches
/// index by the old one). When `full_rechase` is set the lists cover only
/// the source ops, NOT the target churn — caches must drop everything.
struct ApplyDeltaResult {
  bool full_rechase = false;
  std::vector<FactKey> added;
  std::vector<FactKey> removed;
  size_t source_inserted = 0;
  size_t source_deleted = 0;
  size_t target_added = 0;
  size_t target_removed = 0;
  size_t target_rewritten = 0;
};

/// Maintains a chased target instance under batches of source edits — the
/// engine of the edit/re-debug loop (§6 of the paper: the user repairs
/// source data, then re-asks for routes; re-running the whole exchange per
/// repair is what this avoids).
///
/// Construction runs Chase() of *source into *target with the chaser itself
/// as the ChaseObserver, so the derivation graph is recorded step by step
/// as the chase fires. Each Apply(delta) then:
///   * insertions — semi-naive trigger enumeration scoped to the delta:
///     one LHS atom is bound to a new fact and the remaining atoms form a
///     seeded query for the chase's EnumerateTriggers (plan-cached under the
///     chase's kChaseTrigger/kChaseEgd keys, atom slot = seeded atom + 1);
///     triggers fire through the chase's own ApplyTgdTrigger/ApplyEgdTrigger
///     and are recorded by the same callbacks as the opening chase; new
///     facts propagate through target tgds and egds the same way;
///   * deletions — DRed over the derivation graph: an over-delete cascade
///     condemns everything reachable from the deleted facts, a least-
///     fixpoint pass revives facts still derivable from surviving recorded
///     steps, and a backward re-fire pass re-runs triggers whose standard-
///     chase RHS check had been satisfied only through deleted facts (its
///     queries go through EnumerateTriggers too, keyed like findHom's LHS).
///
/// Egd entanglement: once any egd unification has fired (initially or
/// incrementally), recorded derivations no longer correspond literally to
/// chase steps, so the next deletion batch conservatively falls back to a
/// full re-chase (insertion-only batches stay incremental — adding facts
/// never invalidates a recorded step). The re-chase records a fresh graph
/// and swaps the new solution into the SAME Instance object via
/// ReplaceContents, so debugger pointers stay valid and plan caches see a
/// strictly larger version.
///
/// Invariant (enforced by the differential fuzz suite): after every batch
/// the maintained target is homomorphically equivalent to the from-scratch
/// chase of the edited source.
class IncrementalChaser : private ChaseObserver {
 public:
  /// `mapping`, `source` and `target` must outlive the chaser; the instances
  /// are mutated in place (the chaser is their only legal writer between
  /// batches). Throws SpiderError when the initial chase fails.
  IncrementalChaser(const SchemaMapping* mapping, Instance* source,
                    Instance* target, IncrementalOptions options = {});

  IncrementalChaser(const IncrementalChaser&) = delete;
  IncrementalChaser& operator=(const IncrementalChaser&) = delete;

  /// Applies one batch (deletions first, then insertions) to the source and
  /// brings the target back to a universal solution. Operations that do not
  /// change the source (deleting an absent tuple, inserting a present one)
  /// are skipped. Throws SpiderError when the edited scenario has no
  /// solution (an egd equates distinct constants) or max_steps is exceeded;
  /// the instances are then in an unspecified-but-consistent state and the
  /// caller should treat the session as poisoned.
  ApplyDeltaResult Apply(const SourceDelta& delta);

  /// Next labeled-null id the maintainer would invent (callers keeping a
  /// Scenario in sync store this minus one into max_null_id).
  int64_t next_null_id() const { return null_counter_; }

  /// True when an egd has ever fired: the next deletion batch will re-chase.
  bool egd_entangled() const { return egd_fired_; }

  const IncrementalStats& stats() const { return stats_; }

 private:
  using FactId = int32_t;

  /// One fact of the maintained pair (I, J) with its adjacency in the
  /// derivation graph: `producers` are recorded steps with this fact in
  /// their RHS, `consumers` steps with it in their LHS.
  struct FactNode {
    FactKey key;
    bool alive = true;
    std::vector<int32_t> producers;
    std::vector<int32_t> consumers;
  };

  /// A recorded chase step: tgd plus the facts its LHS matched and its RHS
  /// asserted (new or pre-existing). Dead once any LHS fact is gone.
  struct Derivation {
    TgdId tgd = -1;
    bool dead = false;
    std::vector<FactId> lhs;
    std::vector<FactId> rhs;
  };

  /// A delta-scoped trigger candidate: dependency id plus the universal
  /// binding (egds: the full LHS binding).
  struct Candidate {
    int32_t dep = -1;
    Binding b;
  };

  /// Apply() minus the observability envelope (span + stats publication).
  ApplyDeltaResult ApplyImpl(const SourceDelta& delta);

  void FullRechase(ApplyDeltaResult* result);

  /// ChaseObserver: records the opening chase's and every re-chase's steps.
  void OnTgdStep(TgdId tgd, const Binding& h) override;
  void OnEgdStep(EgdId egd, const Binding& h, NullId victim,
                 const Value& replacement) override;

  /// Adds a fired tgd step to the graph: its LHS facts and its RHS facts
  /// (new or pre-existing, already in the target). New target facts are
  /// appended to `created` and reported in `result` (each when non-null).
  void RecordTgdStep(TgdId id, const Binding& h, std::vector<FactId>* created,
                     ApplyDeltaResult* result);

  /// Mirrors an applied egd unification on the fact table: rewrites the
  /// victim null, merges facts that collapse (the older id survives), and
  /// appends touched facts to `frontier` and their key changes to `result`
  /// (each when non-null).
  void RecordEgdStep(NullId victim, const Value& replacement,
                     std::vector<FactId>* frontier, ApplyDeltaResult* result);

  FactId NewFact(FactKey key);
  FactId EnsureSourceFact(RelationId rel, const Tuple& tuple);
  FactId RequireTargetFact(RelationId rel, const Tuple& tuple) const;
  void AddDerivation(Derivation d);
  void KillFact(FactId f);
  void MergeFacts(FactId survivor, FactId victim);

  void InsertBatch(const std::vector<std::pair<RelationId, Tuple>>& inserts,
                   ApplyDeltaResult* result);
  void DeleteBatch(const std::vector<std::pair<RelationId, Tuple>>& deletes,
                   ApplyDeltaResult* result);

  /// Runs `queries` through EnumerateTriggers and flattens their matches
  /// into candidates, in query order.
  std::vector<Candidate> Enumerate(std::vector<TriggerQuery> queries);

  /// The live target facts of `frontier` grouped by relation, each once, in
  /// frontier order: the scope of the next delta-scoped enumeration.
  std::unordered_map<RelationId, std::vector<Tuple>> DirtyTargets(
      const std::vector<FactId>& frontier) const;

  /// Dedups candidates (per dependency) and fires those whose RHS is not
  /// already satisfied (through ApplyTgdTrigger, which extends each fired
  /// candidate's binding in place); returns the created facts.
  std::vector<FactId> FireCandidates(std::vector<Candidate> cands,
                                     ApplyDeltaResult* result);

  /// Runs delta-scoped target-tgd rounds and egd checks until `frontier`
  /// stops growing.
  void PropagateFixpoint(std::vector<FactId> frontier,
                         ApplyDeltaResult* result);

  /// Scoped egd fixpoint over the dirty facts; substituted/rewritten facts
  /// are appended to `frontier` for the next tgd round.
  void EgdFixpoint(std::vector<FactId>* frontier, ApplyDeltaResult* result);

  void BumpSteps();

  const SchemaMapping* mapping_;
  Instance* source_;
  Instance* target_;
  IncrementalOptions options_;
  PlanCache owned_cache_;  ///< Used when options_.eval has no cache.

  std::vector<FactNode> facts_;
  std::vector<Derivation> derivs_;
  std::unordered_map<FactKey, FactId, FactKeyHash> fact_of_;  ///< Alive only.

  int64_t null_counter_;
  bool egd_fired_ = false;
  size_t steps_ = 0;  ///< Within the current batch.
  IncrementalStats stats_;
};

}  // namespace spider

#endif  // SPIDER_INCREMENTAL_DELTA_CHASE_H_
