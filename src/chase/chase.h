#ifndef SPIDER_CHASE_CHASE_H_
#define SPIDER_CHASE_CHASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "exec/exec_options.h"
#include "mapping/scenario.h"
#include "mapping/schema_mapping.h"
#include "query/eval_stats.h"
#include "query/evaluator.h"
#include "storage/instance.h"

namespace spider {

/// Options for the chase.
struct ChaseOptions {
  /// Safety net against non-terminating target-tgd sets (the chase with a
  /// weakly acyclic Σt always terminates; arbitrary Σt may not).
  size_t max_steps = 10'000'000;

  /// First id to use for labeled nulls invented by the chase. Scenario-aware
  /// wrappers pass Scenario::max_null_id + 1.
  int64_t first_null_id = 1;

  EvalOptions eval;

  /// Work-stealing runtime knobs. With num_threads > 1 the s-t tgd trigger
  /// enumeration fans out per dependency over the shared pool; firing stays
  /// sequential in canonical dependency order, so the produced instance,
  /// null ids, and stats are byte-identical to num_threads = 1.
  ExecOptions exec;

  /// Optional cooperative-cancellation token, polled (relaxed atomic load)
  /// at every trigger enumerated, every firing step, and every egd step.
  /// When it flips, Chase() throws CancelledError; the partially built
  /// target is local to the call, so abandoning it is always safe. Must
  /// outlive the call. nullptr (the default) disables the checks.
  const CancelToken* cancel = nullptr;
};

enum class ChaseOutcome {
  kSuccess,     ///< A (universal) solution was produced.
  kEgdFailure,  ///< An egd equated two distinct constants: no solution exists.
  kStepLimit,   ///< max_steps exceeded (chase may be non-terminating).
};

/// What one Chase() call did; published under "chase." once per call.
struct ChaseStats : obs::FieldStats<ChaseStats> {
  size_t st_steps = 0;      ///< s-t tgd chase steps applied.
  size_t st_triggers = 0;   ///< s-t tgd triggers enumerated (fired or not).
  size_t target_steps = 0;  ///< Target tgd chase steps applied.
  size_t egd_steps = 0;     ///< Egd unifications applied.
  size_t nulls_created = 0;
  size_t rounds = 0;        ///< Target fixpoint rounds.
  /// Target-tgd enumerations skipped because none of the tgd's premise
  /// relations grew, and no egd step was applied, since its previous one.
  size_t target_enumerations_skipped = 0;

  /// Evaluator counters for every conjunctive query the chase issued
  /// (trigger enumeration, RHS containment checks, egd matching) and one
  /// point lookup per RHS atom a full tgd's firing path looks up. Exact and
  /// deterministic at every thread count: plans are value-independent and
  /// the per-chase plan cache builds each (key, version) plan exactly once.
  EvalStats eval;

  static constexpr std::tuple kFields{
      obs::Field{"st_steps", &ChaseStats::st_steps},
      obs::Field{"st_triggers", &ChaseStats::st_triggers},
      obs::Field{"target_steps", &ChaseStats::target_steps},
      obs::Field{"egd_steps", &ChaseStats::egd_steps},
      obs::Field{"nulls_created", &ChaseStats::nulls_created},
      obs::Field{"rounds", &ChaseStats::rounds},
      obs::Field{"target_enumerations_skipped",
                 &ChaseStats::target_enumerations_skipped},
      obs::Field{"eval", &ChaseStats::eval}};

  bool operator==(const ChaseStats&) const = default;
};

/// What an egd trigger did to the target (see ApplyEgdTrigger).
struct EgdUnification {
  enum class Kind {
    kNoop,     ///< Values already equal — nothing to do.
    kUnify,    ///< `victim` was replaced by `replacement`.
    kFailure,  ///< Two distinct constants — no solution exists.
  };
  Kind kind = Kind::kNoop;
  NullId victim;
  Value replacement;
};

/// Applies one trigger `h` (the universal variables) of tgd `id` under the
/// standard chase: fires it iff its RHS is not already satisfied in
/// *target, and returns whether it fired. Every chase path (the whole chase
/// and the incremental maintainer's delta firing) fires through this.
///
/// A full tgd (no existential variables) decides and fires in one pass:
/// each instantiated RHS atom is inserted in order, and the trigger fired
/// iff some insert added a tuple (one point lookup per atom is charged to
/// *stats). A tgd with existentials first runs the keyed RHS containment
/// query; when none matches it binds every existential variable in *h to a
/// fresh labeled null drawn from *next_null_id and inserts the RHS. Either
/// way, after a firing *h is the step's full binding.
bool ApplyTgdTrigger(TgdId id, const Tgd& tgd, Binding* h, Instance* target,
                     int64_t* next_null_id, const EvalOptions& eval,
                     EvalStats* stats);

/// Applies one egd trigger `h` of `egd` to *target under the deterministic
/// unification rule shared by every chase path: a labeled null yields to a
/// constant, and of two nulls the one with the larger id is replaced, so
/// the result does not depend on enumeration order. The target is rewritten
/// only on kUnify.
EgdUnification ApplyEgdTrigger(const Egd& egd, const Binding& h,
                               Instance* target);

/// "egd 'name' equates distinct constants a and b" for a failing trigger.
std::string EgdFailureMessage(const Egd& egd, const Binding& h);

/// One query for EnumerateTriggers: the matches of `atoms` over *instance
/// that extend `seed`. `dep` names the dependency (a TgdId or EgdId, as the
/// caller interprets it); `plan_key` keys the plan in EvalOptions::plan_cache
/// and must encode the atoms and which variables `seed` binds.
struct TriggerQuery {
  int32_t dep = -1;
  const Instance* instance = nullptr;
  std::vector<Atom> atoms;
  Binding seed;
  uint64_t plan_key = MatchIterator::kNoPlanKey;
};

/// The one trigger-enumeration primitive: Chase() enumerates its s-t
/// triggers through it, and the incremental maintainer every delta-scoped
/// trigger, egd match and re-fire candidate. Queries fan out over the exec
/// pool (every instance they read is warmed first: lazy index builds mutate
/// shared state); each buffers its own matches, so the result — matches[i]
/// for queries[i], in evaluator order — is identical at every thread count.
/// A query with no atoms matches once, with its seed. Every iterator's
/// counters are added to *stats in query order. `cancel` is polled at every
/// match; once it flips the buffers are abandoned and CancelledError is
/// thrown. The instances must not be mutated during the call.
std::vector<std::vector<Binding>> EnumerateTriggers(
    std::vector<TriggerQuery> queries, const EvalOptions& eval,
    const ExecOptions& exec, const CancelToken* cancel, EvalStats* stats);

/// Receives every step a chase applies, in application order, on the thread
/// that called Chase() (enumeration fan-out never calls it). Chase() with no
/// observer is the plain chase; the annotated chase and the incremental
/// maintainer attach one to record provenance as the chase runs.
class ChaseObserver {
 public:
  /// `tgd` fired with `h`: its universal variables plus the nulls invented
  /// for its existential ones. The RHS is already in the target.
  virtual void OnTgdStep(TgdId tgd, const Binding& h) = 0;

  /// `egd`, matched by `h`, replaced `victim` by `replacement`. The target
  /// is already rewritten.
  virtual void OnEgdStep(EgdId egd, const Binding& h, NullId victim,
                         const Value& replacement) = 0;

  /// `egd`, matched by `h`, equates two distinct constants; the chase stops
  /// with kEgdFailure right after this call.
  virtual void OnEgdFailure(EgdId /*egd*/, const Binding& /*h*/) {}

 protected:
  /// Observers are never owned or deleted through this interface.
  ~ChaseObserver() = default;
};

struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kSuccess;
  /// The produced target instance (a universal solution on success; partial
  /// content otherwise). Always non-null.
  std::unique_ptr<Instance> target;
  ChaseStats stats;
  int64_t next_null_id = 1;
  std::string failure_message;
};

/// Runs the standard data-exchange chase of `source` with Σst ∪ Σt of
/// `mapping` [Fagin, Kolaitis, Miller, Popa; TCS'05]: first all s-t tgd
/// triggers, then target tgds and egds to a fixpoint. A tgd trigger fires
/// only when its RHS is not already satisfied (standard, not oblivious,
/// chase). On success the result is a universal solution for `source`.
/// A fixpoint round skips a target tgd when none of its premise relations
/// grew, and no egd step was applied, since its previous enumeration: the
/// target only grows between egd steps, so every match it would find was
/// already fired or found satisfied, and stays satisfied.
///
/// This is the library's stand-in for Clio's execution engine: the route
/// algorithms accept any solution, and the chase produces one. A non-null
/// `observer` is told about every step as it is applied; it never changes
/// what the chase does.
ChaseResult Chase(const SchemaMapping& mapping, const Instance& source,
                  const ChaseOptions& options = {},
                  ChaseObserver* observer = nullptr);

/// Chases `scenario.source` and stores the produced solution into
/// `scenario.target` (replacing it), advancing `scenario.max_null_id`.
/// Throws SpiderError unless the outcome is kSuccess.
ChaseStats ChaseScenario(Scenario* scenario, const ChaseOptions& options = {});

}  // namespace spider

#endif  // SPIDER_CHASE_CHASE_H_
