#ifndef SPIDER_QUERY_EVALUATOR_H_
#define SPIDER_QUERY_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/binding.h"
#include "query/cost_model.h"
#include "query/eval_stats.h"
#include "query/query_plan.h"
#include "query/term.h"
#include "storage/instance.h"

namespace spider {

class PlanCache;

/// Join-planning strategy for MatchIterator when reordering is enabled.
enum class PlannerMode {
  /// The seed planner: greedily take the atom with the most bound positions,
  /// tie-broken by smaller relation, and probe the first bound column.
  kBoundCount,
  /// Cost-based: price each candidate atom with the probe-aware CostModel
  /// (integer units: probes, point lookups, candidate scans, plus the
  /// estimated output cardinality in 48.16 fixed point) and take the
  /// cheapest next. Per level, probe columns are ordered cheapest expected
  /// posting list first and the runtime stops probing as soon as another
  /// probe cannot pay for itself (see LevelPlan::probes).
  kSelectivity,
};

/// How MatchIterator drives each join level.
enum class ExecMode {
  /// Pull a small batch of surviving candidate row ids per level with a
  /// tight, binding-free filter loop, then emit them one by one. Same match
  /// sequence as kTupleAtATime, byte for byte — filtering never touches the
  /// binding, so failed candidates cost no Set/Unset churn.
  kBatch,
  /// The seed row-at-a-time loop: fetch a candidate, test it against the
  /// level's terms via the binding, backtrack on failure. Kept as the
  /// debug/reference mode the differential suite compares kBatch against.
  kTupleAtATime,
};

/// Evaluation knobs. The defaults model the paper's relational setting (DB2:
/// index-backed, join-reordering, cursor-based fetching). Turning
/// `reorder_atoms` off models the paper's XML setting, where the free Saxon
/// XSLT engine "does not perform join reordering and simply implements all
/// for-each clauses as nested loops". Both knobs are exercised by the
/// ablation benches; the planner modes by bench_planner.
struct EvalOptions {
  bool use_indexes = true;
  bool reorder_atoms = true;

  /// Which planner orders the atoms when `reorder_atoms` is set. With
  /// `use_indexes` off there are no posting-list statistics (and consulting
  /// them would lazily build indexes the "no index" engine model forbids),
  /// so kSelectivity degrades to the bound-count heuristic.
  PlannerMode planner = PlannerMode::kSelectivity;

  /// Batched (default) or row-at-a-time execution. Orthogonal to planning:
  /// both modes run the same plan and produce the same match sequence, so
  /// plan-cache entries are shared across exec modes.
  ExecMode exec = ExecMode::kBatch;

  /// Optional cross-iterator plan memo (owned by the driver — chase, route
  /// forest, one-route). Only engaged for MatchIterators constructed with a
  /// non-zero plan key; see PlanCache for the key contract.
  PlanCache* plan_cache = nullptr;
};

/// Pull-based evaluator for a conjunction of atoms over a single Instance,
/// starting from a partial Binding (bound variables act as selections, the
/// way findHom pushes partially instantiated tgd sides to the database).
///
/// Usage:
///   Binding b(num_vars);            // possibly partially bound
///   MatchIterator it(instance, atoms, &b, opts);
///   while (it.Next()) { ...read b...; }
///
/// After a successful Next() the binding holds a total match of the atoms'
/// variables (variables not mentioned in the atoms keep their prior state);
/// when Next() returns false the binding is restored to its initial state.
/// Every variable mentioned by the atoms must fit the binding — ids out of
/// range fail a SPIDER_CHECK at construction. The instance must not be
/// mutated while iteration is in progress.
///
/// Match enumeration order depends on the atom order the planner picks (and
/// is deterministic for fixed options), but not on which bound column a
/// level probes or on the exec mode: posting lists, scans, and batch fills
/// all visit rows in ascending row order, so the per-level match sequence is
/// access-path- and batching-invariant. The binding multiset is identical
/// across all option combinations.
///
/// Fully-bound conjunctions (every term a constant or an initially-bound
/// variable — the shape of a full tgd's RHS containment check) skip
/// planning: each atom is checked with one exact-tuple point lookup in the
/// caller's ORIGINAL atom order, for every planner mode. That makes the
/// work counters of such queries planner-invariant by construction — the
/// invariant the differential oracle checks.
class MatchIterator {
 public:
  /// No plan-cache participation (the default for ad-hoc queries).
  static constexpr uint64_t kNoPlanKey = 0;

  /// `plan_key` identifies this (atom list, bound-variable signature) shape
  /// in `options.plan_cache`; pass kNoPlanKey (or leave the cache null) to
  /// plan privately.
  MatchIterator(const Instance& instance, std::vector<Atom> atoms,
                Binding* binding, EvalOptions options = {},
                uint64_t plan_key = kNoPlanKey);

  MatchIterator(const MatchIterator&) = delete;
  MatchIterator& operator=(const MatchIterator&) = delete;

  /// Advances to the next match. Returns false when exhausted.
  bool Next();

  /// Number of candidate tuples inspected so far (for tests/benchmarks).
  uint64_t tuples_scanned() const { return stats_.tuples_scanned; }

  /// All evaluator counters accumulated by this iterator.
  const EvalStats& stats() const { return stats_; }

  /// The plan this iterator runs (for tests; stable for the iterator's
  /// lifetime).
  const QueryPlan& plan() const { return *plan_; }

 private:
  /// One step of the per-level filter program, compiled once per level from
  /// the atom's terms and the plan-time bound-variable signature.
  struct FilterOp {
    enum class Kind : uint8_t {
      kConst,       ///< column must equal a query constant
      kBoundVar,    ///< column must equal an already-bound variable's value
      kProduce,     ///< column produces a new variable binding (no test)
      kDupProduce,  ///< repeated new variable: column must equal first_col
    };
    Kind kind;
    int col = 0;
    VarId var = 0;       ///< kBoundVar/kProduce: the variable
    int first_col = 0;   ///< kDupProduce: producing column
    const Value* value = nullptr;  ///< kConst: borrowed from the atom's term;
                                   ///< kBoundVar: refreshed at EnterLevel
  };

  struct Level {
    Atom atom;
    const LevelPlan* plan = nullptr;  ///< owned by plan_
    std::vector<FilterOp> ops;
    /// Variables this level produces (ops of kind kProduce), for unbinding.
    std::vector<VarId> produce_vars;

    // --- runtime state, reset by EnterLevel ---
    /// Candidate rows: an index posting list, or null for a positional scan.
    const std::vector<int32_t>* index_rows = nullptr;
    size_t src_cursor = 0;  ///< next candidate (posting index or row id)
    size_t src_end = 0;     ///< scan bound (NumTuples) when index_rows null
    /// Point-lookup levels: the matching row (or -1) and whether it is
    /// still unconsumed.
    int32_t lookup_row = -1;
    bool lookup_pending = false;
    /// kBatch: surviving row ids awaiting emission.
    std::vector<int32_t> batch;
    size_t batch_cursor = 0;
    uint32_t batch_cap = 0;
    /// True while the level's produce_vars are set in the binding.
    bool emitted = false;
  };

  /// Plans (via the cache when engaged) and builds the levels.
  void PlanOrder(std::vector<Atom> atoms, uint64_t plan_key);

  /// Computes the full plan: atom order plus per-level access paths.
  /// Value-independent: consults only per-column statistics and constants,
  /// never the values currently bound (see PlanCache for why).
  QueryPlan ComputePlan(const std::vector<Atom>& atoms) const;

  /// Probe-aware estimate of evaluating `atom` next, given which variables
  /// are bound (kSelectivity only; requires use_indexes).
  AtomEstimate EstimateAtom(const Atom& atom,
                            const std::vector<bool>& var_bound) const;

  /// Builds the access-path decisions for one level of the chosen order.
  LevelPlan PlanLevel(const Atom& atom,
                      const std::vector<bool>& var_bound) const;

  /// Compiles the per-level filter program for `level` (terms classified
  /// against the construction-time bound-variable signature).
  void CompileLevel(Level* level, std::vector<bool>* var_bound);

  void EnterLevel(size_t depth);
  /// Resolves the value a probe/lookup of `level`'s column `col` uses (the
  /// term is a constant or a bound variable).
  const Value& ColumnValue(const Level& level, int col) const;
  /// Unbinds the level's produced variables (if emitted) and advances to the
  /// level's next matching row, binding its produced variables. False when
  /// the level is exhausted.
  bool AdvanceLevel(Level& level);
  /// True when `row` satisfies the level's constant/bound/dup tests (no
  /// binding reads or writes beyond the cached op values).
  bool RowSurvives(const Level& level, int32_t row) const;
  /// Binds the level's produced variables from `row`.
  void EmitRow(Level& level, int32_t row);
  void UnbindLevel(Level& level);
  /// kBatch: refills the level's batch with surviving candidates. False when
  /// the source is exhausted and nothing survived.
  bool RefillBatch(Level& level);

  const Instance& instance_;
  Binding* binding_;
  EvalOptions options_;
  std::shared_ptr<const QueryPlan> plan_;
  std::vector<Level> levels_;
  bool started_ = false;
  bool done_ = false;
  EvalStats stats_;
};

/// Convenience: materializes all matches (used for eager "XML mode" and in
/// tests). Each returned Binding is the state after a successful Next().
/// When `stats` is non-null the iterator's counters are added to it.
std::vector<Binding> EvaluateAll(const Instance& instance,
                                 const std::vector<Atom>& atoms,
                                 const Binding& initial,
                                 EvalOptions options = {},
                                 EvalStats* stats = nullptr);

/// True when the atoms have at least one match.
bool HasMatch(const Instance& instance, const std::vector<Atom>& atoms,
              const Binding& initial, EvalOptions options = {},
              EvalStats* stats = nullptr,
              uint64_t plan_key = MatchIterator::kNoPlanKey);

}  // namespace spider

#endif  // SPIDER_QUERY_EVALUATOR_H_
