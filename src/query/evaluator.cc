#include "query/evaluator.h"

#include <algorithm>
#include <utility>

#include "base/hash.h"
#include "base/status.h"
#include "query/plan_cache.h"

namespace spider {

namespace {

/// Batch sizing: the first fill holds a single survivor so early-exit
/// consumers (HasMatch, the chase's containment checks) never test a
/// candidate tuple-at-a-time mode would not have tested; enumeration
/// consumers then amortize per-call overhead as the cap grows.
constexpr uint32_t kBatchGrowth = 4;
constexpr uint32_t kBatchMaxCap = 64;

}  // namespace

MatchIterator::MatchIterator(const Instance& instance, std::vector<Atom> atoms,
                             Binding* binding, EvalOptions options,
                             uint64_t plan_key)
    : instance_(instance), binding_(binding), options_(options) {
  SPIDER_CHECK(binding != nullptr, "MatchIterator requires a binding");
  for (const Atom& atom : atoms) {
    SPIDER_CHECK(atom.relation >= 0 &&
                     static_cast<size_t>(atom.relation) <
                         instance.NumRelations(),
                 "atom refers to a relation outside the instance's schema");
    SPIDER_CHECK(
        atom.terms.size() == instance.schema().relation(atom.relation).arity(),
        "atom arity mismatch for relation '" +
            instance.schema().relation(atom.relation).name() + "'");
    for (const Term& t : atom.terms) {
      if (t.is_var()) {
        SPIDER_CHECK(static_cast<size_t>(t.var()) < binding->size(),
                     "atom variable id " + std::to_string(t.var()) +
                         " out of range for binding of size " +
                         std::to_string(binding->size()));
      }
    }
  }
  PlanOrder(std::move(atoms), plan_key);
}

void MatchIterator::PlanOrder(std::vector<Atom> atoms, uint64_t plan_key) {
  if (options_.plan_cache != nullptr && plan_key != kNoPlanKey) {
    // Mix everything the plan depends on besides the caller's key into the
    // effective cache key: two iterators sharing a caller key but planned
    // under different options must never alias. (ExecMode is deliberately
    // absent — both exec modes run the same plan.)
    uint64_t option_bits = (options_.use_indexes ? 1u : 0u) |
                           (options_.reorder_atoms ? 2u : 0u) |
                           (static_cast<uint64_t>(options_.planner) << 2);
    uint64_t effective = HashCombine(plan_key, option_bits);
    plan_ = options_.plan_cache->Get(
        effective, instance_, [&] { return ComputePlan(atoms); }, &stats_);
  } else {
    plan_ = std::make_shared<const QueryPlan>(ComputePlan(atoms));
    ++stats_.plans_built;
  }
  levels_.reserve(atoms.size());
  std::vector<bool> var_bound(binding_->size(), false);
  for (size_t v = 0; v < binding_->size(); ++v) {
    var_bound[v] = binding_->IsBound(static_cast<VarId>(v));
  }
  for (size_t depth = 0; depth < plan_->order.size(); ++depth) {
    Level level;
    level.atom = std::move(atoms[plan_->order[depth]]);
    level.plan = &plan_->levels[depth];
    CompileLevel(&level, &var_bound);
    levels_.push_back(std::move(level));
  }
}

QueryPlan MatchIterator::ComputePlan(const std::vector<Atom>& atoms) const {
  QueryPlan plan;
  const size_t n = atoms.size();
  plan.order.reserve(n);
  plan.levels.reserve(n);
  // Track which variables are available when an atom is considered: those
  // bound in the initial binding plus those produced by atoms already
  // ordered. Which *variables* the caller binds is part of the plan-cache
  // key contract; their values are never consulted.
  std::vector<bool> var_bound(binding_->size(), false);
  for (size_t v = 0; v < binding_->size(); ++v) {
    var_bound[v] = binding_->IsBound(static_cast<VarId>(v));
  }
  auto atom_fully_bound = [&](const Atom& atom) {
    for (const Term& t : atom.terms) {
      if (t.is_var() && !var_bound[t.var()]) return false;
    }
    return true;
  };

  // Fully-bound conjunction (the chase's RHS containment shape): keep the
  // caller's ORIGINAL atom order, for every planner mode. Whether each atom
  // has a match is access-path-independent, so with a pinned order both
  // planners short-circuit a failure on the same atom — levels_entered
  // becomes planner-invariant by construction (the BENCH_planner drift
  // fix). The access path still differs per mode (PlanLevel): kSelectivity
  // resolves each atom with one exact point lookup, kBoundCount keeps the
  // seed probe-and-scan.
  const bool all_fully_bound =
      options_.use_indexes &&
      std::all_of(atoms.begin(), atoms.end(), atom_fully_bound);
  if (all_fully_bound) {
    for (size_t i = 0; i < n; ++i) {
      plan.order.push_back(i);
      plan.levels.push_back(PlanLevel(atoms[i], var_bound));
    }
    plan.point_lookup = options_.planner == PlannerMode::kSelectivity;
    return plan;
  }

  auto bound_positions = [&](const Atom& atom) {
    size_t bound = 0;
    for (const Term& t : atom.terms) {
      if (t.is_const() || var_bound[t.var()]) ++bound;
    }
    return bound;
  };
  const bool selectivity = options_.use_indexes &&
                           options_.planner == PlannerMode::kSelectivity;
  std::vector<size_t> order;
  order.reserve(n);
  if (!options_.reorder_atoms) {
    for (size_t i = 0; i < n; ++i) order.push_back(i);
  } else {
    std::vector<bool> used(n, false);
    for (size_t picked = 0; picked < n; ++picked) {
      int best = -1;
      uint64_t best_cost = 0;
      CardFp best_out = 0;
      size_t best_bound = 0;
      size_t best_card = 0;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        size_t bound = bound_positions(atoms[i]);
        size_t card = instance_.NumTuples(atoms[i].relation);
        if (selectivity) {
          // Cheapest modeled cost first. All-integer comparison (cost
          // units, then fixed-point output cardinality, then the
          // bound-count criteria, then original atom position): exact on
          // every platform, no float summation-order sensitivity.
          AtomEstimate est = EstimateAtom(atoms[i], var_bound);
          uint64_t cost = est.CostUnits(CostModel::Default());
          if (best < 0 || cost < best_cost ||
              (cost == best_cost &&
               (est.out_card < best_out ||
                (est.out_card == best_out &&
                 (bound > best_bound ||
                  (bound == best_bound && card < best_card)))))) {
            best = static_cast<int>(i);
            best_cost = cost;
            best_out = est.out_card;
            best_bound = bound;
            best_card = card;
          }
        } else {
          if (best < 0 || bound > best_bound ||
              (bound == best_bound && card < best_card)) {
            best = static_cast<int>(i);
            best_bound = bound;
            best_card = card;
          }
        }
      }
      used[best] = true;
      for (const Term& t : atoms[best].terms) {
        if (t.is_var()) var_bound[t.var()] = true;
      }
      order.push_back(static_cast<size_t>(best));
    }
    // Reset to the initial signature for the per-level pass below.
    std::fill(var_bound.begin(), var_bound.end(), false);
    for (size_t v = 0; v < binding_->size(); ++v) {
      var_bound[v] = binding_->IsBound(static_cast<VarId>(v));
    }
  }

  for (size_t i : order) {
    plan.levels.push_back(PlanLevel(atoms[i], var_bound));
    for (const Term& t : atoms[i].terms) {
      if (t.is_var()) var_bound[t.var()] = true;
    }
    plan.order.push_back(i);
  }
  return plan;
}

LevelPlan MatchIterator::PlanLevel(const Atom& atom,
                                   const std::vector<bool>& var_bound) const {
  LevelPlan lp;
  if (!options_.use_indexes) return lp;  // nested-loop scan only
  if (options_.planner == PlannerMode::kBoundCount) {
    // Seed behavior: probe the first bound column, unconditionally, and
    // consult NO statistics — the seed engine never built stats-only
    // indexes, and the benchmark baseline must not start paying for them.
    for (size_t col = 0; col < atom.terms.size(); ++col) {
      const Term& t = atom.terms[col];
      if (t.is_const() || var_bound[t.var()]) {
        lp.probes.push_back(ProbeChoice{static_cast<int>(col), 0});
        break;
      }
    }
    return lp;
  }
  // Decide the access-path shape BEFORE consulting any statistic: a
  // fully-bound level takes the exact point lookup, which needs no
  // posting-list sizes — asking for them here would lazily build (and then
  // forever maintain) per-column indexes the lookup path never reads, a
  // hidden planning cost dwarfing the query itself on chase-sized inserts.
  bool all_bound = !atom.terms.empty();
  for (const Term& t : atom.terms) {
    if (t.is_var() && !var_bound[t.var()]) {
      all_bound = false;
      break;
    }
  }
  if (all_bound) {
    lp.fully_bound = true;
    return lp;
  }
  const uint64_t n = instance_.NumTuples(atom.relation);
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const Term& t = atom.terms[col];
    uint64_t expected;
    if (t.is_const()) {
      // Exact: the posting list for this constant is what a probe returns.
      expected = instance_.PostingListSize(atom.relation,
                                           static_cast<int>(col), t.value());
    } else if (var_bound[t.var()]) {
      expected = ExpectedBoundVarRows(
          n, instance_.NumDistinct(atom.relation, static_cast<int>(col)));
    } else {
      continue;
    }
    lp.probes.push_back(
        ProbeChoice{static_cast<int>(col), expected});
  }
  if (lp.probes.empty()) return lp;  // no bound column: full scan
  // Cheapest expected posting list first; column index breaks ties so the
  // order is deterministic.
  std::stable_sort(lp.probes.begin(), lp.probes.end(),
                   [](const ProbeChoice& a, const ProbeChoice& b) {
                     if (a.expected_rows != b.expected_rows) {
                       return a.expected_rows < b.expected_rows;
                     }
                     return a.col < b.col;
                   });
  // Tiny relation: scanning everything outright beats even one probe.
  const CostModel& model = CostModel::Default();
  if (n * model.scan_cost <=
      model.probe_cost + lp.probes[0].expected_rows * model.scan_cost) {
    lp.scan_instead = true;
    lp.probes.clear();
  }
  return lp;
}

AtomEstimate MatchIterator::EstimateAtom(
    const Atom& atom, const std::vector<bool>& var_bound) const {
  AtomEstimate est;
  const uint64_t n = instance_.NumTuples(atom.relation);
  if (n == 0) return est;  // empty relation: free, and kills the join
  // Fully bound? Exact existence check: at most one row out, no statistics
  // consulted (matching the lookup path, which never builds posting-list
  // indexes). Decided exactly as PlanLevel decides it.
  bool all_bound = !atom.terms.empty();
  for (const Term& t : atom.terms) {
    if (t.is_var() && !var_bound[t.var()]) {
      all_bound = false;
      break;
    }
  }
  if (all_bound) {
    est.lookups = 1;
    est.out_card = CardFromCount(1);
    return est;
  }
  // One pass over the bound columns gathers both the access path (cheapest
  // expected posting list — the probe PlanLevel would order first) and the
  // output cardinality (n scaled by each bound column's selectivity: exact
  // posting-list ratios for constants, the uniform assumption for bound
  // variables; ExpectedBoundVarRows documents the clamping of degenerate
  // distinct counts). Every statistic is a hash lookup, so consulting each
  // column once — not once for the path and again for the cardinality — is
  // what keeps greedy O(k^2) planning cheap on plan-cache-miss-heavy
  // drivers like the chase.
  uint64_t best_expected = 0;
  bool have_probe = false;
  CardFp card = CardFromCount(n);
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const Term& t = atom.terms[col];
    uint64_t expected;
    if (t.is_const()) {
      expected = instance_.PostingListSize(atom.relation,
                                           static_cast<int>(col), t.value());
      card = CardScale(card, expected, n);
    } else if (var_bound[t.var()]) {
      uint64_t distinct =
          instance_.NumDistinct(atom.relation, static_cast<int>(col));
      expected = ExpectedBoundVarRows(n, distinct);
      card = CardScale(card, 1, std::clamp<uint64_t>(distinct, 1, n));
    } else {
      continue;
    }
    if (!have_probe || expected < best_expected) {
      best_expected = expected;
      have_probe = true;
    }
  }
  // Access path, mirroring PlanLevel's scan_instead rule.
  const CostModel& model = CostModel::Default();
  if (!have_probe ||
      n * model.scan_cost <=
          model.probe_cost + best_expected * model.scan_cost) {
    est.scanned_rows = n;
  } else {
    est.probes = 1;
    est.scanned_rows = best_expected;
  }
  est.out_card = card;
  return est;
}

void MatchIterator::CompileLevel(Level* level, std::vector<bool>* var_bound) {
  const Atom& atom = level->atom;
  level->ops.reserve(atom.terms.size());
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const Term& t = atom.terms[col];
    FilterOp op;
    op.col = static_cast<int>(col);
    if (t.is_const()) {
      op.kind = FilterOp::Kind::kConst;
      op.value = &t.value();
    } else if ((*var_bound)[t.var()]) {
      op.kind = FilterOp::Kind::kBoundVar;
      op.var = t.var();
    } else {
      // First occurrence in this atom produces the variable; repeats become
      // an intra-row equality against the producing column.
      int first_col = -1;
      for (const FilterOp& prev : level->ops) {
        if (prev.kind == FilterOp::Kind::kProduce && prev.var == t.var()) {
          first_col = prev.col;
          break;
        }
      }
      if (first_col >= 0) {
        op.kind = FilterOp::Kind::kDupProduce;
        op.first_col = first_col;
      } else {
        op.kind = FilterOp::Kind::kProduce;
        op.var = t.var();
        level->produce_vars.push_back(t.var());
      }
    }
    level->ops.push_back(op);
  }
  for (VarId v : level->produce_vars) (*var_bound)[v] = true;
}

const Value& MatchIterator::ColumnValue(const Level& level, int col) const {
  const Term& t = level.atom.terms[col];
  return t.is_const() ? t.value() : binding_->Get(t.var());
}

void MatchIterator::EnterLevel(size_t depth) {
  Level& level = levels_[depth];
  ++stats_.levels_entered;
  level.index_rows = nullptr;
  level.src_cursor = 0;
  level.src_end = 0;
  level.lookup_row = -1;
  level.lookup_pending = false;
  level.batch.clear();
  level.batch_cursor = 0;
  level.batch_cap = 0;
  level.emitted = false;
  // Bound-variable values are fixed for as long as this level is active
  // (deeper levels only produce vars unbound here), so cache the pointers
  // once per entry instead of consulting the binding per candidate row.
  for (FilterOp& op : level.ops) {
    if (op.kind == FilterOp::Kind::kBoundVar) {
      op.value = &binding_->Get(op.var);
    }
  }
  const LevelPlan& lp = *level.plan;
  if (lp.fully_bound) {
    // Exact-tuple point lookup: every column has a value in hand.
    static thread_local std::vector<const Value*> cells;
    cells.clear();
    for (const FilterOp& op : level.ops) cells.push_back(op.value);
    ++stats_.point_lookups;
    level.lookup_row =
        instance_.FindRowRef(level.atom.relation, cells).value_or(-1);
    level.lookup_pending = true;
    return;
  }
  if (!options_.use_indexes || lp.scan_instead || lp.probes.empty()) {
    level.src_end = instance_.NumTuples(level.atom.relation);
    return;
  }
  // Probe budget: take the cheapest expected column first, then keep
  // probing only while a shorter posting list is expected to save more
  // candidate scans than the next probe costs. Posting lists are ascending
  // by row id, so the choice changes how many candidates get scanned but
  // not the order matches are produced in.
  const CostModel& model = CostModel::Default();
  const std::vector<int32_t>* best = nullptr;
  for (size_t k = 0; k < lp.probes.size(); ++k) {
    if (best != nullptr) {
      uint64_t have = best->size();
      uint64_t expect = lp.probes[k].expected_rows;
      if (have <= expect) break;  // no expected saving at all
      if ((have - expect) * model.scan_cost <= model.probe_cost) break;
    }
    const std::vector<int32_t>& rows =
        instance_.Probe(level.atom.relation, lp.probes[k].col,
                        ColumnValue(level, lp.probes[k].col));
    ++stats_.index_probes;
    if (best == nullptr || rows.size() < best->size()) best = &rows;
    if (best->empty()) break;
  }
  level.index_rows = best;
}

bool MatchIterator::RowSurvives(const Level& level, int32_t row) const {
  const Tuple& tuple = instance_.tuple(level.atom.relation, row);
  for (const FilterOp& op : level.ops) {
    switch (op.kind) {
      case FilterOp::Kind::kConst:
      case FilterOp::Kind::kBoundVar:
        if (!(tuple.at(op.col) == *op.value)) return false;
        break;
      case FilterOp::Kind::kProduce:
        break;
      case FilterOp::Kind::kDupProduce:
        if (!(tuple.at(op.col) == tuple.at(op.first_col))) return false;
        break;
    }
  }
  return true;
}

void MatchIterator::EmitRow(Level& level, int32_t row) {
  const Tuple& tuple = instance_.tuple(level.atom.relation, row);
  for (const FilterOp& op : level.ops) {
    if (op.kind == FilterOp::Kind::kProduce) {
      binding_->Set(op.var, tuple.at(op.col));
    }
  }
  level.emitted = true;
}

void MatchIterator::UnbindLevel(Level& level) {
  if (!level.emitted) return;
  for (VarId v : level.produce_vars) binding_->Unset(v);
  level.emitted = false;
}

bool MatchIterator::RefillBatch(Level& level) {
  level.batch_cap = level.batch_cap == 0
                        ? 1
                        : std::min(level.batch_cap * kBatchGrowth,
                                   kBatchMaxCap);
  level.batch.clear();
  level.batch_cursor = 0;
  // Tight, binding-free filter loop: failed candidates never touch the
  // binding, unlike tuple-at-a-time's bind-then-unbind churn.
  if (level.index_rows != nullptr) {
    const std::vector<int32_t>& rows = *level.index_rows;
    while (level.batch.size() < level.batch_cap &&
           level.src_cursor < rows.size()) {
      int32_t row = rows[level.src_cursor++];
      ++stats_.tuples_scanned;
      if (RowSurvives(level, row)) level.batch.push_back(row);
    }
  } else {
    while (level.batch.size() < level.batch_cap &&
           level.src_cursor < level.src_end) {
      int32_t row = static_cast<int32_t>(level.src_cursor++);
      ++stats_.tuples_scanned;
      if (RowSurvives(level, row)) level.batch.push_back(row);
    }
  }
  return !level.batch.empty();
}

bool MatchIterator::AdvanceLevel(Level& level) {
  UnbindLevel(level);
  const LevelPlan& lp = *level.plan;
  if (lp.fully_bound) {
    if (!level.lookup_pending) return false;
    level.lookup_pending = false;
    if (level.lookup_row < 0) return false;
    ++stats_.tuples_scanned;
    EmitRow(level, level.lookup_row);
    return true;
  }
  if (options_.exec == ExecMode::kTupleAtATime) {
    while (true) {
      int32_t row;
      if (level.index_rows != nullptr) {
        if (level.src_cursor >= level.index_rows->size()) return false;
        row = (*level.index_rows)[level.src_cursor++];
      } else {
        if (level.src_cursor >= level.src_end) return false;
        row = static_cast<int32_t>(level.src_cursor++);
      }
      ++stats_.tuples_scanned;
      if (RowSurvives(level, row)) {
        EmitRow(level, row);
        return true;
      }
    }
  }
  // kBatch
  while (level.batch_cursor >= level.batch.size()) {
    bool source_left =
        level.index_rows != nullptr
            ? level.src_cursor < level.index_rows->size()
            : level.src_cursor < level.src_end;
    if (!source_left) return false;
    RefillBatch(level);
  }
  EmitRow(level, level.batch[level.batch_cursor++]);
  return true;
}

bool MatchIterator::Next() {
  if (done_) return false;
  if (levels_.empty()) {
    // An empty conjunction matches exactly once (with the initial binding).
    if (!started_) {
      started_ = true;
      return true;
    }
    done_ = true;
    return false;
  }
  size_t depth;
  if (!started_) {
    started_ = true;
    depth = 0;
    EnterLevel(depth);
  } else {
    depth = levels_.size() - 1;
  }
  while (true) {
    if (AdvanceLevel(levels_[depth])) {
      if (depth + 1 == levels_.size()) return true;
      ++depth;
      EnterLevel(depth);
    } else {
      if (depth == 0) {
        done_ = true;
        return false;
      }
      --depth;
    }
  }
}

std::vector<Binding> EvaluateAll(const Instance& instance,
                                 const std::vector<Atom>& atoms,
                                 const Binding& initial, EvalOptions options,
                                 EvalStats* stats) {
  std::vector<Binding> results;
  Binding binding = initial;
  MatchIterator it(instance, atoms, &binding, options);
  while (it.Next()) results.push_back(binding);
  if (stats != nullptr) *stats += it.stats();
  return results;
}

bool HasMatch(const Instance& instance, const std::vector<Atom>& atoms,
              const Binding& initial, EvalOptions options, EvalStats* stats,
              uint64_t plan_key) {
  Binding binding = initial;
  MatchIterator it(instance, atoms, &binding, options, plan_key);
  bool found = it.Next();
  if (stats != nullptr) *stats += it.stats();
  return found;
}

}  // namespace spider
