#include "incremental/delta_chase.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "base/status.h"
#include "obs/trace.h"

namespace spider {

namespace {

/// New target (or source) tuples grouped by relation, in arrival order.
using DirtyTuples = std::unordered_map<RelationId, std::vector<Tuple>>;

/// Unifies one atom against a concrete tuple. Universal variables (per
/// `tgd`, or all of them when `tgd` is null — every LHS/egd variable is
/// universal) are bound into *b; existential ones only get a consistency
/// check through *existential. Returns false when a constant or an earlier
/// binding disagrees.
bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple, Binding* b,
                        const Tgd* tgd,
                        std::unordered_map<VarId, Value>* existential) {
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& term = atom.terms[i];
    const Value& v = tuple.at(i);
    if (term.is_const()) {
      if (term.value() != v) return false;
      continue;
    }
    VarId var = term.var();
    if (tgd != nullptr && !tgd->IsUniversal(var)) {
      auto [it, inserted] = existential->emplace(var, v);
      if (!inserted && it->second != v) return false;
      continue;
    }
    if (b->IsBound(var)) {
      if (b->Get(var) != v) return false;
    } else {
      b->Set(var, v);
    }
  }
  return true;
}

/// Appends the delta-scoped queries of one dependency: for every LHS atom
/// over a dirty relation and every dirty tuple of it, the remaining atoms
/// seeded by unifying that atom with the tuple (seeds that fail to unify are
/// dropped), keyed `family`(dep, atom + 1) — slot 0 is the whole LHS.
void AddScopedQueries(int32_t dep, const std::vector<Atom>& lhs,
                      size_t num_vars, const Instance* inst,
                      PlanKeyFamily family, const DirtyTuples& dirty,
                      std::vector<TriggerQuery>* out) {
  for (size_t a = 0; a < lhs.size(); ++a) {
    auto it = dirty.find(lhs[a].relation);
    if (it == dirty.end()) continue;
    for (const Tuple& tuple : it->second) {
      Binding seed(num_vars);
      if (!UnifyAtomWithTuple(lhs[a], tuple, &seed, nullptr, nullptr)) {
        continue;
      }
      std::vector<Atom> rest;
      rest.reserve(lhs.size() - 1);
      for (size_t j = 0; j < lhs.size(); ++j) {
        if (j != a) rest.push_back(lhs[j]);
      }
      out->push_back(TriggerQuery{
          dep, inst, std::move(rest), std::move(seed),
          MakePlanKey(family, static_cast<uint64_t>(dep), a + 1)});
    }
  }
}

/// Adds the scope's wall-clock duration to *sink on destruction.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start_;
    *sink_ += elapsed.count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

IncrementalChaser::IncrementalChaser(const SchemaMapping* mapping,
                                     Instance* source, Instance* target,
                                     IncrementalOptions options)
    : mapping_(mapping),
      source_(source),
      target_(target),
      options_(std::move(options)),
      null_counter_(options_.first_null_id) {
  SPIDER_CHECK(mapping_ != nullptr && source_ != nullptr && target_ != nullptr,
               "IncrementalChaser requires a mapping and both instances");
  if (options_.eval.plan_cache == nullptr) {
    options_.eval.plan_cache = &owned_cache_;
  }
  FullRechase(nullptr);  // The initial build IS a "re"-chase from nothing.
  // The token only covers the opening chase: Apply() mutates in place and
  // must not abort halfway, so later FullRechase calls run token-free.
  options_.cancel = nullptr;
}

void IncrementalChaser::FullRechase(ApplyDeltaResult* result) {
  obs::TraceSpan span("incremental", "full_rechase");
  facts_.clear();
  derivs_.clear();
  fact_of_.clear();
  egd_fired_ = false;
  ChaseOptions chase_options = options_;
  chase_options.first_null_id = null_counter_;
  // The chase plans against its own scratch target, so it keeps its plans
  // in a chase-local cache rather than the caller's.
  chase_options.eval.plan_cache = nullptr;
  ChaseResult chased = Chase(*mapping_, *source_, chase_options, this);
  SPIDER_CHECK(chased.outcome == ChaseOutcome::kSuccess,
               "incremental full re-chase failed: " + chased.failure_message);
  target_->ReplaceContents(std::move(*chased.target));
  null_counter_ = chased.next_null_id;
  if (result != nullptr) {
    result->full_rechase = true;
    ++stats_.full_rechases;
  }
}

void IncrementalChaser::OnTgdStep(TgdId tgd, const Binding& h) {
  RecordTgdStep(tgd, h, nullptr, nullptr);
}

void IncrementalChaser::OnEgdStep(EgdId /*egd*/, const Binding& /*h*/,
                                  NullId victim, const Value& replacement) {
  RecordEgdStep(victim, replacement, nullptr, nullptr);
}

IncrementalChaser::FactId IncrementalChaser::NewFact(FactKey key) {
  auto id = static_cast<FactId>(facts_.size());
  auto [it, inserted] = fact_of_.emplace(key, id);
  SPIDER_CHECK(inserted, "incremental maintainer saw a duplicate fact");
  facts_.push_back(FactNode{std::move(key), true, {}, {}});
  return id;
}

IncrementalChaser::FactId IncrementalChaser::EnsureSourceFact(
    RelationId rel, const Tuple& tuple) {
  FactKey key{Side::kSource, rel, tuple};
  auto it = fact_of_.find(key);
  if (it != fact_of_.end()) return it->second;
  return NewFact(std::move(key));
}

IncrementalChaser::FactId IncrementalChaser::RequireTargetFact(
    RelationId rel, const Tuple& tuple) const {
  auto it = fact_of_.find(FactKey{Side::kTarget, rel, tuple});
  SPIDER_CHECK(it != fact_of_.end(),
               "incremental maintainer lost track of a target fact");
  return it->second;
}

void IncrementalChaser::AddDerivation(Derivation d) {
  auto id = static_cast<int32_t>(derivs_.size());
  for (FactId l : d.lhs) facts_[l].consumers.push_back(id);
  for (FactId r : d.rhs) facts_[r].producers.push_back(id);
  derivs_.push_back(std::move(d));
}

void IncrementalChaser::KillFact(FactId f) {
  FactNode& node = facts_[f];
  node.alive = false;
  fact_of_.erase(node.key);
  for (int32_t d : node.consumers) derivs_[d].dead = true;
}

void IncrementalChaser::MergeFacts(FactId survivor, FactId victim) {
  FactNode& from = facts_[victim];
  FactNode& into = facts_[survivor];
  for (int32_t d : from.producers) {
    for (FactId& r : derivs_[d].rhs) {
      if (r == victim) r = survivor;
    }
    into.producers.push_back(d);
  }
  for (int32_t d : from.consumers) {
    for (FactId& l : derivs_[d].lhs) {
      if (l == victim) l = survivor;
    }
    into.consumers.push_back(d);
  }
  from.alive = false;
  from.producers.clear();
  from.consumers.clear();
}

void IncrementalChaser::BumpSteps() {
  SPIDER_CHECK(++steps_ <= options_.max_steps,
               "incremental chase exceeded max_steps = " +
                   std::to_string(options_.max_steps));
}

ApplyDeltaResult IncrementalChaser::Apply(const SourceDelta& delta) {
  obs::TraceSpan span("incremental", "apply");
  span.AddArg("inserts", static_cast<int64_t>(delta.inserts().size()));
  span.AddArg("deletes", static_cast<int64_t>(delta.deletes().size()));
  const IncrementalStats before = stats_;
  ApplyDeltaResult result = ApplyImpl(delta);
  if (obs::MetricsEnabled()) {
    (stats_ - before).PublishTo(&obs::Registry::Global(), "incremental.");
  }
  return result;
}

ApplyDeltaResult IncrementalChaser::ApplyImpl(const SourceDelta& delta) {
  ApplyDeltaResult result;
  steps_ = 0;

  // Normalize against current content: drop deletions of absent tuples,
  // insertions of present ones (unless the same batch deletes them first),
  // and duplicates. What remains are the operations that change the source.
  const Schema& src_schema = mapping_->source();
  std::vector<std::pair<RelationId, Tuple>> deletes;
  std::unordered_set<FactKey, FactKeyHash> delete_keys;
  for (const SourceDelta::Op& op : delta.deletes()) {
    RelationId rel = src_schema.Require(op.relation);
    if (!source_->FindRow(rel, op.tuple).has_value()) continue;
    if (!delete_keys.insert(FactKey{Side::kSource, rel, op.tuple}).second) {
      continue;
    }
    deletes.emplace_back(rel, op.tuple);
  }
  std::vector<std::pair<RelationId, Tuple>> inserts;
  std::unordered_set<FactKey, FactKeyHash> insert_keys;
  for (const SourceDelta::Op& op : delta.inserts()) {
    RelationId rel = src_schema.Require(op.relation);
    FactKey key{Side::kSource, rel, op.tuple};
    bool present = source_->FindRow(rel, op.tuple).has_value();
    if (present && delete_keys.find(key) == delete_keys.end()) continue;
    if (!insert_keys.insert(std::move(key)).second) continue;
    inserts.emplace_back(rel, op.tuple);
  }
  if (deletes.empty() && inserts.empty()) return result;
  ++stats_.batches;

  // Entangled or forced: apply the source ops and re-chase from scratch.
  if (options_.force_full_rechase || (!deletes.empty() && egd_fired_)) {
    for (auto& [rel, tuple] : deletes) {
      source_->Erase(rel, tuple);
      result.removed.push_back(FactKey{Side::kSource, rel, std::move(tuple)});
      ++result.source_deleted;
      ++stats_.source_deleted;
    }
    for (auto& [rel, tuple] : inserts) {
      source_->Insert(rel, Tuple(tuple));
      result.added.push_back(FactKey{Side::kSource, rel, std::move(tuple)});
      ++result.source_inserted;
      ++stats_.source_inserted;
    }
    FullRechase(&result);
    return result;
  }

  if (!deletes.empty()) DeleteBatch(deletes, &result);
  if (!inserts.empty()) InsertBatch(inserts, &result);
  return result;
}

void IncrementalChaser::InsertBatch(
    const std::vector<std::pair<RelationId, Tuple>>& inserts,
    ApplyDeltaResult* result) {
  DirtyTuples dirty;
  {
    PhaseTimer timer(&stats_.phases.insert_apply_ms);
    obs::TraceSpan span("incremental", "insert_apply");
    for (const auto& [rel, tuple] : inserts) {
      source_->Insert(rel, Tuple(tuple));
      EnsureSourceFact(rel, tuple);
      result->added.push_back(FactKey{Side::kSource, rel, tuple});
      ++result->source_inserted;
      ++stats_.source_inserted;
      dirty[rel].push_back(tuple);
    }
  }

  // Semi-naive s-t round: every genuinely new trigger maps at least one LHS
  // atom onto a new source fact, so binding each atom position to each new
  // fact in turn enumerates them all (duplicates collapse in
  // FireCandidates).
  std::vector<Candidate> cands;
  {
    PhaseTimer timer(&stats_.phases.trigger_ms);
    obs::TraceSpan span("incremental", "trigger");
    std::vector<TriggerQuery> queries;
    for (TgdId id : mapping_->st_tgds()) {
      const Tgd& tgd = mapping_->tgd(id);
      AddScopedQueries(id, tgd.lhs(), tgd.num_vars(), source_,
                       PlanKeyFamily::kChaseTrigger, dirty, &queries);
    }
    cands = Enumerate(std::move(queries));
  }
  std::vector<FactId> frontier;
  {
    PhaseTimer timer(&stats_.phases.fire_ms);
    obs::TraceSpan span("incremental", "fire");
    frontier = FireCandidates(std::move(cands), result);
  }
  PropagateFixpoint(std::move(frontier), result);
}

void IncrementalChaser::DeleteBatch(
    const std::vector<std::pair<RelationId, Tuple>>& deletes,
    ApplyDeltaResult* result) {
  // Resolve every doomed row first (row indexes are stable until the first
  // erase), then retract with ONE EraseRows per relation: each EraseRows
  // call re-deduplicates the whole relation, so per-tuple Erase would make
  // large deletion batches quadratic.
  std::vector<FactId> dead_sources;
  {
    PhaseTimer timer(&stats_.phases.delete_apply_ms);
    obs::TraceSpan span("incremental", "delete_apply");
    std::unordered_map<RelationId, std::vector<int32_t>> doomed_source_rows;
    for (const auto& [rel, tuple] : deletes) {
      std::optional<int32_t> row = source_->FindRow(rel, tuple);
      SPIDER_CHECK(row.has_value(), "normalized deletion lost its tuple");
      doomed_source_rows[rel].push_back(*row);
      result->removed.push_back(FactKey{Side::kSource, rel, tuple});
      ++result->source_deleted;
      ++stats_.source_deleted;
      auto it = fact_of_.find(FactKey{Side::kSource, rel, tuple});
      if (it != fact_of_.end()) dead_sources.push_back(it->second);
    }
    for (auto& [rel, rows] : doomed_source_rows) {
      source_->EraseRows(rel, std::move(rows));
    }
  }

  std::vector<FactId> affected_sorted;
  std::unordered_set<FactId> condemned;
  {
    PhaseTimer timer(&stats_.phases.dred_ms);
    obs::TraceSpan span("incremental", "dred");

    // DRed phase A — over-delete: condemn every fact reachable from a
    // deleted fact through recorded derivations, ignoring alternative
    // support.
    std::unordered_set<FactId> dead_set(dead_sources.begin(),
                                        dead_sources.end());
    std::unordered_set<FactId> affected;
    std::vector<FactId> worklist = dead_sources;
    while (!worklist.empty()) {
      FactId f = worklist.back();
      worklist.pop_back();
      for (int32_t d : facts_[f].consumers) {
        if (derivs_[d].dead) continue;
        for (FactId r : derivs_[d].rhs) {
          if (dead_set.count(r) != 0 || affected.count(r) != 0) continue;
          affected.insert(r);
          worklist.push_back(r);
        }
      }
    }
    stats_.overdeleted += affected.size();

    // DRed phase B — re-derive: the least fixpoint of "revive a condemned
    // fact when some recorded step producing it has every LHS fact alive".
    // Recorded steps (not arbitrary re-derivability) keep the result inside
    // a homomorphic image of the from-scratch chase: a step's pre-existing
    // RHS facts never contain that step's fresh existential nulls.
    affected_sorted.assign(affected.begin(), affected.end());
    std::sort(affected_sorted.begin(), affected_sorted.end());
    condemned = dead_set;
    condemned.insert(affected.begin(), affected.end());
    bool changed = true;
    while (changed) {
      changed = false;
      for (FactId f : affected_sorted) {
        if (condemned.count(f) == 0) continue;
        for (int32_t d : facts_[f].producers) {
          const Derivation& dv = derivs_[d];
          if (dv.dead) continue;
          bool supported = true;
          for (FactId l : dv.lhs) {
            if (condemned.count(l) != 0) {
              supported = false;
              break;
            }
          }
          if (!supported) continue;
          condemned.erase(f);
          ++stats_.rederived;
          changed = true;
          break;
        }
      }
    }
  }

  // Commit: kill the deleted sources and the unrevived targets, then erase
  // the target rows in one EraseRows per relation.
  std::vector<FactKey> deleted_keys;
  {
    PhaseTimer timer(&stats_.phases.commit_ms);
    obs::TraceSpan span("incremental", "commit");
    for (FactId f : dead_sources) KillFact(f);
    std::unordered_map<RelationId, std::vector<int32_t>> doomed_rows;
    for (FactId f : affected_sorted) {
      if (condemned.count(f) == 0) continue;
      const FactKey& key = facts_[f].key;
      std::optional<int32_t> row = target_->FindRow(key.relation, key.tuple);
      SPIDER_CHECK(row.has_value(),
                   "incremental maintainer lost track of a target fact");
      doomed_rows[key.relation].push_back(*row);
      deleted_keys.push_back(key);
      result->removed.push_back(key);
      ++result->target_removed;
      KillFact(f);
    }
    for (auto& [rel, rows] : doomed_rows) {
      target_->EraseRows(rel, std::move(rows));
    }
  }

  // Backward re-fire: a trigger that the standard-chase RHS check once
  // skipped may be violated now that its only witnesses are gone. Every
  // such witness mapped some RHS atom onto a deleted fact, so unifying
  // each RHS atom with each deleted fact and enumerating the LHS over the
  // live instances finds all of them.
  std::vector<FactId> frontier;
  {
    PhaseTimer timer(&stats_.phases.refire_ms);
    obs::TraceSpan span("incremental", "refire");
    std::sort(deleted_keys.begin(), deleted_keys.end());
    std::vector<TriggerQuery> queries;
    for (const FactKey& fact : deleted_keys) {
      for (TgdId id = 0; id < static_cast<TgdId>(mapping_->NumTgds()); ++id) {
        const Tgd& tgd = mapping_->tgd(id);
        for (size_t q = 0; q < tgd.rhs().size(); ++q) {
          if (tgd.rhs()[q].relation != fact.relation) continue;
          Binding seed(tgd.num_vars());
          std::unordered_map<VarId, Value> existential;
          if (!UnifyAtomWithTuple(tgd.rhs()[q], fact.tuple, &seed, &tgd,
                                  &existential)) {
            continue;
          }
          // The LHS with RHS atom q's universal variables bound: findHom's
          // query shape, so it shares findHom's plan key.
          queries.push_back(TriggerQuery{
              id, tgd.source_to_target() ? source_ : target_, tgd.lhs(),
              std::move(seed),
              MakePlanKey(PlanKeyFamily::kFindHomLhs,
                          static_cast<uint64_t>(id), q)});
        }
      }
    }
    std::vector<Candidate> cands = Enumerate(std::move(queries));
    size_t fired_before = stats_.st_steps + stats_.target_steps;
    frontier = FireCandidates(std::move(cands), result);
    stats_.refired += stats_.st_steps + stats_.target_steps - fired_before;
  }
  PropagateFixpoint(std::move(frontier), result);
}

std::vector<IncrementalChaser::Candidate> IncrementalChaser::Enumerate(
    std::vector<TriggerQuery> queries) {
  std::vector<int32_t> deps;
  deps.reserve(queries.size());
  for (const TriggerQuery& q : queries) deps.push_back(q.dep);
  std::vector<std::vector<Binding>> matches =
      EnumerateTriggers(std::move(queries), options_.eval, options_.exec,
                        options_.cancel, &stats_.eval);
  std::vector<Candidate> cands;
  for (size_t i = 0; i < matches.size(); ++i) {
    for (Binding& b : matches[i]) {
      cands.push_back(Candidate{deps[i], std::move(b)});
    }
  }
  stats_.triggers_enumerated += cands.size();
  return cands;
}

DirtyTuples IncrementalChaser::DirtyTargets(
    const std::vector<FactId>& frontier) const {
  DirtyTuples dirty;
  std::unordered_set<FactId> grouped;
  for (FactId f : frontier) {
    if (!facts_[f].alive || facts_[f].key.side != Side::kTarget) continue;
    if (!grouped.insert(f).second) continue;
    dirty[facts_[f].key.relation].push_back(facts_[f].key.tuple);
  }
  return dirty;
}

std::vector<IncrementalChaser::FactId> IncrementalChaser::FireCandidates(
    std::vector<Candidate> cands, ApplyDeltaResult* result) {
  std::unordered_map<int32_t, std::unordered_set<Binding, BindingHash>> seen;
  std::vector<FactId> created;
  for (Candidate& c : cands) {
    if (!seen[c.dep].insert(c.b).second) continue;
    BumpSteps();
    const Tgd& tgd = mapping_->tgd(c.dep);
    if (!ApplyTgdTrigger(c.dep, tgd, &c.b, target_, &null_counter_,
                         options_.eval, &stats_.eval)) {
      continue;
    }
    ++(tgd.source_to_target() ? stats_.st_steps : stats_.target_steps);
    RecordTgdStep(c.dep, c.b, &created, result);
  }
  return created;
}

void IncrementalChaser::RecordTgdStep(TgdId id, const Binding& h,
                                      std::vector<FactId>* created,
                                      ApplyDeltaResult* result) {
  const Tgd& tgd = mapping_->tgd(id);
  Derivation d;
  d.tgd = id;
  for (const Atom& atom : tgd.lhs()) {
    Tuple tuple = h.Instantiate(atom);
    d.lhs.push_back(tgd.source_to_target()
                        ? EnsureSourceFact(atom.relation, tuple)
                        : RequireTargetFact(atom.relation, tuple));
  }
  for (const Atom& atom : tgd.rhs()) {
    FactKey key{Side::kTarget, atom.relation, h.Instantiate(atom)};
    auto it = fact_of_.find(key);
    FactId f;
    if (it != fact_of_.end()) {
      f = it->second;
    } else {
      if (result != nullptr) {
        result->added.push_back(key);
        ++result->target_added;
      }
      f = NewFact(std::move(key));
      if (created != nullptr) created->push_back(f);
    }
    d.rhs.push_back(f);
  }
  AddDerivation(std::move(d));
}

void IncrementalChaser::PropagateFixpoint(std::vector<FactId> frontier,
                                          ApplyDeltaResult* result) {
  PhaseTimer timer(&stats_.phases.propagate_ms);
  obs::TraceSpan span("incremental", "propagate");
  // The incoming frontier (st insertions, re-fired facts) has not been
  // egd-checked yet.
  EgdFixpoint(&frontier, result);
  while (true) {
    DirtyTuples dirty = DirtyTargets(frontier);
    if (dirty.empty()) return;
    std::vector<TriggerQuery> queries;
    for (TgdId id : mapping_->target_tgds()) {
      const Tgd& tgd = mapping_->tgd(id);
      AddScopedQueries(id, tgd.lhs(), tgd.num_vars(), target_,
                       PlanKeyFamily::kChaseTrigger, dirty, &queries);
    }
    std::vector<FactId> created =
        FireCandidates(Enumerate(std::move(queries)), result);
    if (created.empty()) return;
    EgdFixpoint(&created, result);
    frontier = std::move(created);
  }
}

void IncrementalChaser::EgdFixpoint(std::vector<FactId>* frontier,
                                    ApplyDeltaResult* result) {
  if (mapping_->NumEgds() == 0) return;
  // A substitution invalidates every outstanding candidate binding, so the
  // scan restarts from a fresh enumeration after each one (the scope only
  // grows: rewritten facts join the frontier). Terminates because every
  // unification removes a labeled null from the target.
  bool clean = false;
  while (!clean) {
    clean = true;
    DirtyTuples dirty = DirtyTargets(*frontier);
    if (dirty.empty()) return;
    std::vector<TriggerQuery> queries;
    for (EgdId e = 0; e < static_cast<EgdId>(mapping_->NumEgds()); ++e) {
      const Egd& egd = mapping_->egd(e);
      AddScopedQueries(e, egd.lhs(), egd.num_vars(), target_,
                       PlanKeyFamily::kChaseEgd, dirty, &queries);
    }
    for (const Candidate& c : Enumerate(std::move(queries))) {
      BumpSteps();
      const Egd& egd = mapping_->egd(c.dep);
      EgdUnification u = ApplyEgdTrigger(egd, c.b, target_);
      if (u.kind == EgdUnification::Kind::kNoop) continue;
      SPIDER_CHECK(u.kind != EgdUnification::Kind::kFailure,
                   EgdFailureMessage(egd, c.b) +
                       " after a source edit: the scenario has no solution");
      RecordEgdStep(u.victim, u.replacement, frontier, result);
      ++stats_.egd_steps;
      clean = false;
      break;
    }
  }
}

void IncrementalChaser::RecordEgdStep(NullId victim, const Value& replacement,
                                      std::vector<FactId>* frontier,
                                      ApplyDeltaResult* result) {
  egd_fired_ = true;
  const Value victim_value = Value::Null(victim.id);
  // Rewrite the fact table to match the target, rebuilding the key map.
  fact_of_.clear();
  for (FactId f = 0; f < static_cast<FactId>(facts_.size()); ++f) {
    FactNode& node = facts_[f];
    if (!node.alive) continue;
    if (node.key.side == Side::kSource) {
      fact_of_.emplace(node.key, f);
      continue;
    }
    Tuple& tuple = node.key.tuple;
    bool touched = false;
    for (size_t c = 0; c < tuple.arity(); ++c) {
      if (tuple.at(c) != victim_value) continue;
      // Report the old key before its first column is rewritten.
      if (!touched && result != nullptr) result->removed.push_back(node.key);
      tuple.at(c) = replacement;
      touched = true;
    }
    if (touched) {
      if (result != nullptr) {
        result->added.push_back(node.key);
        ++result->target_rewritten;
      }
      if (frontier != nullptr) frontier->push_back(f);
    }
    auto [it, inserted] = fact_of_.emplace(node.key, f);
    if (!inserted) {
      MergeFacts(it->second, f);
      if (frontier != nullptr) frontier->push_back(it->second);
    }
  }
}

}  // namespace spider
