#include "chase/chase.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/status.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/plan_cache.h"

namespace spider {

namespace {

/// Publishes the chase's merged stats into the global registry on every
/// exit path (the result object is constructed in the return slot, so the
/// guard fires exactly once per Chase() call).
struct ChasePublishGuard {
  const ChaseStats* stats;
  ~ChasePublishGuard() {
    if (!obs::MetricsEnabled()) return;
    obs::Registry& registry = obs::Registry::Global();
    registry.GetCounter("chase.runs")->Increment();
    stats->PublishTo(&registry, "chase.");
  }
};

/// Applies the first violated egd trigger found, if any: kUnify when a
/// unification was applied (the instance was mutated, enumeration must
/// restart), kFailure when two distinct constants are equated, kNoop when
/// every egd holds.
EgdUnification::Kind ApplyOneEgdStep(const SchemaMapping& mapping,
                                     Instance* target, const EvalOptions& eval,
                                     ChaseObserver* observer, ChaseStats* stats,
                                     std::string* failure_message) {
  for (size_t e = 0; e < mapping.NumEgds(); ++e) {
    const auto id = static_cast<EgdId>(e);
    const Egd& egd = mapping.egd(id);
    Binding b(egd.num_vars());
    MatchIterator it(*target, egd.lhs(), &b, eval,
                     MakePlanKey(PlanKeyFamily::kChaseEgd, e));
    // The iterator's counters are folded into `stats` on every exit path
    // (a unification invalidates it, so each step uses a fresh one).
    while (it.Next()) {
      EgdUnification u = ApplyEgdTrigger(egd, b, target);
      if (u.kind == EgdUnification::Kind::kNoop) continue;
      stats->eval += it.stats();
      if (u.kind == EgdUnification::Kind::kFailure) {
        *failure_message = EgdFailureMessage(egd, b);
        if (observer != nullptr) observer->OnEgdFailure(id, b);
        return u.kind;
      }
      ++stats->egd_steps;
      if (observer != nullptr) {
        observer->OnEgdStep(id, b, u.victim, u.replacement);
      }
      return u.kind;
    }
    stats->eval += it.stats();
  }
  return EgdUnification::Kind::kNoop;
}

/// True when trigger `b` of tgd `id` is satisfied in `target`. A full tgd's
/// RHS is fully bound, so each atom is one FindRowRef (up to the first
/// absent one); a tgd with existentials runs the keyed containment query.
bool RhsSatisfied(TgdId id, const Tgd& tgd, const Binding& b,
                  const Instance& target, const EvalOptions& eval,
                  EvalStats* stats) {
  if (!tgd.ExistentialVars().empty()) {
    return HasMatch(
        target, tgd.rhs(), b, eval, stats,
        MakePlanKey(PlanKeyFamily::kChaseRhsCheck, static_cast<uint64_t>(id)));
  }
  std::vector<const Value*> cells;
  for (const Atom& atom : tgd.rhs()) {
    cells.clear();
    for (const Term& t : atom.terms) {
      cells.push_back(t.is_const() ? &t.value() : &b.Get(t.var()));
    }
    ++stats->point_lookups;
    if (!target.FindRowRef(atom.relation, cells).has_value()) return false;
  }
  return true;
}

}  // namespace

bool ApplyTgdTrigger(TgdId id, const Tgd& tgd, Binding* h, Instance* target,
                     int64_t* next_null_id, const EvalOptions& eval,
                     EvalStats* stats) {
  if (tgd.ExistentialVars().empty()) {
    bool fired = false;
    for (const Atom& atom : tgd.rhs()) {
      ++stats->point_lookups;
      fired |= target->Insert(atom.relation, h->Instantiate(atom)).inserted;
    }
    return fired;
  }
  if (RhsSatisfied(id, tgd, *h, *target, eval, stats)) return false;
  for (VarId y : tgd.ExistentialVars()) {
    h->Set(y, Value::Null((*next_null_id)++));
  }
  for (const Atom& atom : tgd.rhs()) {
    target->Insert(atom.relation, h->Instantiate(atom));
  }
  return true;
}

EgdUnification ApplyEgdTrigger(const Egd& egd, const Binding& h,
                               Instance* target) {
  const Value& left = h.Get(egd.left());
  const Value& right = h.Get(egd.right());
  EgdUnification u;
  if (left == right) return u;
  if (left.is_constant() && right.is_constant()) {
    u.kind = EgdUnification::Kind::kFailure;
    return u;
  }
  u.kind = EgdUnification::Kind::kUnify;
  if (left.is_null() &&
      (right.is_constant() || right.AsNull().id < left.AsNull().id)) {
    u.victim = left.AsNull();
    u.replacement = right;
  } else {
    u.victim = right.AsNull();
    u.replacement = left;
  }
  target->ApplySubstitution(u.victim, u.replacement);
  return u;
}

std::string EgdFailureMessage(const Egd& egd, const Binding& h) {
  return "egd '" + egd.name() + "' equates distinct constants " +
         h.Get(egd.left()).ToString() + " and " +
         h.Get(egd.right()).ToString();
}

std::vector<std::vector<Binding>> EnumerateTriggers(
    std::vector<TriggerQuery> queries, const EvalOptions& eval,
    const ExecOptions& exec, const CancelToken* cancel, EvalStats* stats) {
  std::vector<std::vector<Binding>> matches(queries.size());
  std::vector<EvalStats> query_stats(queries.size());
  ThreadPool* pool = ThreadPool::For(exec);
  if (pool != nullptr && eval.use_indexes) {
    std::vector<const Instance*> warmed;
    for (const TriggerQuery& q : queries) {
      if (std::find(warmed.begin(), warmed.end(), q.instance) != warmed.end()) {
        continue;
      }
      q.instance->WarmIndexes();
      warmed.push_back(q.instance);
    }
  }
  ParallelFor(pool, 0, queries.size(), /*grain=*/1, [&](size_t i) {
    TriggerQuery& q = queries[i];
    obs::TraceSpan span("chase", "enumerate_query");
    span.AddArg("dep", q.dep);
    if (q.atoms.empty()) {
      matches[i].push_back(std::move(q.seed));
      return;
    }
    MatchIterator it(*q.instance, std::move(q.atoms), &q.seed, eval,
                     q.plan_key);
    while (!Cancelled(cancel) && it.Next()) matches[i].push_back(q.seed);
    query_stats[i] = it.stats();
  }, cancel);
  ThrowIfCancelled(cancel);
  for (const EvalStats& s : query_stats) *stats += s;
  return matches;
}

ChaseResult Chase(const SchemaMapping& mapping, const Instance& source,
                  const ChaseOptions& options, ChaseObserver* observer) {
  ChaseResult result;
  ChasePublishGuard publish_guard{&result.stats};
  obs::TraceSpan chase_span("chase", "chase");
  result.target = std::make_unique<Instance>(&mapping.target());
  Instance& target = *result.target;
  int64_t null_counter = options.first_null_id;
  size_t steps = 0;
  auto over_limit = [&]() { return steps > options.max_steps; };

  // Every query the chase issues goes through one plan cache, so a tgd
  // whose premise is re-evaluated across rounds (or, with existentials,
  // whose RHS is re-checked per trigger) replans only when the target's
  // version has moved. Callers may supply their own cache via
  // options.eval.plan_cache.
  PlanCache local_cache;
  EvalOptions eval = options.eval;
  if (eval.plan_cache == nullptr) eval.plan_cache = &local_cache;

  // Applies trigger *h of tgd `id` and reports a firing to the observer.
  auto fire = [&](TgdId id, const Tgd& tgd, Binding* h) {
    const int64_t first_null = null_counter;
    if (!ApplyTgdTrigger(id, tgd, h, &target, &null_counter, eval,
                         &result.stats.eval)) {
      return false;
    }
    result.stats.nulls_created +=
        static_cast<size_t>(null_counter - first_null);
    if (observer != nullptr) observer->OnTgdStep(id, *h);
    return true;
  };

  // Phase 1: s-t tgds. The source is never mutated, so trigger enumeration
  // is a pure read over I and fans out per dependency (EnumerateTriggers).
  // Firing then runs on this thread in canonical dependency order (the
  // standard-chase RHS check must see the target as it grows), so the
  // target instance, null-id assignment, and stats are byte-identical at
  // every thread count.
  const std::vector<TgdId>& st_tgds = mapping.st_tgds();
  std::vector<TriggerQuery> queries;
  queries.reserve(st_tgds.size());
  for (TgdId id : st_tgds) {
    const Tgd& tgd = mapping.tgd(id);
    queries.push_back(TriggerQuery{
        id, &source, tgd.lhs(), Binding(tgd.num_vars()),
        MakePlanKey(PlanKeyFamily::kChaseTrigger, static_cast<uint64_t>(id))});
  }
  std::vector<std::vector<Binding>> triggers;
  {
    obs::TraceSpan enumerate_span("chase", "st_enumerate");
    enumerate_span.AddArg("dependencies", static_cast<int64_t>(st_tgds.size()));
    triggers = EnumerateTriggers(std::move(queries), eval, options.exec,
                                 options.cancel, &result.stats.eval);
  }
  for (const std::vector<Binding>& t : triggers) {
    result.stats.st_triggers += t.size();
  }
  {
    obs::TraceSpan fire_span("chase", "st_fire");
    for (size_t i = 0; i < st_tgds.size() && !over_limit(); ++i) {
      const Tgd& tgd = mapping.tgd(st_tgds[i]);
      for (Binding& b : triggers[i]) {
        ThrowIfCancelled(options.cancel);
        if (++steps, over_limit()) break;
        if (fire(st_tgds[i], tgd, &b)) ++result.stats.st_steps;
      }
    }
  }

  // Phase 2: target tgds and egds to a fixpoint. Triggers over the (mutable)
  // target are collected first, then fired. A target tgd whose premise is
  // unchanged since its previous enumeration is skipped (exact: see the
  // comment on Chase() in chase.h).
  const std::vector<TgdId>& target_tgds = mapping.target_tgds();
  // Per target tgd: the egd step count, then the size of each premise
  // relation, at its previous enumeration (empty before the first).
  std::vector<std::vector<size_t>> enumerated_at(target_tgds.size());
  std::vector<size_t> now;
  bool changed = !over_limit();
  while (changed && !over_limit()) {
    changed = false;
    ++result.stats.rounds;
    obs::TraceSpan round_span("chase", "target_round");
    round_span.AddArg("round", static_cast<int64_t>(result.stats.rounds));
    for (size_t k = 0; k < target_tgds.size(); ++k) {
      const TgdId id = target_tgds[k];
      const Tgd& tgd = mapping.tgd(id);
      now.assign(1, result.stats.egd_steps);
      for (const Atom& atom : tgd.lhs()) {
        now.push_back(target.NumTuples(atom.relation));
      }
      if (now == enumerated_at[k]) {
        ++result.stats.target_enumerations_skipped;
        continue;
      }
      enumerated_at[k] = now;
      std::vector<Binding> pending;
      {
        Binding b(tgd.num_vars());
        MatchIterator it(target, tgd.lhs(), &b, eval,
                         MakePlanKey(PlanKeyFamily::kChaseTrigger,
                                     static_cast<uint64_t>(id)));
        while (it.Next()) {
          ThrowIfCancelled(options.cancel);
          if (++steps, over_limit()) break;
          if (!RhsSatisfied(id, tgd, b, target, eval, &result.stats.eval)) {
            pending.push_back(b);
          }
        }
        result.stats.eval += it.stats();
      }
      for (Binding& b : pending) {
        ThrowIfCancelled(options.cancel);
        if (++steps, over_limit()) break;
        // An earlier firing in this batch may have satisfied this trigger.
        if (!fire(id, tgd, &b)) continue;
        ++result.stats.target_steps;
        changed = true;
      }
      if (over_limit()) break;
    }
    // Egds: unify until none applies.
    obs::TraceSpan egd_span("chase", "egd_fixpoint");
    while (!over_limit()) {
      ThrowIfCancelled(options.cancel);
      ++steps;
      EgdUnification::Kind applied =
          ApplyOneEgdStep(mapping, &target, eval, observer, &result.stats,
                          &result.failure_message);
      if (applied == EgdUnification::Kind::kFailure) {
        result.outcome = ChaseOutcome::kEgdFailure;
        result.next_null_id = null_counter;
        return result;
      }
      if (applied == EgdUnification::Kind::kNoop) break;
      changed = true;
    }
  }

  result.outcome =
      over_limit() ? ChaseOutcome::kStepLimit : ChaseOutcome::kSuccess;
  if (result.outcome == ChaseOutcome::kStepLimit) {
    result.failure_message =
        "chase exceeded max_steps = " + std::to_string(options.max_steps);
  }
  result.next_null_id = null_counter;
  return result;
}

ChaseStats ChaseScenario(Scenario* scenario, const ChaseOptions& options) {
  SPIDER_CHECK(scenario != nullptr && scenario->mapping != nullptr &&
                   scenario->source != nullptr,
               "ChaseScenario requires a populated scenario");
  ChaseOptions opts = options;
  opts.first_null_id = scenario->max_null_id + 1;
  ChaseResult result = Chase(*scenario->mapping, *scenario->source, opts);
  SPIDER_CHECK(result.outcome == ChaseOutcome::kSuccess,
               "chase failed: " + result.failure_message);
  scenario->target = std::move(result.target);
  scenario->max_null_id = result.next_null_id - 1;
  return result.stats;
}

}  // namespace spider
