#include "routes/source_routes.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "base/status.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/evaluator.h"
#include "routes/fact_util.h"

namespace spider {

namespace {

std::string StepKey(const SatStep& step) {
  std::ostringstream os;
  os << step.tgd << '|';
  for (size_t v = 0; v < step.h.size(); ++v) {
    if (step.h.IsBound(static_cast<VarId>(v))) {
      os << step.h.Get(static_cast<VarId>(v)) << ',';
    }
  }
  return os.str();
}

/// Unifies `atom` with the values of `fact`'s tuple inside `binding`.
/// Returns false (leaving the binding untouched) on clash.
bool UnifyAtomWithFact(const Atom& atom, const Tuple& tuple,
                       Binding* binding) {
  std::vector<VarId> bound;
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const Term& t = atom.terms[col];
    const Value& v = tuple.at(col);
    bool ok;
    if (t.is_const()) {
      ok = (t.value() == v);
    } else if (binding->IsBound(t.var())) {
      ok = (binding->Get(t.var()) == v);
    } else {
      binding->Set(t.var(), v);
      bound.push_back(t.var());
      ok = true;
    }
    if (!ok) {
      for (VarId u : bound) binding->Unset(u);
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<FactRef> ConsequenceForest::DerivedFacts() const {
  std::vector<FactRef> facts;
  facts.reserve(producer.size());
  for (size_t i = 0; i < produced.size(); ++i) {
    for (const FactRef& f : produced[i]) facts.push_back(f);
  }
  return facts;
}

Route ConsequenceForest::RouteFor(const FactRef& fact,
                                  const SchemaMapping& mapping,
                                  const Instance& source,
                                  const Instance& target) const {
  SPIDER_CHECK(producer.count(fact) > 0,
               "fact was not derived from the selected source tuples");
  std::unordered_set<size_t> needed;
  std::vector<FactRef> stack = {fact};
  while (!stack.empty()) {
    FactRef f = stack.back();
    stack.pop_back();
    auto it = producer.find(f);
    SPIDER_CHECK(it != producer.end(),
                 "internal error: derived fact has no producer");
    if (!needed.insert(it->second).second) continue;
    const SatStep& step = steps[it->second];
    for (const FactRef& lhs :
         LhsFacts(mapping, step.tgd, step.h, source, target)) {
      if (lhs.side == Side::kTarget) stack.push_back(lhs);
    }
  }
  std::vector<size_t> order(needed.begin(), needed.end());
  std::sort(order.begin(), order.end());
  std::vector<SatStep> route_steps;
  route_steps.reserve(order.size());
  for (size_t i : order) route_steps.push_back(steps[i]);
  return Route(std::move(route_steps));
}

ConsequenceForest ComputeSourceConsequences(
    const SchemaMapping& mapping, const Instance& source,
    const Instance& target, const std::vector<FactRef>& selected,
    const SourceRouteOptions& options) {
  obs::TraceSpan span("routes", "source_consequences");
  span.AddArg("selected", static_cast<int64_t>(selected.size()));
  if (obs::MetricsEnabled()) {
    obs::Registry::Global().GetCounter("routes.source_consequence_runs")
        ->Increment();
  }
  ConsequenceForest forest;
  forest.selected = selected;
  std::unordered_set<std::string> seen_steps;
  std::unordered_set<FactRef, FactRefHash> derived;
  std::vector<FactRef> worklist;

  auto record_step = [&](TgdId tgd, const Binding& h) {
    SatStep step{tgd, h};
    if (!seen_steps.insert(StepKey(step)).second) return;
    if (forest.steps.size() >= options.max_steps) {
      forest.truncated = true;
      return;
    }
    std::vector<FactRef> new_facts;
    for (const FactRef& f : RhsFacts(mapping, tgd, h, target)) {
      if (derived.insert(f).second) {
        forest.producer.emplace(f, forest.steps.size());
        new_facts.push_back(f);
        worklist.push_back(f);
      }
    }
    forest.steps.push_back(std::move(step));
    forest.produced.push_back(std::move(new_facts));
  };

  /// Enumerates all satisfaction steps of `tgd` whose LHS uses `fact`
  /// (which lives in `lhs_instance`), with RHS inside J, feeding each RHS
  /// binding to `emit` (which returns false to stop the enumeration). For
  /// target tgds, only steps whose other LHS facts are already derived are
  /// emitted. With a collecting `emit` this is a pure read of the
  /// instances, so it can run on any exec worker.
  auto explore = [&](TgdId tgd, const FactRef& fact,
                     const Instance& lhs_instance,
                     const std::function<bool(const Binding&)>& emit) {
    const Tgd& dep = mapping.tgd(tgd);
    const Tuple& tuple = lhs_instance.tuple(fact.relation, fact.row);
    for (size_t a = 0; a < dep.lhs().size(); ++a) {
      if (dep.lhs()[a].relation != fact.relation) continue;
      Binding binding(dep.num_vars());
      if (!UnifyAtomWithFact(dep.lhs()[a], tuple, &binding)) continue;
      MatchIterator lhs_it(lhs_instance, dep.lhs(), &binding,
                           options.route.eval);
      while (lhs_it.Next()) {
        if (!dep.source_to_target()) {
          // All LHS facts must have been derived already.
          bool ready = true;
          for (const FactRef& f :
               ResolveFacts(target, Side::kTarget, dep.lhs(), binding)) {
            if (derived.count(f) == 0) {
              ready = false;
              break;
            }
          }
          if (!ready) continue;
        }
        Binding rhs_binding = binding;
        MatchIterator rhs_it(target, dep.rhs(), &rhs_binding,
                             options.route.eval);
        while (rhs_it.Next()) {
          if (!emit(rhs_binding)) return;
        }
      }
    }
  };

  for (const FactRef& fact : selected) {
    SPIDER_CHECK(fact.side == Side::kSource,
                 "ComputeSourceConsequences selects source facts");
    SPIDER_CHECK(static_cast<size_t>(fact.relation) < source.NumRelations() &&
                     static_cast<size_t>(fact.row) <
                         source.NumTuples(fact.relation),
                 "selected source fact is out of range");
  }

  // Seeding stage: s-t steps touch only the immutable source and target,
  // and recording a step never influences which s-t steps match — so the
  // (selected fact × s-t tgd) grid fans out over the exec pool into
  // per-pair buffers. The merge then replays record_step in the exact
  // order the sequential loop used (fact-major, tgd-minor, match order),
  // so the forest — dedup, step ids, truncation point — is byte-identical
  // at every thread count.
  const std::vector<TgdId>& st_tgds = mapping.st_tgds();
  size_t num_pairs = selected.size() * st_tgds.size();
  std::vector<std::vector<Binding>> pair_steps(num_pairs);
  ThreadPool* pool = ThreadPool::For(options.route.exec);
  if (pool != nullptr && options.route.eval.use_indexes) {
    source.WarmIndexes();
    target.WarmIndexes();
  }
  ParallelFor(pool, 0, num_pairs, /*grain=*/1, [&](size_t p) {
    const FactRef& fact = selected[p / st_tgds.size()];
    TgdId tgd = st_tgds[p % st_tgds.size()];
    explore(tgd, fact, source, [&](const Binding& h) {
      pair_steps[p].push_back(h);
      return true;
    });
  });
  for (size_t p = 0; p < num_pairs; ++p) {
    TgdId tgd = st_tgds[p % st_tgds.size()];
    for (const Binding& h : pair_steps[p]) {
      record_step(tgd, h);
      if (forest.truncated) return forest;
    }
  }

  // Target-tgd fixpoint: derivations depend on the evolving `derived` set,
  // so this stage stays sequential (and identical for every thread count).
  while (!worklist.empty()) {
    FactRef fact = worklist.back();
    worklist.pop_back();
    for (TgdId tgd : mapping.target_tgds()) {
      bool stopped = false;
      explore(tgd, fact, target, [&](const Binding& h) {
        record_step(tgd, h);
        stopped = forest.truncated;
        return !stopped;
      });
      if (stopped) return forest;
    }
  }
  return forest;
}

}  // namespace spider
