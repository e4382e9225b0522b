#ifndef SPIDER_PROVENANCE_ANNOTATED_CHASE_H_
#define SPIDER_PROVENANCE_ANNOTATED_CHASE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "chase/chase.h"
#include "mapping/schema_mapping.h"
#include "query/binding.h"
#include "storage/instance.h"

namespace spider {

/// The EAGER (bookkeeping) approach to provenance that the paper contrasts
/// routes with (§5.1, the MXQL system of Velegrakis et al.): the exchange
/// engine is instrumented to record, while it runs, which dependency and
/// which assignment created every target tuple, and which egd unifications
/// rewrote it afterwards. Provenance questions are then answered by lookup,
/// at the cost of annotating the whole exchange up front and being tied to
/// this engine — exactly the trade-off the route algorithms avoid.
///
/// Here the instrumentation is a ChaseObserver on the one Chase() engine, so
/// the annotated exchange fires exactly the steps the plain chase fires, in
/// the same order, with the same null ids. It serves two purposes:
///  * it is the baseline for the eager-vs-lazy benchmark
///    (bench_eager_vs_lazy): one full annotated exchange vs. k on-demand
///    route computations — the crossover is the paper's design argument;
///  * its log records egd steps, which the lazy route algorithms cannot see
///    (routes have no egd satisfaction steps), enabling the egd-aware
///    explanations of §6's future work (see ExplainFact).
///
/// The log identifies target tuples by stable ProvFactIds that survive egd
/// rewrites (unlike row indexes in an Instance).
class AnnotatedChaseLog {
 public:
  using ProvFactId = int32_t;

  struct TgdStep {
    TgdId tgd = -1;
    size_t seq = 0;  ///< Global position in the exchange history.
    Binding h;  ///< Universal variables plus the invented existential nulls.
    /// LHS facts: source FactRefs for an s-t tgd, ProvFactIds otherwise.
    std::vector<FactRef> source_lhs;
    std::vector<ProvFactId> target_lhs;
    /// Facts asserted by this step (new or pre-existing).
    std::vector<ProvFactId> rhs;
  };

  struct EgdStep {
    EgdId egd = -1;
    size_t seq = 0;  ///< Global position in the exchange history.
    Binding h;
    NullId victim;
    Value replacement;
    /// The facts of h(φ) that triggered the unification.
    std::vector<ProvFactId> lhs;
    /// Facts rewritten by the substitution.
    std::vector<ProvFactId> rewritten;
  };

  /// One entry of the exchange history, in execution order.
  struct Event {
    enum class Kind { kTgd, kEgd } kind;
    size_t index;  ///< Into tgd_steps() or egd_steps().
  };

  const std::vector<TgdStep>& tgd_steps() const { return tgd_steps_; }
  const std::vector<EgdStep>& egd_steps() const { return egd_steps_; }
  const std::vector<Event>& events() const { return events_; }

  /// The current (final) tuple of a fact.
  const Tuple& tuple(ProvFactId id) const { return facts_[id].tuple; }
  RelationId relation(ProvFactId id) const { return facts_[id].relation; }
  size_t NumFacts() const { return facts_.size(); }

  /// The tgd step that first asserted the fact.
  size_t ProducerStep(ProvFactId id) const { return facts_[id].producer; }

  /// True when an egd rewrite collapsed this fact into another one; its
  /// tuple then equals the survivor's and it is absent from the target.
  bool MergedAway(ProvFactId id) const { return facts_[id].merged_away; }

  /// Follows merged_into links to the surviving representative of the fact
  /// (the id itself when it never merged).
  ProvFactId Resolve(ProvFactId id) const {
    while (facts_[id].merged_away) id = facts_[id].merged_into;
    return id;
  }

  /// Resolves a final target tuple to its fact id, if it exists.
  std::optional<ProvFactId> Find(RelationId relation,
                                 const Tuple& tuple) const;

 private:
  friend class AnnotatedChaseRecorder;

  struct Fact {
    RelationId relation;
    Tuple tuple;
    size_t producer = 0;     ///< Index into tgd_steps_.
    bool merged_away = false;  ///< True when an egd rewrite collapsed it
                               ///< into another fact.
    ProvFactId merged_into = -1;
  };

  std::vector<Fact> facts_;
  std::vector<TgdStep> tgd_steps_;
  std::vector<EgdStep> egd_steps_;
  std::vector<Event> events_;
};

using AnnotatedChaseOutcome = ChaseOutcome;

/// Details of a hard egd failure (two distinct constants equated): the egd,
/// the violating assignment, and the facts it matched — everything needed
/// to explain WHY no solution exists (see ExplainFailure in explain.h).
struct EgdFailure {
  EgdId egd = -1;
  Binding h;
  Value left;
  Value right;
  std::vector<AnnotatedChaseLog::ProvFactId> lhs;
};

/// Chase()'s result plus the provenance recorded while it ran.
struct AnnotatedChaseResult : ChaseResult {
  AnnotatedChaseLog log;
  /// Set when outcome == kEgdFailure.
  std::optional<EgdFailure> failure;
};

/// Runs Chase() while recording full provenance. The produced target, null
/// ids and outcome are Chase()'s for the same inputs, at any thread count;
/// cancellation throws CancelledError as Chase() does, and the log is local
/// to the call, so nothing escapes half-built.
AnnotatedChaseResult AnnotatedChase(const SchemaMapping& mapping,
                                    const Instance& source,
                                    const ChaseOptions& options = {});

}  // namespace spider

#endif  // SPIDER_PROVENANCE_ANNOTATED_CHASE_H_
