#include "provenance/annotated_chase.h"

#include <unordered_map>
#include <utility>

#include "base/status.h"
#include "chase/chase.h"

namespace spider {

std::optional<AnnotatedChaseLog::ProvFactId> AnnotatedChaseLog::Find(
    RelationId relation, const Tuple& tuple) const {
  for (size_t i = 0; i < facts_.size(); ++i) {
    if (!facts_[i].merged_away && facts_[i].relation == relation &&
        facts_[i].tuple == tuple) {
      return static_cast<ProvFactId>(i);
    }
  }
  return std::nullopt;
}

/// The chase observer behind AnnotatedChase(): replays every step the chase
/// applies onto the log's fact table, keeping it in sync with the chase's
/// target across egd rewrites, where row indexes are not stable but
/// ProvFactIds are.
class AnnotatedChaseRecorder : public ChaseObserver {
 public:
  AnnotatedChaseRecorder(const SchemaMapping& mapping, const Instance& source,
                         AnnotatedChaseResult* result)
      : mapping_(mapping), source_(source), result_(*result),
        log_(result->log) {}

  void OnTgdStep(TgdId tgd_id, const Binding& h) override {
    const Tgd& tgd = mapping_.tgd(tgd_id);
    AnnotatedChaseLog::TgdStep step;
    step.tgd = tgd_id;
    step.seq = log_.events_.size();
    step.h = h;
    for (const Atom& atom : tgd.lhs()) {
      Tuple t = h.Instantiate(atom);
      if (!tgd.source_to_target()) {
        step.target_lhs.push_back(Require(atom.relation, t));
        continue;
      }
      std::optional<int32_t> row = source_.FindRow(atom.relation, t);
      SPIDER_CHECK(row.has_value(), "LHS fact missing from the source");
      step.source_lhs.push_back(FactRef{Side::kSource, atom.relation, *row});
    }
    size_t step_index = log_.tgd_steps_.size();
    for (const Atom& atom : tgd.rhs()) {
      step.rhs.push_back(
          Assert(atom.relation, h.Instantiate(atom), step_index));
    }
    log_.tgd_steps_.push_back(std::move(step));
    log_.events_.push_back(AnnotatedChaseLog::Event{
        AnnotatedChaseLog::Event::Kind::kTgd, step_index});
  }

  void OnEgdStep(EgdId egd, const Binding& h, NullId victim,
                 const Value& replacement) override {
    AnnotatedChaseLog::EgdStep step;
    step.egd = egd;
    step.seq = log_.events_.size();
    step.h = h;
    step.victim = victim;
    step.replacement = replacement;
    step.lhs = RequireAll(mapping_.egd(egd), h);
    Substitute(victim, replacement, &step);
    size_t index = log_.egd_steps_.size();
    log_.egd_steps_.push_back(std::move(step));
    log_.events_.push_back(AnnotatedChaseLog::Event{
        AnnotatedChaseLog::Event::Kind::kEgd, index});
  }

  void OnEgdFailure(EgdId egd, const Binding& h) override {
    const Egd& dep = mapping_.egd(egd);
    result_.failure = EgdFailure{egd, h, h.Get(dep.left()),
                                 h.Get(dep.right()), RequireAll(dep, h)};
  }

 private:
  using ProvFactId = AnnotatedChaseLog::ProvFactId;

  /// The fact for a tuple the chase just inserted (new or pre-existing).
  ProvFactId Assert(RelationId relation, Tuple tuple, size_t producer) {
    auto key = std::make_pair(relation, tuple);
    auto it = fact_of_.find(key);
    if (it != fact_of_.end()) return it->second;
    ProvFactId id = static_cast<ProvFactId>(log_.facts_.size());
    log_.facts_.push_back(AnnotatedChaseLog::Fact{
        relation, std::move(tuple), producer, false, -1});
    fact_of_.emplace(std::move(key), id);
    return id;
  }

  ProvFactId Require(RelationId relation, const Tuple& tuple) const {
    auto it = fact_of_.find(std::make_pair(relation, tuple));
    SPIDER_CHECK(it != fact_of_.end(),
                 "annotated chase lost track of a fact");
    return it->second;
  }

  /// The facts of h(φ) for an egd's premise φ.
  std::vector<ProvFactId> RequireAll(const Egd& egd, const Binding& h) const {
    std::vector<ProvFactId> ids;
    for (const Atom& atom : egd.lhs()) {
      ids.push_back(Require(atom.relation, h.Instantiate(atom)));
    }
    return ids;
  }

  /// Mirrors the chase's substitution on the fact table; two facts that
  /// collapse onto one tuple merge into the earlier one.
  void Substitute(NullId victim, const Value& replacement,
                  AnnotatedChaseLog::EgdStep* step) {
    const Value victim_value = Value::Null(victim.id);
    fact_of_.clear();
    for (size_t i = 0; i < log_.facts_.size(); ++i) {
      AnnotatedChaseLog::Fact& fact = log_.facts_[i];
      if (fact.merged_away) continue;
      bool touched = false;
      for (size_t c = 0; c < fact.tuple.arity(); ++c) {
        if (fact.tuple.at(c) == victim_value) {
          fact.tuple.at(c) = replacement;
          touched = true;
        }
      }
      if (touched) step->rewritten.push_back(static_cast<ProvFactId>(i));
      auto key = std::make_pair(fact.relation, fact.tuple);
      auto [it, inserted] = fact_of_.emplace(key, static_cast<ProvFactId>(i));
      if (!inserted) {
        fact.merged_away = true;
        fact.merged_into = it->second;
      }
    }
  }

  struct KeyHash {
    size_t operator()(const std::pair<RelationId, Tuple>& key) const {
      return HashCombine(std::hash<int32_t>{}(key.first), key.second.Hash());
    }
  };

  const SchemaMapping& mapping_;
  const Instance& source_;
  AnnotatedChaseResult& result_;
  AnnotatedChaseLog& log_;
  std::unordered_map<std::pair<RelationId, Tuple>, ProvFactId, KeyHash>
      fact_of_;
};

AnnotatedChaseResult AnnotatedChase(const SchemaMapping& mapping,
                                    const Instance& source,
                                    const ChaseOptions& options) {
  AnnotatedChaseResult result;
  AnnotatedChaseRecorder recorder(mapping, source, &result);
  static_cast<ChaseResult&>(result) =
      Chase(mapping, source, options, &recorder);
  return result;
}

}  // namespace spider
