#include "analysis/position_flow.h"

#include <utility>
#include <vector>

namespace spider {

PositionIndex::PositionIndex(const Schema& schema) {
  offsets_.reserve(schema.size());
  for (RelationId rel = 0; rel < static_cast<RelationId>(schema.size());
       ++rel) {
    offsets_.push_back(static_cast<int>(relations_.size()));
    for (int col = 0; col < static_cast<int>(schema.relation(rel).arity());
         ++col) {
      relations_.push_back(rel);
      columns_.push_back(col);
    }
  }
}

namespace {

/// Positions (as dense ids under `index`) where variable v occurs among
/// `atoms`.
std::vector<int> VarPositions(const std::vector<Atom>& atoms,
                              const PositionIndex& index, VarId v) {
  std::vector<int> out;
  for (const Atom& atom : atoms) {
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      if (atom.terms[i].is_var() && atom.terms[i].var() == v) {
        out.push_back(index.Id(atom.relation, static_cast<int>(i)));
      }
    }
  }
  return out;
}

}  // namespace

PositionFlow ComputePositionFlow(const SchemaMapping& mapping) {
  PositionIndex source(mapping.source());
  PositionIndex target(mapping.target());
  const std::vector<bool> per_source(source.size(), false);
  const std::vector<bool> per_target(target.size(), false);
  PositionFlow flow{.source = std::move(source),
                    .target = std::move(target),
                    .source_read = per_source,
                    .source_reaches_target = per_source,
                    .source_joins = per_source,
                    .target_written = per_target,
                    .target_can_hold_constant = per_target,
                    .target_directly_grounded = per_target};

  // Direct facts from each tgd. For s-t tgds every universal variable (and
  // every constant) grounds its RHS positions; the corresponding LHS
  // positions reach the target.
  for (TgdId id = 0; id < static_cast<TgdId>(mapping.NumTgds()); ++id) {
    const Tgd& tgd = mapping.tgd(id);
    const PositionIndex& lhs_index =
        tgd.source_to_target() ? flow.source : flow.target;
    for (const Atom& atom : tgd.lhs()) {
      if (!tgd.source_to_target()) continue;
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        flow.source_read[lhs_index.Id(atom.relation, static_cast<int>(i))] =
            true;
      }
    }
    for (const Atom& atom : tgd.rhs()) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        int pos = flow.target.Id(atom.relation, static_cast<int>(i));
        flow.target_written[pos] = true;
        const Term& term = atom.terms[i];
        if (term.is_const()) {
          flow.target_directly_grounded[pos] = true;
          flow.target_can_hold_constant[pos] = true;
        } else if (tgd.IsUniversal(term.var())) {
          // The seed linter's notion counts any universal variable; only
          // s-t universals seed the constant fixpoint (a target tgd's
          // universal carries whatever its read positions can hold).
          flow.target_directly_grounded[pos] = true;
          if (tgd.source_to_target()) flow.target_can_hold_constant[pos] = true;
        }
      }
    }
    if (!tgd.source_to_target()) continue;
    for (VarId v = 0; v < static_cast<VarId>(tgd.num_vars()); ++v) {
      if (!tgd.IsUniversal(v)) continue;
      std::vector<int> lhs_pos = VarPositions(tgd.lhs(), flow.source, v);
      bool copied = !VarPositions(tgd.rhs(), flow.target, v).empty();
      for (int pos : lhs_pos) {
        if (copied) flow.source_reaches_target[pos] = true;
        if (lhs_pos.size() > 1) flow.source_joins[pos] = true;
      }
    }
  }

  // Fixpoint over the target tgds: a universal variable may carry a constant
  // only if ALL positions it reads can hold one — a match binds the variable
  // to a single value present at every read position, so one null-only read
  // position forces the value to be a null.
  bool changed = true;
  while (changed) {
    changed = false;
    for (TgdId id : mapping.target_tgds()) {
      const Tgd& tgd = mapping.tgd(id);
      for (VarId v = 0; v < static_cast<VarId>(tgd.num_vars()); ++v) {
        if (!tgd.IsUniversal(v)) continue;
        bool can_const = true;
        for (int pos : VarPositions(tgd.lhs(), flow.target, v)) {
          if (!flow.target_can_hold_constant[pos]) {
            can_const = false;
            break;
          }
        }
        if (!can_const) continue;
        for (int pos : VarPositions(tgd.rhs(), flow.target, v)) {
          if (!flow.target_can_hold_constant[pos]) {
            flow.target_can_hold_constant[pos] = true;
            changed = true;
          }
        }
      }
    }
  }
  return flow;
}

}  // namespace spider
