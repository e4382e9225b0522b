#ifndef SPIDER_MAPPING_DEPENDENCY_H_
#define SPIDER_MAPPING_DEPENDENCY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "mapping/source_span.h"
#include "query/term.h"

namespace spider {

/// Index of a tgd within its SchemaMapping.
using TgdId = int32_t;
/// Index of an egd within its SchemaMapping.
using EgdId = int32_t;

/// A tuple-generating dependency  ∀x φ(x) → ∃y ψ(x, y).
///
/// For a source-to-target tgd, φ is over the source schema and ψ over the
/// target schema; for a target tgd both sides are over the target schema.
/// Variables are identified by VarId into `var_names()`; a variable is
/// universal iff it occurs in the LHS (the remaining ones are the
/// existential y). Constants may appear on either side.
class Tgd {
 public:
  /// `source_to_target` selects which schema the LHS atoms' relation ids
  /// refer to. Validation against the schemas happens in
  /// SchemaMapping::AddTgd.
  Tgd(std::string name, std::vector<std::string> var_names,
      std::vector<Atom> lhs, std::vector<Atom> rhs, bool source_to_target);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& var_names() const { return var_names_; }
  size_t num_vars() const { return var_names_.size(); }
  const std::vector<Atom>& lhs() const { return lhs_; }
  const std::vector<Atom>& rhs() const { return rhs_; }
  bool source_to_target() const { return source_to_target_; }

  bool IsUniversal(VarId v) const { return universal_[v]; }
  /// Universal variables (those occurring in the LHS), in VarId order.
  std::vector<VarId> UniversalVars() const;
  /// Existential variables (RHS-only), in VarId order. Empty iff the tgd
  /// is full. Computed once at construction.
  const std::vector<VarId>& ExistentialVars() const { return existential_; }

  /// Renders the tgd, e.g. `m1: Cards(cn, ...) -> Accounts(cn, ...) & ...`.
  std::string ToString(const Schema& source, const Schema& target) const;

  /// Source-text region of the whole dependency (name through ';'). Invalid
  /// (line 0) for tgds built programmatically rather than parsed.
  const SourceSpan& span() const { return span_; }
  void set_span(SourceSpan span) { span_ = span; }

  /// Per-atom spans, parallel to lhs()/rhs(). Empty when unknown.
  const std::vector<SourceSpan>& lhs_spans() const { return lhs_spans_; }
  const std::vector<SourceSpan>& rhs_spans() const { return rhs_spans_; }
  void set_atom_spans(std::vector<SourceSpan> lhs_spans,
                      std::vector<SourceSpan> rhs_spans) {
    lhs_spans_ = std::move(lhs_spans);
    rhs_spans_ = std::move(rhs_spans);
  }

  /// Span of the given LHS/RHS atom, or the dependency span when per-atom
  /// spans were not recorded.
  SourceSpan LhsAtomSpan(size_t i) const {
    return i < lhs_spans_.size() ? lhs_spans_[i] : span_;
  }
  SourceSpan RhsAtomSpan(size_t i) const {
    return i < rhs_spans_.size() ? rhs_spans_[i] : span_;
  }

 private:
  std::string name_;
  std::vector<std::string> var_names_;
  std::vector<Atom> lhs_;
  std::vector<Atom> rhs_;
  bool source_to_target_;
  std::vector<bool> universal_;
  std::vector<VarId> existential_;
  SourceSpan span_;
  std::vector<SourceSpan> lhs_spans_;
  std::vector<SourceSpan> rhs_spans_;
};

/// An equality-generating dependency  ∀x φ(x) → x1 = x2, with φ over the
/// target schema. Egds never take part in routes (there is no egd
/// satisfaction step, §3 of the paper); the chase uses them to unify labeled
/// nulls or detect failure.
class Egd {
 public:
  Egd(std::string name, std::vector<std::string> var_names,
      std::vector<Atom> lhs, VarId left, VarId right);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& var_names() const { return var_names_; }
  size_t num_vars() const { return var_names_.size(); }
  const std::vector<Atom>& lhs() const { return lhs_; }
  VarId left() const { return left_; }
  VarId right() const { return right_; }

  std::string ToString(const Schema& target) const;

  /// Source-text region of the whole egd; invalid (line 0) when built
  /// programmatically.
  const SourceSpan& span() const { return span_; }
  void set_span(SourceSpan span) { span_ = span; }

  /// Per-atom spans, parallel to lhs(). Empty when unknown.
  const std::vector<SourceSpan>& lhs_spans() const { return lhs_spans_; }
  void set_atom_spans(std::vector<SourceSpan> lhs_spans) {
    lhs_spans_ = std::move(lhs_spans);
  }
  SourceSpan LhsAtomSpan(size_t i) const {
    return i < lhs_spans_.size() ? lhs_spans_[i] : span_;
  }

 private:
  std::string name_;
  std::vector<std::string> var_names_;
  std::vector<Atom> lhs_;
  VarId left_;
  VarId right_;
  SourceSpan span_;
  std::vector<SourceSpan> lhs_spans_;
};

}  // namespace spider

#endif  // SPIDER_MAPPING_DEPENDENCY_H_
