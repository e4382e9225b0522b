#include "mapping/dependency.h"

#include <sstream>

#include "base/status.h"

namespace spider {

namespace {

void AppendAtoms(std::ostringstream& os, const std::vector<Atom>& atoms,
                 const Schema& schema,
                 const std::vector<std::string>& var_names) {
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) os << " & ";
    os << AtomToString(atoms[i], schema, var_names);
  }
}

}  // namespace

Tgd::Tgd(std::string name, std::vector<std::string> var_names,
         std::vector<Atom> lhs, std::vector<Atom> rhs, bool source_to_target)
    : name_(std::move(name)),
      var_names_(std::move(var_names)),
      lhs_(std::move(lhs)),
      rhs_(std::move(rhs)),
      source_to_target_(source_to_target) {
  SPIDER_CHECK(!lhs_.empty(), "tgd '" + name_ + "' has an empty LHS");
  SPIDER_CHECK(!rhs_.empty(), "tgd '" + name_ + "' has an empty RHS");
  universal_.assign(var_names_.size(), false);
  auto check_var = [&](const Term& t) {
    if (t.is_var()) {
      SPIDER_CHECK(t.var() >= 0 &&
                       static_cast<size_t>(t.var()) < var_names_.size(),
                   "tgd '" + name_ + "' uses a variable id outside its table");
    }
  };
  for (const Atom& atom : lhs_) {
    for (const Term& t : atom.terms) {
      check_var(t);
      if (t.is_var()) universal_[t.var()] = true;
    }
  }
  for (const Atom& atom : rhs_) {
    for (const Term& t : atom.terms) check_var(t);
  }
  for (size_t v = 0; v < universal_.size(); ++v) {
    if (!universal_[v]) existential_.push_back(static_cast<VarId>(v));
  }
}

std::vector<VarId> Tgd::UniversalVars() const {
  std::vector<VarId> vars;
  for (size_t v = 0; v < universal_.size(); ++v) {
    if (universal_[v]) vars.push_back(static_cast<VarId>(v));
  }
  return vars;
}

std::string Tgd::ToString(const Schema& source, const Schema& target) const {
  std::ostringstream os;
  os << name_ << ": ";
  AppendAtoms(os, lhs_, source_to_target_ ? source : target, var_names_);
  os << " -> ";
  const std::vector<VarId>& existential = ExistentialVars();
  if (!existential.empty()) {
    os << "exists ";
    for (size_t i = 0; i < existential.size(); ++i) {
      if (i > 0) os << ", ";
      os << var_names_[existential[i]];
    }
    os << " . ";
  }
  AppendAtoms(os, rhs_, target, var_names_);
  return os.str();
}

Egd::Egd(std::string name, std::vector<std::string> var_names,
         std::vector<Atom> lhs, VarId left, VarId right)
    : name_(std::move(name)),
      var_names_(std::move(var_names)),
      lhs_(std::move(lhs)),
      left_(left),
      right_(right) {
  SPIDER_CHECK(!lhs_.empty(), "egd '" + name_ + "' has an empty LHS");
  std::vector<bool> occurs(var_names_.size(), false);
  for (const Atom& atom : lhs_) {
    for (const Term& t : atom.terms) {
      if (t.is_var()) {
        SPIDER_CHECK(t.var() >= 0 &&
                         static_cast<size_t>(t.var()) < var_names_.size(),
                     "egd '" + name_ + "' uses a variable id outside its table");
        occurs[t.var()] = true;
      }
    }
  }
  SPIDER_CHECK(left_ >= 0 && static_cast<size_t>(left_) < occurs.size() &&
                   occurs[left_],
               "egd '" + name_ + "': equated variable missing from the LHS");
  SPIDER_CHECK(right_ >= 0 && static_cast<size_t>(right_) < occurs.size() &&
                   occurs[right_],
               "egd '" + name_ + "': equated variable missing from the LHS");
  SPIDER_CHECK(left_ != right_,
               "egd '" + name_ + "' equates a variable with itself");
}

std::string Egd::ToString(const Schema& target) const {
  std::ostringstream os;
  os << name_ << ": ";
  AppendAtoms(os, lhs_, target, var_names_);
  os << " -> " << var_names_[left_] << " = " << var_names_[right_];
  return os.str();
}

}  // namespace spider
