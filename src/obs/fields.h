#ifndef SPIDER_OBS_FIELDS_H_
#define SPIDER_OBS_FIELDS_H_

#include <string>
#include <tuple>
#include <type_traits>

#include "obs/metrics.h"

namespace spider::obs {

/// One entry of a stats struct's field list: a registry name and a member.
template <typename T, typename M>
struct Field {
  const char* name;
  M T::*member;
};
template <typename T, typename M>
Field(const char*, M T::*) -> Field<T, M>;

/// Base of a stats struct T that lists each member once, as
///   static constexpr std::tuple kFields{obs::Field{"x", &T::x}, ...};
/// Every per-field operation below is derived from that list. A member is
/// an integer count, a double (milliseconds), or another FieldStats struct,
/// which nests under "<name>.". Engines bump the plain members on their hot
/// paths and publish merged totals once per entry point.
template <typename T>
struct FieldStats {
  /// Merges another worker's stats (parallel regions sum per-task stats at
  /// the join in canonical task order, so totals are exact).
  friend T& operator+=(T& total, const T& other) {
    ForEachField([&](auto f) { total.*f.member += other.*f.member; });
    return total;
  }

  /// The work done since the `since` snapshot of the same accumulator.
  friend T operator-(T now, const T& since) {
    ForEachField([&](auto f) {
      now.*f.member = now.*f.member - since.*f.member;
    });
    return now;
  }

  /// Adds every non-zero field to the registry under `prefix` (e.g.
  /// "chase."): an integer as a counter increment, a double as one histogram
  /// sample. A zero field publishes nothing, so an absent key reads as zero.
  void PublishTo(Registry* registry, const std::string& prefix) const {
    ForEachField([&](auto f) {
      const auto& value = static_cast<const T&>(*this).*f.member;
      using M = std::decay_t<decltype(value)>;
      if constexpr (std::is_floating_point_v<M>) {
        if (value > 0) registry->GetHistogram(prefix + f.name)->Record(value);
      } else if constexpr (std::is_integral_v<M>) {
        if (value > 0) registry->GetCounter(prefix + f.name)->Add(value);
      } else {
        value.PublishTo(registry, prefix + f.name + ".");
      }
    });
  }

  /// One "<prefix><name> <value>\n" line per field, in declaration order
  /// (flat structs only: a nested struct has no single value).
  std::string Render(const std::string& prefix) const {
    std::string out;
    ForEachField([&](auto f) {
      out += prefix + f.name + " " +
             std::to_string(static_cast<const T&>(*this).*f.member) + "\n";
    });
    return out;
  }

  /// Lets T's defaulted operator== compare this empty base.
  bool operator==(const FieldStats&) const = default;

 private:
  template <typename Fn>
  static void ForEachField(const Fn& fn) {
    std::apply([&](auto... field) { (fn(field), ...); }, T::kFields);
  }
};

}  // namespace spider::obs

#endif  // SPIDER_OBS_FIELDS_H_
