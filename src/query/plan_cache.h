#ifndef SPIDER_QUERY_PLAN_CACHE_H_
#define SPIDER_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "query/eval_stats.h"
#include "query/query_plan.h"

namespace spider {

class Instance;

/// Disjoint key families for plan-cache keys. Each caller that shares a
/// PlanCache picks keys from its own family so two query shapes never
/// collide: findHom's LHS/RHS selections (per tgd and probed-atom index; the
/// incremental re-fire pass asks findHom's LHS query too), the chase's
/// trigger enumeration and RHS containment check (per tgd), and the egd
/// chase's LHS enumeration (per egd). In the two trigger families atom slot
/// 0 is the whole LHS and slot a + 1 the LHS minus atom a, with a's
/// variables bound (the incremental maintainer's delta-scoped queries).
enum class PlanKeyFamily : uint64_t {
  kFindHomLhs = 1,
  kFindHomRhs = 2,
  kChaseTrigger = 3,
  kChaseRhsCheck = 4,
  kChaseEgd = 5,
};

/// Packs (family, dependency id, atom index) into a nonzero cache key.
/// `dep` is a TgdId/EgdId (families keep the two id spaces apart), `atom`
/// the probed RHS atom index for findHom keys (it determines the set of
/// initially-bound variables, which the plan depends on).
constexpr uint64_t MakePlanKey(PlanKeyFamily family, uint64_t dep,
                               uint64_t atom = 0) {
  return ((dep + 1) << 24) | ((atom & 0xffff) << 8) |
         static_cast<uint64_t>(family);
}

/// Memoizes query plans (atom order + per-level access paths) across
/// MatchIterator instantiations. findHom plans the same premise once per
/// (dependency, RHS atom) — every later probe of the same shape reuses the
/// plan instead of re-planning, which matters because
/// ComputeOneRoute/ComputeAllRoutes issue one findHom call per fact.
///
/// Keys are caller-chosen 64-bit ids that must encode everything the plan
/// depends on besides the instance and the evaluation options: the atom list
/// and the bound-variable signature (for findHom: tgd id, side, and RHS atom
/// index — the set of v1-bound variables is a function of those). The
/// evaluator mixes its own option fingerprint — planner mode, index use and
/// reordering — into the effective key before calling Get, so two iterators
/// sharing a caller key but planned under different options can never alias
/// each other's entries. Entries are additionally
/// keyed by the instance pointer and record its version, so a plan computed
/// against a target that has since been chased further is transparently
/// re-planned — and several sessions debugging *different* scenarios can
/// share one cache without thrashing each other's entries (spider::serve
/// hands every DebugSession the same process-wide cache). Plans must be
/// value-independent (the selectivity planner only consults per-column
/// statistics and constants, never the values currently bound), so a cached
/// order is correct — and deterministic — for every probe sharing the key.
///
/// Bounded mode: constructed with a nonzero byte budget the cache becomes an
/// LRU tier — every Get() refreshes the entry's recency, and inserts evict
/// the coldest entries until the (approximate, per-entry accounted) total
/// fits the budget again. Eviction only costs a re-plan, never correctness;
/// the "query.plan_cache.evictions" counter and ".bytes" gauge record the
/// churn. The default (budget 0) is unbounded, preserving the exactly-once
/// planning guarantee the engines' deterministic stats rely on.
///
/// Owners of bounded shared caches must call Forget(&instance) before an
/// instance dies: entries are keyed by pointer, and a later instance
/// allocated at the same address could otherwise inherit a stale plan.
///
/// Thread-safe: route-forest waves share one cache across exec workers.
/// Planning happens under the lock, so each (key, instance, version) is
/// planned exactly once regardless of scheduling — keeping plans_built /
/// plan_cache_hits totals byte-identical at every thread count (in
/// unbounded mode; eviction makes re-planning timing-dependent).
class PlanCache {
 public:
  PlanCache() = default;
  /// Bounded LRU mode; `max_bytes` = 0 is the unbounded default.
  explicit PlanCache(size_t max_bytes) : max_bytes_(max_bytes) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` against `instance`, planning via
  /// `plan` (and storing the result) on miss or version mismatch. Charges
  /// plans_built or plan_cache_hits to `stats` when non-null. The returned
  /// pointer stays valid after eviction (shared ownership) — iterators keep
  /// using their plan even if the LRU tier drops the entry mid-flight.
  std::shared_ptr<const QueryPlan> Get(uint64_t key, const Instance& instance,
                                       const std::function<QueryPlan()>& plan,
                                       EvalStats* stats);

  /// Drops every entry keyed by `instance`. Sessions sharing a bounded
  /// cache call this as they destroy their instances.
  void Forget(const Instance* instance);

  size_t size() const;
  /// Approximate bytes held (entry overhead + atom orders); 0 when empty.
  size_t bytes() const;
  size_t max_bytes() const { return max_bytes_; }
  /// Entries evicted by the byte budget (never counts Forget()).
  uint64_t evictions() const;

 private:
  struct MapKey {
    uint64_t key = 0;
    const Instance* instance = nullptr;
    friend bool operator==(const MapKey&, const MapKey&) = default;
  };
  struct MapKeyHash {
    size_t operator()(const MapKey& k) const {
      return HashCombine(std::hash<uint64_t>{}(k.key),
                         std::hash<const void*>{}(k.instance));
    }
  };
  struct Entry {
    uint64_t version = 0;
    std::shared_ptr<const QueryPlan> plan;
    /// Position in lru_ (front = most recently used). Only maintained in
    /// bounded mode.
    std::list<MapKey>::iterator lru;
  };

  static size_t EntryBytes(const Entry& entry);
  /// Evicts coldest entries until bytes_ <= max_bytes_ (keeps at least the
  /// most recent entry). Caller holds mu_.
  void EvictLocked();

  mutable std::mutex mu_;
  size_t max_bytes_ = 0;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
  std::list<MapKey> lru_;
  std::unordered_map<MapKey, Entry, MapKeyHash> entries_;
};

}  // namespace spider

#endif  // SPIDER_QUERY_PLAN_CACHE_H_
