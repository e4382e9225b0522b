#ifndef SPIDER_INCREMENTAL_ROUTE_CACHE_H_
#define SPIDER_INCREMENTAL_ROUTE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "incremental/delta_chase.h"
#include "incremental/fact_key.h"
#include "mapping/schema_mapping.h"
#include "obs/fields.h"
#include "routes/route.h"
#include "routes/route_forest.h"
#include "storage/instance.h"

namespace spider {

struct RouteCacheStats : obs::FieldStats<RouteCacheStats> {
  size_t route_hits = 0;
  size_t route_misses = 0;
  size_t forest_hits = 0;
  size_t forest_misses = 0;
  size_t route_evictions = 0;
  size_t forest_evictions = 0;
  size_t clears = 0;  ///< Wholesale drops (full re-chase batches).
  /// Least recently used routes dropped to stay within the capacity.
  size_t route_capacity_evictions = 0;

  static constexpr std::tuple kFields{
      obs::Field{"route_hits", &RouteCacheStats::route_hits},
      obs::Field{"route_misses", &RouteCacheStats::route_misses},
      obs::Field{"forest_hits", &RouteCacheStats::forest_hits},
      obs::Field{"forest_misses", &RouteCacheStats::forest_misses},
      obs::Field{"route_evictions", &RouteCacheStats::route_evictions},
      obs::Field{"forest_evictions", &RouteCacheStats::forest_evictions},
      obs::Field{"clears", &RouteCacheStats::clears},
      obs::Field{"route_capacity_evictions",
                 &RouteCacheStats::route_capacity_evictions}};

  bool operator==(const RouteCacheStats&) const = default;
};

/// The content keys of every fact a route touches: per step, the
/// instantiated LHS facts (source side for an s-t tgd, target otherwise)
/// and the instantiated RHS facts. A cached route stays valid exactly while
/// all of these exist — routes only require facts to be PRESENT, so source
/// or target additions never invalidate one; removals and egd rewrites of
/// any dependency do.
std::vector<FactKey> RouteDependencies(const SchemaMapping& mapping,
                                       const Route& route);

/// Caches computed routes and route forests across edits of the debugged
/// scenario, keyed by the probed fact's content. Invalidate() consumes the
/// fact-level delta the IncrementalChaser reports:
///   * routes are dropped when any dependency fact was removed (or rewritten
///     — the old key appears in `removed`); additions never evict a route.
///     A reverse index from each dependency's FactKeyHash to the cached
///     routes that use it limits the work to the routes indexed under a
///     removed fact's hash; each such candidate is confirmed against its
///     recomputed RouteDependencies, so a hash collision costs a check but
///     never an eviction. An entry stores its route only: the hashes of its
///     dependencies are derived from the route and the mapping, without
///     building the facts' tuples, when the entry is indexed and again
///     when it leaves.
///   * forests are dropped on ANY removal (their FactRefs carry row indexes,
///     which deletions and substitutions destabilize), and on additions that
///     could grow a node's branch list: an added fact matching the LHS side
///     and relation of some tgd — or an added target fact in a tgd's RHS
///     relations — threatens that tgd's RHS relations, and a forest owning a
///     node in a threatened relation is evicted.
/// A full re-chase clears everything.
///
/// At most `max_routes` routes stay cached: a PutRoute beyond that drops the
/// least recently used route (found or put). Without the bound the cache
/// grows with the number of distinct facts probed, so memory and hit rate
/// would depend on how long the session has run rather than on what it
/// probes again.
class RouteCache {
 public:
  static constexpr size_t kDefaultMaxRoutes = size_t{1} << 15;

  /// `mapping` (not owned) is the mapping every cached route belongs to; it
  /// must outlive the cache and stay unchanged. `max_routes` is at least 1.
  explicit RouteCache(const SchemaMapping* mapping,
                      size_t max_routes = kDefaultMaxRoutes);

  /// Returns the cached route for the probed fact, or nullptr (each call
  /// counts a hit or a miss). A hit makes the route the most recently used.
  const Route* FindRoute(const FactKey& fact);
  /// Stores (replacing any previous entry) and returns the cached copy,
  /// dropping the least recently used route when the cache is full.
  const Route& PutRoute(const FactKey& fact, Route route);

  /// Returns the cached forest for the probed fact, or nullptr. The pointer
  /// stays valid until the entry is evicted (entries hold shared ownership,
  /// so a forest installed from the cross-session SharedRouteCache tier
  /// outlives that tier's eviction).
  RouteForest* FindForest(const FactKey& fact);
  /// Stores (replacing any previous entry) and returns the cached copy.
  RouteForest& PutForest(const FactKey& fact, RouteForest forest);
  /// Same, sharing ownership of an already-built (fully expanded) forest —
  /// the install path for SharedRouteCache hits.
  RouteForest& PutForest(const FactKey& fact,
                         std::shared_ptr<RouteForest> forest);

  void Invalidate(const ApplyDeltaResult& delta);
  void Clear();

  size_t NumRoutes() const { return routes_.size(); }
  size_t NumForests() const { return forests_.size(); }
  const RouteCacheStats& stats() const { return stats_; }

 private:
  /// Recency order of the cached routes' keys, most recent first.
  using RecencyList = std::list<const FactKey*>;
  struct RouteEntry {
    Route route;
    RecencyList::iterator recency;
  };
  using RouteMap = std::unordered_map<FactKey, RouteEntry, FactKeyHash>;

  struct ForestEntry {
    std::shared_ptr<RouteForest> forest;
    std::unordered_set<RelationId> node_relations;
    explicit ForestEntry(std::shared_ptr<RouteForest> f)
        : forest(std::move(f)) {}
  };

  /// The reverse index: a multimap from a dependency's FactKeyHash to the
  /// key (owned by a routes_ node, so stable) of a cached route that
  /// depends on a fact with that hash, one entry per distinct hash of each
  /// route. Open addressing with linear probing over one flat array, so an
  /// add, remove or lookup touches about one cache line; a node-based map
  /// cost several cache misses per call, once per dependency of every
  /// route put or dropped.
  class DependencyIndex {
   public:
    void Add(uint64_t hash, const FactKey* route);
    /// Removes the (hash, route) entry if present.
    void Remove(uint64_t hash, const FactKey* route);
    /// Appends the routes indexed under `hash` to `out`.
    void Find(uint64_t hash, std::vector<const FactKey*>* out) const;
    void Clear();

   private:
    /// A slot with no route is empty (hash 0) or erased (hash 1); probes
    /// stop at an empty slot only.
    struct Slot {
      uint64_t hash = 0;
      const FactKey* route = nullptr;
    };
    size_t Home(uint64_t hash) const;
    void Insert(uint64_t hash, const FactKey* route);

    std::vector<Slot> slots_;  ///< Power-of-two size, at most half used.
    size_t live_ = 0;
    size_t used_ = 0;  ///< Live plus erased slots.
  };

  /// Drops a cached route and its index entries.
  void EraseRoute(RouteMap::iterator it);

  const SchemaMapping* mapping_;
  size_t max_routes_;
  RouteMap routes_;
  RecencyList recency_;
  DependencyIndex by_dep_;
  std::unordered_map<FactKey, ForestEntry, FactKeyHash> forests_;
  RouteCacheStats stats_;
};

}  // namespace spider

#endif  // SPIDER_INCREMENTAL_ROUTE_CACHE_H_
