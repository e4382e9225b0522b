#ifndef SPIDER_INCREMENTAL_SHARED_ROUTE_CACHE_H_
#define SPIDER_INCREMENTAL_SHARED_ROUTE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "incremental/fact_key.h"
#include "obs/fields.h"
#include "routes/route.h"
#include "routes/route_forest.h"

namespace spider {

struct SharedRouteCacheStats : obs::FieldStats<SharedRouteCacheStats> {
  uint64_t route_hits = 0;
  uint64_t route_misses = 0;
  uint64_t forest_hits = 0;
  uint64_t forest_misses = 0;
  uint64_t evictions = 0;
  size_t bytes = 0;
  size_t entries = 0;

  static constexpr std::tuple kFields{
      obs::Field{"route_hits", &SharedRouteCacheStats::route_hits},
      obs::Field{"route_misses", &SharedRouteCacheStats::route_misses},
      obs::Field{"forest_hits", &SharedRouteCacheStats::forest_hits},
      obs::Field{"forest_misses", &SharedRouteCacheStats::forest_misses},
      obs::Field{"evictions", &SharedRouteCacheStats::evictions},
      obs::Field{"bytes", &SharedRouteCacheStats::bytes},
      obs::Field{"entries", &SharedRouteCacheStats::entries}};

  bool operator==(const SharedRouteCacheStats&) const = default;
};

/// The cross-session tier of the route cache (spider::serve): routes and
/// route forests keyed by (state key, probed fact), shared by every
/// DebugSession in the process so a hot mapping debugged by many sessions
/// is only ever computed once per edit state.
///
/// The state key is a fingerprint of the session's *entire history* — the
/// opening scenario content chained with every applied delta (see
/// DebugSession::state_key()). Two sessions holding the same state key have
/// byte-identical instances (spider's engines are deterministic), so their
/// routes, forests (including row-indexed FactRefs) and rendered output are
/// interchangeable; an Apply() moves the session to a fresh key, so stale
/// entries are never *served* — they merely age out of the LRU. That makes
/// the shared tier invalidation-free by construction, while each session's
/// local RouteCache keeps the fine-grained dependency invalidation that
/// lets entries survive unrelated edits.
///
/// Entries are immutable once inserted and handed out as shared_ptr, so a
/// session may keep rendering a forest the tier has since evicted. Bounded:
/// byte-accounted (approximate per-entry sizes) LRU within `max_bytes`.
///
/// Thread-safe; all operations take one mutex. Hits/misses/evictions and
/// the byte level are mirrored to obs under "shared_cache.*".
class SharedRouteCache {
 public:
  explicit SharedRouteCache(size_t max_bytes = 64u << 20)
      : max_bytes_(max_bytes) {}
  SharedRouteCache(const SharedRouteCache&) = delete;
  SharedRouteCache& operator=(const SharedRouteCache&) = delete;

  /// Returns the cached route or nullptr. Counts a hit or a miss.
  std::shared_ptr<const Route> FindRoute(uint64_t state, const FactKey& fact);
  /// Stores a copy-in entry and returns it.
  std::shared_ptr<const Route> PutRoute(uint64_t state, const FactKey& fact,
                                        Route route);

  /// Returns the cached (fully expanded, immutable by convention) forest or
  /// nullptr. Callers must only read it through FactRef-based accessors and
  /// their own instances — the forest's internal scenario pointers belong
  /// to whichever session built it.
  std::shared_ptr<RouteForest> FindForest(uint64_t state, const FactKey& fact);
  std::shared_ptr<RouteForest> PutForest(uint64_t state, const FactKey& fact,
                                         std::shared_ptr<RouteForest> forest);

  SharedRouteCacheStats stats() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Key {
    uint64_t state = 0;
    uint8_t kind = 0;  ///< 0 = route, 1 = forest.
    FactKey fact;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = HashCombine(std::hash<uint64_t>{}(k.state), k.kind);
      return HashCombine(seed, FactKeyHash{}(k.fact));
    }
  };
  struct Entry {
    std::shared_ptr<const Route> route;
    std::shared_ptr<RouteForest> forest;
    size_t bytes = 0;
    std::list<Key>::iterator lru;
  };

  /// Caller holds mu_. Inserts (replacing any previous entry) and evicts
  /// down to the budget, keeping at least the entry just inserted.
  void InsertLocked(Key key, Entry entry);
  void EvictLocked();
  void PublishLevelLocked() const;

  mutable std::mutex mu_;
  size_t max_bytes_;
  size_t bytes_ = 0;
  SharedRouteCacheStats stats_;
  std::list<Key> lru_;  ///< Front = most recently used.
  std::unordered_map<Key, Entry, KeyHash> entries_;
};

/// Approximate heap footprint of cached values, used for byte accounting.
size_t ApproxRouteBytes(const Route& route);
size_t ApproxForestBytes(const RouteForest& forest);

}  // namespace spider

#endif  // SPIDER_INCREMENTAL_SHARED_ROUTE_CACHE_H_
