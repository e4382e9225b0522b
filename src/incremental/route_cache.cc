#include "incremental/route_cache.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <utility>

#include "base/hash.h"
#include "base/status.h"
#include "obs/trace.h"

namespace spider {

namespace {

/// One cache event on the Perfetto track, so a trace shows the
/// hit/miss/evict pattern of the edit/re-debug loop. The counters travel
/// through RouteCacheStats, which DebugSession publishes once per call.
void CacheEvent(const char* instant, int64_t count = 1) {
  obs::Tracer::Global().RecordInstant("cache", instant, {{"count", count}});
}

/// FactKeyHash of the fact `atom` instantiates under `h` on `side`, computed
/// without building its tuple.
uint64_t DependencyHash(Side side, const Atom& atom, const Binding& h) {
  size_t tuple = kTupleHashSeed;
  for (const Term& term : atom.terms) {
    const Value& value = term.is_const() ? term.value() : h.Get(term.var());
    tuple = HashCombine(tuple, value.Hash());
  }
  size_t seed = static_cast<size_t>(side);
  seed = HashCombine(seed, std::hash<int32_t>{}(atom.relation));
  return HashCombine(seed, tuple);
}

/// The distinct FactKeyHash values of a route's RouteDependencies: the keys
/// under which the dependency index holds the route.
std::vector<uint64_t> DependencyHashes(const SchemaMapping& mapping,
                                       const Route& route) {
  std::vector<uint64_t> hashes;
  for (const SatStep& step : route.steps()) {
    const Tgd& tgd = mapping.tgd(step.tgd);
    Side lhs_side = tgd.source_to_target() ? Side::kSource : Side::kTarget;
    for (const Atom& atom : tgd.lhs()) {
      hashes.push_back(DependencyHash(lhs_side, atom, step.h));
    }
    for (const Atom& atom : tgd.rhs()) {
      hashes.push_back(DependencyHash(Side::kTarget, atom, step.h));
    }
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

}  // namespace

std::vector<FactKey> RouteDependencies(const SchemaMapping& mapping,
                                       const Route& route) {
  std::vector<FactKey> deps;
  std::unordered_set<FactKey, FactKeyHash> seen;
  auto add = [&](Side side, const Atom& atom, const Binding& h) {
    FactKey key{side, atom.relation, h.Instantiate(atom)};
    if (seen.insert(key).second) deps.push_back(std::move(key));
  };
  for (const SatStep& step : route.steps()) {
    const Tgd& tgd = mapping.tgd(step.tgd);
    Side lhs_side = tgd.source_to_target() ? Side::kSource : Side::kTarget;
    for (const Atom& atom : tgd.lhs()) add(lhs_side, atom, step.h);
    for (const Atom& atom : tgd.rhs()) add(Side::kTarget, atom, step.h);
  }
  return deps;
}

RouteCache::RouteCache(const SchemaMapping* mapping, size_t max_routes)
    : mapping_(mapping), max_routes_(max_routes) {
  SPIDER_CHECK(max_routes_ > 0, "a route cache holds at least one route");
}

const Route* RouteCache::FindRoute(const FactKey& fact) {
  auto it = routes_.find(fact);
  if (it == routes_.end()) {
    ++stats_.route_misses;
    CacheEvent("route_miss");
    return nullptr;
  }
  ++stats_.route_hits;
  CacheEvent("route_hit");
  recency_.splice(recency_.begin(), recency_, it->second.recency);
  return &it->second.route;
}

const Route& RouteCache::PutRoute(const FactKey& fact, Route route) {
  if (auto old = routes_.find(fact); old != routes_.end()) {
    EraseRoute(old);
  } else if (routes_.size() >= max_routes_) {
    EraseRoute(routes_.find(*recency_.back()));
    ++stats_.route_capacity_evictions;
    CacheEvent("route_capacity_evict");
  }
  auto it = routes_.emplace(fact, RouteEntry{std::move(route), {}}).first;
  recency_.push_front(&it->first);
  it->second.recency = recency_.begin();
  for (uint64_t hash : DependencyHashes(*mapping_, it->second.route)) {
    by_dep_.Add(hash, &it->first);
  }
  return it->second.route;
}

void RouteCache::EraseRoute(RouteMap::iterator it) {
  for (uint64_t hash : DependencyHashes(*mapping_, it->second.route)) {
    by_dep_.Remove(hash, &it->first);
  }
  recency_.erase(it->second.recency);
  routes_.erase(it);
}

size_t RouteCache::DependencyIndex::Home(uint64_t hash) const {
  // FactKeyHash leaves low bits poorly mixed; finish it before masking.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return static_cast<size_t>(hash) & (slots_.size() - 1);
}

void RouteCache::DependencyIndex::Add(uint64_t hash, const FactKey* route) {
  if ((used_ + 1) * 2 > slots_.size()) {
    // Grow, or just drop the erased slots, keeping the load under a half.
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::bit_ceil(2 * (live_ + 1) + 14)));
    live_ = used_ = 0;
    for (const Slot& slot : old) {
      if (slot.route != nullptr) Insert(slot.hash, slot.route);
    }
  }
  Insert(hash, route);
}

void RouteCache::DependencyIndex::Insert(uint64_t hash,
                                         const FactKey* route) {
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.route != nullptr) continue;
    if (slot.hash == 0) ++used_;
    slot = Slot{hash, route};
    ++live_;
    return;
  }
}

void RouteCache::DependencyIndex::Remove(uint64_t hash,
                                         const FactKey* route) {
  if (slots_.empty()) return;
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.route == route && slot.hash == hash) {
      slot = Slot{1, nullptr};
      --live_;
      return;
    }
    if (slot.route == nullptr && slot.hash == 0) return;
  }
}

void RouteCache::DependencyIndex::Find(
    uint64_t hash, std::vector<const FactKey*>* out) const {
  if (slots_.empty()) return;
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.route == nullptr && slot.hash == 0) return;
    if (slot.route != nullptr && slot.hash == hash) out->push_back(slot.route);
  }
}

void RouteCache::DependencyIndex::Clear() {
  slots_ = std::vector<Slot>();
  live_ = used_ = 0;
}

RouteForest* RouteCache::FindForest(const FactKey& fact) {
  auto it = forests_.find(fact);
  if (it == forests_.end()) {
    ++stats_.forest_misses;
    CacheEvent("forest_miss");
    return nullptr;
  }
  ++stats_.forest_hits;
  CacheEvent("forest_hit");
  return it->second.forest.get();
}

RouteForest& RouteCache::PutForest(const FactKey& fact, RouteForest forest) {
  return PutForest(fact, std::make_shared<RouteForest>(std::move(forest)));
}

RouteForest& RouteCache::PutForest(const FactKey& fact,
                                   std::shared_ptr<RouteForest> forest) {
  forests_.erase(fact);
  auto [it, inserted] = forests_.emplace(fact, ForestEntry(std::move(forest)));
  for (const RouteForest::Node& node : it->second.forest->nodes()) {
    it->second.node_relations.insert(node.fact.relation);
  }
  return *it->second.forest;
}

void RouteCache::Invalidate(const ApplyDeltaResult& delta) {
  if (delta.full_rechase) {
    Clear();
    return;
  }

  if (!delta.removed.empty()) {
    // Candidates: the routes indexed under a removed fact's hash, each once.
    std::vector<const FactKey*> candidates;
    for (const FactKey& key : delta.removed) {
      by_dep_.Find(FactKeyHash{}(key), &candidates);
    }
    std::sort(candidates.begin(), candidates.end(), std::less<>());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    // Confirm each against its exact dependencies: a hash collision makes a
    // candidate, never an eviction.
    std::unordered_set<FactKey, FactKeyHash> removed(delta.removed.begin(),
                                                     delta.removed.end());
    int64_t evicted = 0;
    for (const FactKey* key : candidates) {
      auto it = routes_.find(*key);
      std::vector<FactKey> deps =
          RouteDependencies(*mapping_, it->second.route);
      bool stale = std::any_of(deps.begin(), deps.end(), [&](const FactKey& d) {
        return removed.find(d) != removed.end();
      });
      if (!stale) continue;
      EraseRoute(it);
      ++stats_.route_evictions;
      ++evicted;
    }
    if (evicted > 0) CacheEvent("route_evict", evicted);
    // Removals (including egd rewrites) renumber rows, and forests hold
    // row-indexed FactRefs — every forest goes.
    stats_.forest_evictions += forests_.size();
    if (!forests_.empty()) {
      CacheEvent("forest_evict", static_cast<int64_t>(forests_.size()));
    }
    forests_.clear();
  }

  if (delta.added.empty() || forests_.empty()) return;

  // Additions: rows are append-stable and routes only require presence, so
  // cached routes all survive. Forests may be missing newly enabled
  // branches; compute which target relations could now host one.
  std::unordered_set<RelationId> threatened;
  for (size_t t = 0; t < mapping_->NumTgds(); ++t) {
    const Tgd& tgd = mapping_->tgd(static_cast<TgdId>(t));
    Side lhs_side = tgd.source_to_target() ? Side::kSource : Side::kTarget;
    bool hit = false;
    for (const FactKey& key : delta.added) {
      if (key.side == lhs_side) {
        for (const Atom& atom : tgd.lhs()) {
          if (atom.relation == key.relation) {
            hit = true;
            break;
          }
        }
      }
      if (!hit && key.side == Side::kTarget) {
        for (const Atom& atom : tgd.rhs()) {
          if (atom.relation == key.relation) {
            hit = true;
            break;
          }
        }
      }
      if (hit) break;
    }
    if (!hit) continue;
    for (const Atom& atom : tgd.rhs()) threatened.insert(atom.relation);
  }
  if (threatened.empty()) return;
  int64_t evicted = 0;
  for (auto it = forests_.begin(); it != forests_.end();) {
    bool stale = false;
    for (RelationId rel : it->second.node_relations) {
      if (threatened.find(rel) != threatened.end()) {
        stale = true;
        break;
      }
    }
    if (stale) {
      it = forests_.erase(it);
      ++stats_.forest_evictions;
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) CacheEvent("forest_evict", evicted);
}

void RouteCache::Clear() {
  stats_.route_evictions += routes_.size();
  stats_.forest_evictions += forests_.size();
  if (!routes_.empty()) {
    CacheEvent("route_evict", static_cast<int64_t>(routes_.size()));
  }
  if (!forests_.empty()) {
    CacheEvent("forest_evict", static_cast<int64_t>(forests_.size()));
  }
  routes_.clear();
  recency_.clear();
  by_dep_.Clear();
  forests_.clear();
  ++stats_.clears;
  CacheEvent("clear");
}

}  // namespace spider
