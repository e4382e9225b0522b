#include "incremental/shared_route_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace spider {

namespace {

void CountEvent(const char* name, uint64_t count = 1) {
  if (obs::MetricsEnabled()) {
    obs::Registry::Global().GetCounter(name)->Add(count);
  }
}

}  // namespace

size_t ApproxRouteBytes(const Route& route) {
  size_t bytes = 64;
  for (const SatStep& step : route.steps()) {
    bytes += sizeof(SatStep) + step.h.size() * 24;
  }
  return bytes;
}

size_t ApproxForestBytes(const RouteForest& forest) {
  size_t bytes = 128;
  for (const RouteForest::Node& node : forest.nodes()) {
    bytes += sizeof(RouteForest::Node) + 32;
    for (const RouteForest::Branch& branch : node.branches) {
      bytes += sizeof(RouteForest::Branch) + branch.h.size() * 24 +
               (branch.lhs_facts.size() + branch.rhs_facts.size()) *
                   sizeof(FactRef);
    }
  }
  return bytes;
}

std::shared_ptr<const Route> SharedRouteCache::FindRoute(uint64_t state,
                                                         const FactKey& fact) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{state, 0, fact});
  if (it == entries_.end()) {
    ++stats_.route_misses;
    CountEvent("shared_cache.route_misses");
    return nullptr;
  }
  ++stats_.route_hits;
  CountEvent("shared_cache.route_hits");
  if (it->second.lru != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  return it->second.route;
}

std::shared_ptr<const Route> SharedRouteCache::PutRoute(uint64_t state,
                                                        const FactKey& fact,
                                                        Route route) {
  auto entry = std::make_shared<const Route>(std::move(route));
  std::lock_guard<std::mutex> lock(mu_);
  Entry slot;
  slot.route = entry;
  slot.bytes = ApproxRouteBytes(*entry);
  InsertLocked(Key{state, 0, fact}, std::move(slot));
  return entry;
}

std::shared_ptr<RouteForest> SharedRouteCache::FindForest(uint64_t state,
                                                          const FactKey& fact) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{state, 1, fact});
  if (it == entries_.end()) {
    ++stats_.forest_misses;
    CountEvent("shared_cache.forest_misses");
    return nullptr;
  }
  ++stats_.forest_hits;
  CountEvent("shared_cache.forest_hits");
  if (it->second.lru != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  return it->second.forest;
}

std::shared_ptr<RouteForest> SharedRouteCache::PutForest(
    uint64_t state, const FactKey& fact, std::shared_ptr<RouteForest> forest) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry slot;
  slot.forest = forest;
  slot.bytes = ApproxForestBytes(*forest);
  InsertLocked(Key{state, 1, fact}, std::move(slot));
  return forest;
}

void SharedRouteCache::InsertLocked(Key key, Entry entry) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    entries_.erase(it);
  }
  lru_.push_front(key);
  entry.lru = lru_.begin();
  bytes_ += entry.bytes;
  entries_.emplace(std::move(key), std::move(entry));
  EvictLocked();
  PublishLevelLocked();
}

void SharedRouteCache::EvictLocked() {
  uint64_t evicted = 0;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    auto victim = entries_.find(lru_.back());
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++evicted;
  }
  if (evicted > 0) {
    stats_.evictions += evicted;
    CountEvent("shared_cache.evictions", evicted);
  }
}

void SharedRouteCache::PublishLevelLocked() const {
  if (!obs::MetricsEnabled()) return;
  obs::Registry& registry = obs::Registry::Global();
  registry.GetGauge("shared_cache.bytes")->Set(static_cast<int64_t>(bytes_));
  registry.GetGauge("shared_cache.entries")
      ->Set(static_cast<int64_t>(entries_.size()));
}

SharedRouteCacheStats SharedRouteCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SharedRouteCacheStats stats = stats_;
  stats.bytes = bytes_;
  stats.entries = entries_.size();
  return stats;
}

}  // namespace spider
