#include "routes/route_forest.h"

#include <ostream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "base/status.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routes/fact_util.h"
#include "routes/find_hom.h"

namespace spider {

RouteForest::RouteForest(const SchemaMapping& mapping, const Instance& source,
                         const Instance& target, std::vector<FactRef> roots,
                         const RouteOptions& options)
    : mapping_(&mapping),
      source_(&source),
      target_(&target),
      roots_(std::move(roots)),
      options_(options) {
  if (options_.eval.plan_cache == nullptr) {
    owned_plan_cache_ = std::make_unique<PlanCache>();
    options_.eval.plan_cache = owned_plan_cache_.get();
  }
  for (const FactRef& f : roots_) {
    SPIDER_CHECK(f.side == Side::kTarget,
                 "route forests are rooted at target facts");
  }
}

RouteForest::Node& RouteForest::GetOrCreate(const FactRef& fact) {
  auto it = node_of_.find(fact);
  if (it != node_of_.end()) return nodes_[it->second];
  node_of_.emplace(fact, nodes_.size());
  nodes_.push_back(Node{fact, false, {}});
  return nodes_.back();
}

std::vector<RouteForest::Branch> RouteForest::ComputeBranches(
    const FactRef& fact, RouteStats* stats) const {
  std::vector<Branch> branches;
  // Steps 2 and 3 of ComputeAllRoutes: one branch per (σ, h) pair, s-t tgds
  // first, then target tgds.
  auto add_branches = [&](const std::vector<TgdId>& tgds) {
    for (TgdId tgd : tgds) {
      FindHomIterator it(*mapping_, *source_, *target_, fact, tgd, options_);
      Binding h;
      while (it.Next(&h)) {
        Branch branch;
        branch.tgd = tgd;
        branch.h = h;
        branch.lhs_facts = LhsFacts(*mapping_, tgd, h, *source_, *target_);
        branch.rhs_facts = RhsFacts(*mapping_, tgd, h, *target_);
        branches.push_back(std::move(branch));
      }
      *stats += it.stats();
    }
  };
  add_branches(mapping_->st_tgds());
  add_branches(mapping_->target_tgds());
  return branches;
}

void RouteForest::InstallBranches(Node* node, std::vector<Branch> branches) {
  node->expanded = true;
  ++stats_.nodes_expanded;
  stats_.branches_added += branches.size();
  node->branches = std::move(branches);
}

const RouteForest::Node& RouteForest::Expand(const FactRef& fact) {
  ThrowIfCancelled(options_.cancel);
  Node& node = GetOrCreate(fact);
  if (node.expanded) return node;
  std::vector<Branch> branches = ComputeBranches(fact, &stats_);
  InstallBranches(&node, std::move(branches));
  return node;
}

const RouteForest::Node* RouteForest::Find(const FactRef& fact) const {
  auto it = node_of_.find(fact);
  return it == node_of_.end() ? nullptr : &nodes_[it->second];
}

void RouteForest::ExpandAll() {
  obs::TraceSpan expand_span("routes", "expand_all");
  expand_span.AddArg("roots", static_cast<int64_t>(roots_.size()));
  ThreadPool* pool = ThreadPool::For(options_.exec);
  if (pool != nullptr && options_.eval.use_indexes) {
    // Lazy index builds mutate shared state; warm before the fan-out.
    source_->WarmIndexes();
    target_->WarmIndexes();
  }
  // Wave-parallel BFS from the roots; see the header. `scheduled` prevents
  // a fact reached from two parents (in the same or different waves) from
  // being expanded twice.
  std::unordered_set<FactRef, FactRefHash> scheduled;
  std::vector<FactRef> frontier;
  auto schedule = [&](const FactRef& fact) {
    const Node* node = Find(fact);
    if (node != nullptr && node->expanded) return;
    if (scheduled.insert(fact).second) frontier.push_back(fact);
  };
  for (const FactRef& root : roots_) schedule(root);
  int64_t wave_index = 0;
  while (!frontier.empty()) {
    obs::TraceSpan wave_span("routes", "wave");
    wave_span.AddArg("wave", wave_index++);
    wave_span.AddArg("frontier", static_cast<int64_t>(frontier.size()));
    std::vector<std::vector<Branch>> branches(frontier.size());
    std::vector<RouteStats> worker_stats(frontier.size());
    ParallelFor(pool, 0, frontier.size(), /*grain=*/1, [&](size_t i) {
      obs::TraceSpan node_span("routes", "expand_node");
      try {
        branches[i] = ComputeBranches(frontier[i], &worker_stats[i]);
      } catch (const CancelledError&) {
        // Swallowed here so concurrent leaves don't race to fail the task
        // group (which would wrap the typed error); the join below rethrows
        // exactly one CancelledError off the still-flipped token.
        branches[i].clear();
      }
    }, options_.cancel);
    // Abandon the whole wave before installing anything: a cancelled forest
    // must never hold a half-expanded frontier (the serve layer would cache
    // it as if complete).
    ThrowIfCancelled(options_.cancel);
    std::vector<FactRef> wave = std::move(frontier);
    frontier.clear();
    for (size_t i = 0; i < wave.size(); ++i) {
      stats_ += worker_stats[i];
      InstallBranches(&GetOrCreate(wave[i]), std::move(branches[i]));
    }
    // Discover the next wave only after the whole wave is installed, so
    // sibling references resolve to this wave's nodes, not to duplicates.
    for (const FactRef& fact : wave) {
      for (const Branch& branch : Find(fact)->branches) {
        if (mapping_->tgd(branch.tgd).source_to_target()) continue;
        for (const FactRef& child : branch.lhs_facts) schedule(child);
      }
    }
  }
}

size_t RouteForest::NumBranches() const {
  size_t total = 0;
  for (const Node& node : nodes_) total += node.branches.size();
  return total;
}

size_t RouteForest::NumExpandedNodes() const {
  size_t total = 0;
  for (const Node& node : nodes_) {
    if (node.expanded) ++total;
  }
  return total;
}

void RouteForest::AppendNode(
    std::ostream& os, const FactRef& fact, int indent,
    std::unordered_map<FactRef, bool, FactRefHash>* printed) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const Node* node = Find(fact);
  os << pad << FactToString(fact, *source_, *target_);
  if (node == nullptr || !node->expanded) {
    os << "  [unexpanded]\n";
    return;
  }
  auto it = printed->find(fact);
  if (it != printed->end()) {
    os << "  [see above]\n";
    return;
  }
  printed->emplace(fact, true);
  os << '\n';
  for (const Branch& branch : node->branches) {
    const Tgd& tgd = mapping_->tgd(branch.tgd);
    os << pad << "  <-- " << tgd.name() << ", "
       << branch.h.ToString(tgd.var_names()) << '\n';
    if (tgd.source_to_target()) {
      for (const FactRef& f : branch.lhs_facts) {
        os << pad << "    " << FactToString(f, *source_, *target_)
           << "  [source]\n";
      }
    } else {
      for (const FactRef& f : branch.lhs_facts) {
        AppendNode(os, f, indent + 2, printed);
      }
    }
  }
}

std::string RouteForest::ToString() const {
  std::ostringstream os;
  std::unordered_map<FactRef, bool, FactRefHash> printed;
  for (const FactRef& root : roots_) {
    AppendNode(os, root, 0, &printed);
  }
  return os.str();
}

RouteForest ComputeAllRoutes(const SchemaMapping& mapping,
                             const Instance& source, const Instance& target,
                             std::vector<FactRef> js,
                             const RouteOptions& options) {
  RouteForest forest(mapping, source, target, std::move(js), options);
  forest.ExpandAll();
  if (obs::MetricsEnabled()) {
    obs::Registry& registry = obs::Registry::Global();
    registry.GetCounter("routes.all_routes_runs")->Increment();
    forest.stats().PublishTo(&registry, "routes.");
  }
  return forest;
}

}  // namespace spider
