#include <sys/resource.h>

#include <fstream>
#include <map>
#include <thread>

#include "base/hash.h"
#include "base/status.h"
#include "bench.h"
#include "workload/relational_scenario.h"
#include "workloads.h"

namespace routebench {

using spider::FactRef;
using spider::Instance;
using spider::RelationId;
using spider::Side;

std::vector<std::pair<std::string, double>> SpanLog::SelfSeconds() const {
  std::vector<double> child_s(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    by_layer[span.layer] += (span.end_s - span.start_s) - child_s[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"layer\":\"" << span.layer << "\",\"name\":\"" << span.name
        << "\",\"op\":" << span.op << ",\"parent\":" << span.parent
        << ",\"start_s\":" << span.start_s << ",\"end_s\":" << span.end_s
        << "}\n";
  }
  return static_cast<bool>(out);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

unsigned HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string HostFingerprint(uint64_t seed) {
  return "nproc=" + std::to_string(HardwareThreads()) + " compiler=\"" +
         __VERSION__ + "\" build=" + ROUTEBENCH_BUILD_TYPE +
         " seed=" + std::to_string(seed);
}

spider::Scenario BuildMScenario(uint64_t seed) {
  spider::RelationalScenarioOptions options;
  options.joins = 1;
  options.groups = 6;
  options.sizes.units = 400;
  options.seed = seed;
  return spider::BuildRelationalScenario(options);
}

FactRef DrawLiveFact(const Instance& instance, Side side, spider::Rng* rng) {
  if (instance.TotalTuples() == 0) {
    throw spider::SpiderError("no live fact to draw: the instance is empty");
  }
  uint64_t index = rng->Below(instance.TotalTuples());
  for (size_t r = 0; r < instance.NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    size_t rows = instance.NumTuples(rel);
    if (index < rows) return FactRef{side, rel, static_cast<int32_t>(index)};
    index -= rows;
  }
  return FactRef{side, 0, 0};  // Unreachable: index < TotalTuples().
}

spider::SourceDelta DrawDelta(const Instance& source, int ops,
                              spider::Rng* rng, int64_t* fresh_key) {
  const spider::Schema& schema = source.schema();
  size_t num_rels = source.NumRelations();
  spider::SourceDelta delta;
  for (int i = 0; i < ops; ++i) {
    RelationId rel = static_cast<RelationId>(rng->Below(num_rels));
    if (source.NumTuples(rel) == 0) continue;
    int32_t row = static_cast<int32_t>(rng->Below(source.NumTuples(rel)));
    if (i < ops / 2) {
      delta.Delete(schema.relation(rel).name(), source.tuple(rel, row));
    } else {
      std::vector<spider::Value> values = source.tuple(rel, row).values();
      values[0] = spider::Value::Int((*fresh_key)++);
      delta.Insert(schema.relation(rel).name(),
                   spider::Tuple(std::move(values)));
    }
  }
  return delta;
}

uint64_t OrderedDigest(const Instance& instance) {
  size_t h = 0;
  for (size_t r = 0; r < instance.NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    h = spider::HashCombine(h, instance.NumTuples(rel));
    for (const spider::Tuple& tuple : instance.tuples(rel)) {
      h = spider::HashCombine(h, tuple.Hash());
    }
  }
  return h;
}

std::vector<std::pair<size_t, uint64_t>> ContentDigest(
    const Instance& instance) {
  std::vector<std::pair<size_t, uint64_t>> digest;
  for (size_t r = 0; r < instance.NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    uint64_t sum = 0;
    for (const spider::Tuple& tuple : instance.tuples(rel)) {
      // splitmix64 finalizer: spreads the hash before the commutative sum.
      uint64_t z = tuple.Hash() + 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      sum += z ^ (z >> 31);
    }
    digest.emplace_back(instance.NumTuples(rel), sum);
  }
  return digest;
}

}  // namespace routebench
