#include "query/cost_model.h"

#include <algorithm>
#include <chrono>  // invariant-lint: allow(clock-in-engine) — calibration only
#include <vector>

#include "base/hash.h"
#include "catalog/schema.h"
#include "obs/metrics.h"
#include "storage/instance.h"

namespace spider {

const CostModel& CostModel::Default() {
  static const CostModel kDefault;
  return kDefault;
}

uint64_t CostModel::Fingerprint() const {
  uint64_t h = HashCombine(kVersion, scan_cost);
  h = HashCombine(h, probe_cost);
  return HashCombine(h, lookup_cost);
}

CardFp CardScale(CardFp card, uint64_t num, uint64_t den) {
  unsigned __int128 wide = static_cast<unsigned __int128>(card) * num / den;
  constexpr CardFp kMax = CardFromCount(uint64_t{1} << 47);
  return wide > kMax ? kMax : static_cast<CardFp>(wide);
}

uint64_t ExpectedBoundVarRows(uint64_t rows, uint64_t distinct) {
  if (rows == 0) return 0;
  // Inconsistent statistics (0 on a nonempty column) degrade to the
  // no-information estimate instead of silently skipping the factor;
  // distinct > rows clamps so the estimate never drops below one row.
  distinct = std::clamp<uint64_t>(distinct, 1, rows);
  return (rows + distinct - 1) / distinct;  // ceil
}

namespace {

// The calibration clock lives behind one alias so the engine-wide
// clock-free lint stays meaningful for the planner and executor proper.
// invariant-lint: allow(clock-in-engine)
using CalibrationClock = std::chrono::steady_clock;

double ElapsedNs(CalibrationClock::time_point start) {
  return std::chrono::duration<double, std::nano>(CalibrationClock::now() -
                                                  start)
      .count();
}

}  // namespace

CalibrationResult CalibrateCostModel(uint64_t rows, int repeats) {
  if (rows < 64) rows = 64;
  if (repeats < 1) repeats = 1;
  // Synthetic single-relation instance shaped like the engines' hot loops:
  // a grouped column (posting lists of ~8 rows) and a key column.
  Schema schema("calibrate");
  RelationId rel = schema.AddRelation("R", {"grp", "key"});
  Instance instance(&schema);
  const int64_t groups = static_cast<int64_t>(rows / 8);
  for (uint64_t i = 0; i < rows; ++i) {
    instance.Insert(rel, Tuple({Value::Int(static_cast<int64_t>(i) % groups),
                                Value::Int(static_cast<int64_t>(i))}));
  }
  instance.WarmIndexes();
  std::vector<Tuple> lookups;
  lookups.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    lookups.push_back(Tuple({Value::Int(static_cast<int64_t>(i) % groups),
                             Value::Int(static_cast<int64_t>(i))}));
  }

  obs::Registry& registry = obs::Registry::Global();
  CalibrationResult result;
  double best_scan = 0, best_probe = 0, best_lookup = 0;
  // `sink` defeats dead-code elimination of the measured loops.
  volatile uint64_t sink = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    // Scan: fetch each row via a posting list and test one column, the
    // shape of the executor's candidate filter loop.
    uint64_t scanned = 0;
    auto scan_start = CalibrationClock::now();
    for (int64_t g = 0; g < groups; ++g) {
      const std::vector<int32_t>& probe_rows =
          instance.Probe(rel, 0, Value::Int(g));
      for (int32_t row : probe_rows) {
        const Tuple& t = instance.tuple(rel, row);
        if (t.at(0) == Value::Int(g)) ++scanned;
      }
    }
    double scan_ns = ElapsedNs(scan_start) / static_cast<double>(scanned);
    sink = sink + scanned;

    // Probe: posting-list lookups alone.
    auto probe_start = CalibrationClock::now();
    uint64_t probe_total = 0;
    for (int64_t g = 0; g < groups; ++g) {
      probe_total += instance.Probe(rel, 0, Value::Int(g)).size();
    }
    double probe_ns =
        ElapsedNs(probe_start) / static_cast<double>(groups);
    sink = sink + probe_total;

    // Point lookup: exact-tuple dedup hits.
    auto lookup_start = CalibrationClock::now();
    uint64_t found = 0;
    for (const Tuple& t : lookups) {
      if (instance.FindRow(rel, t).has_value()) ++found;
    }
    double lookup_ns = ElapsedNs(lookup_start) / static_cast<double>(rows);
    sink = sink + found;

    registry.GetHistogram("query.calibrate.scan_ns")->Record(scan_ns);
    registry.GetHistogram("query.calibrate.probe_ns")->Record(probe_ns);
    registry.GetHistogram("query.calibrate.lookup_ns")->Record(lookup_ns);
    if (rep == 0 || scan_ns < best_scan) best_scan = scan_ns;
    if (rep == 0 || probe_ns < best_probe) best_probe = probe_ns;
    if (rep == 0 || lookup_ns < best_lookup) best_lookup = lookup_ns;
  }
  (void)sink;

  result.scan_ns = best_scan;
  result.probe_ns = best_probe;
  result.lookup_ns = best_lookup;
  result.model.scan_cost = 1;
  auto ratio = [&](double ns) {
    if (best_scan <= 0) return uint32_t{1};
    double units = ns / best_scan;
    return static_cast<uint32_t>(std::clamp(units, 1.0, 64.0) + 0.5);
  };
  result.model.probe_cost = ratio(best_probe);
  result.model.lookup_cost = ratio(best_lookup);
  return result;
}

}  // namespace spider
