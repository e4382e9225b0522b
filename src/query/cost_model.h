#ifndef SPIDER_QUERY_COST_MODEL_H_
#define SPIDER_QUERY_COST_MODEL_H_

#include <cstdint>

namespace spider {

/// Integer cost units for the selectivity planner. One unit is the modeled
/// cost of fetching one candidate row and testing it against the level's
/// bound terms (a "scan"); every other operation is priced as a multiple of
/// that. All plan-time arithmetic is done in these integer units (plus the
/// fixed-point cardinalities below), so cost comparisons are exact — two
/// plans with mathematically equal costs compare equal on every platform,
/// with no float summation-order sensitivity.
///
/// The committed defaults were calibrated with CalibrateCostModel on the
/// reference dev host (see BENCH_planner.json's "cost_model" section for the
/// numbers measured on the machine that produced the committed bench): a
/// hash-index posting-list probe costs about four row scans, and an exact
/// dedup-table point lookup about two. Constants are intentionally coarse —
/// the planner only needs the right order of magnitude to stop trading one
/// 4x-priced probe for a saving of a fraction of a row.
struct CostModel {
  /// Bumped whenever the model's shape or the meaning of its constants
  /// changes. Mixed (with the constants) into every effective plan-cache
  /// key, so cached plans can never outlive the model that priced them.
  static constexpr uint32_t kVersion = 1;

  /// Cost of fetching + testing one candidate row. Keep at 1; it is the
  /// unit everything else is measured in.
  uint32_t scan_cost = 1;
  /// Cost of one posting-list probe (per-column hash index lookup).
  uint32_t probe_cost = 4;
  /// Cost of one exact-tuple point lookup in the dedup table (the path
  /// fully-bound levels take instead of probe + scan).
  uint32_t lookup_cost = 2;

  /// The process-wide default (the committed table above).
  static const CostModel& Default();

  /// Mixes kVersion and every constant into one value identifying the table.
  uint64_t Fingerprint() const;

  friend bool operator==(const CostModel&, const CostModel&) = default;
};

/// Cardinality estimates in 48.16 fixed point: integer row counts shifted
/// left by kCardFracBits, scaled by exact integer ratios. Deterministic and
/// platform-independent, unlike the double-precision chain it replaces.
inline constexpr int kCardFracBits = 16;
using CardFp = uint64_t;

inline constexpr CardFp CardFromCount(uint64_t rows) {
  // Saturate far above any real instance (2^47 rows) instead of wrapping.
  constexpr uint64_t kMaxRows = uint64_t{1} << 47;
  return (rows > kMaxRows ? kMaxRows : rows) << kCardFracBits;
}

/// Rounds a fixed-point cardinality up to whole rows (estimates of nonempty
/// results never round down to "free").
inline uint64_t CardCeilRows(CardFp card) {
  return (card + ((uint64_t{1} << kCardFracBits) - 1)) >> kCardFracBits;
}

/// card * num / den without overflow (128-bit intermediate); den must be
/// nonzero. Saturates at the representation's maximum.
CardFp CardScale(CardFp card, uint64_t num, uint64_t den);

/// Expected posting-list length when a column holding `distinct` values over
/// `rows` rows is probed with a yet-unknown value (the bound-variable case;
/// uniform assumption, rounded up so a nonempty relation never estimates
/// below one candidate row).
///
/// `distinct` == 0 on a nonempty relation is an inconsistent statistic (a
/// nonempty column always holds at least one value). The seed planner
/// silently skipped the selectivity factor in that case — the estimate
/// stayed at the full relation size even when every other statistic said
/// the column was key-like. This handles the degenerate input explicitly:
/// the distinct count is clamped into [1, rows], so 0 degrades to the
/// no-information estimate (`rows`, pinned by cost_model_test) instead of
/// depending on a skipped branch, and distinct > rows (impossible, but
/// defensive) estimates one row rather than zero.
uint64_t ExpectedBoundVarRows(uint64_t rows, uint64_t distinct);

/// Per-atom plan-time estimate, all integer units. Produced by the planner
/// for each candidate atom given the variables bound so far.
struct AtomEstimate {
  /// Expected candidate rows the executor will fetch + test at this level
  /// (the chosen access path's expected output).
  uint64_t scanned_rows = 0;
  /// Probes the executor is expected to issue (0 for a full scan or a
  /// point lookup, 1 for the primary posting-list probe; the runtime probe
  /// budget may add more only when they pay for themselves).
  uint32_t probes = 0;
  /// Point lookups expected (1 for a fully-bound level).
  uint32_t lookups = 0;
  /// Estimated output cardinality (bindings emitted per entry), fixed point.
  CardFp out_card = 0;

  /// Modeled cost of entering this level once: access-path overhead plus
  /// scanned candidates plus one scan unit per emitted binding (every
  /// emitted binding is work for the level below).
  uint64_t CostUnits(const CostModel& model) const {
    return uint64_t{probes} * model.probe_cost +
           uint64_t{lookups} * model.lookup_cost +
           scanned_rows * model.scan_cost +
           CardCeilRows(out_card) * model.scan_cost;
  }
};

/// Records wall-clock micro-measurements of the three access primitives
/// (row scan+test, posting-list probe, dedup point lookup) into the global
/// obs registry's histograms ("query.calibrate.*_ns") and returns a
/// CostModel whose constants are the measured ratios, clamped to [1, 64].
///
/// Calibration reads a clock, so its results are machine-dependent; the
/// planner always prices with CostModel::Default() (the committed table) to
/// keep plans — and therefore match order, stats, and every golden —
/// identical across hosts. Calibrated constants are reported (bench_planner)
/// but never planned with.
struct CalibrationResult {
  CostModel model;
  double scan_ns = 0;    ///< measured per-row scan+test cost
  double probe_ns = 0;   ///< measured per-probe cost
  double lookup_ns = 0;  ///< measured per-point-lookup cost
};
CalibrationResult CalibrateCostModel(uint64_t rows = 4096, int repeats = 5);

}  // namespace spider

#endif  // SPIDER_QUERY_COST_MODEL_H_
