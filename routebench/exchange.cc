// exchange: repeated Chase() of the M scenario from one caller, alternating
// exec.num_threads = 0 (hardware concurrency) and the library default of one
// thread. Chase, query, storage and exec do all the work; routes,
// incremental and serve do none.

#include "chase/chase.h"
#include "workloads.h"

namespace routebench {

namespace {

/// A chase result's identity: its row-ordered target digest and stats.
struct ChaseFingerprint {
  uint64_t digest = 0;
  spider::ChaseStats stats;
  bool ok = false;

  friend bool operator==(const ChaseFingerprint& a,
                         const ChaseFingerprint& b) {
    return a.ok && b.ok && a.digest == b.digest && a.stats == b.stats;
  }
};

ChaseFingerprint Fingerprint(const spider::ChaseResult& result) {
  ChaseFingerprint fp;
  fp.ok = result.outcome == spider::ChaseOutcome::kSuccess;
  fp.digest = OrderedDigest(*result.target);
  fp.stats = result.stats;
  return fp;
}

}  // namespace

Report RunExchange(const RunConfig& config) {
  Report report;
  spider::Scenario scenario;
  Samples setup_s;
  for (int k = 0; k < kSetupReps; ++k) {
    Clock::time_point start = Clock::now();
    scenario = BuildMScenario(config.seed);
    setup_s.Add(SecondsSince(start));
  }

  spider::ChaseOptions one_thread;  // Library default: num_threads = 1.
  spider::ChaseOptions all_threads;
  all_threads.exec.num_threads = 0;

  // Warm-up, untimed: builds the source's lazy indexes and the exec pool,
  // and gives the 1-thread reference every timed chase must reproduce.
  ChaseFingerprint reference =
      Fingerprint(spider::Chase(*scenario.mapping, *scenario.source));
  report.Check("warm-up chase succeeds", reference.ok);
  report.Check("warm-up nproc-thread chase equals the 1-thread one",
               Fingerprint(spider::Chase(*scenario.mapping, *scenario.source,
                                         all_threads)) == reference);

  Samples chase_s, chase_1t_s, traced_ms, untraced_ms;
  double busy_s = 0;
  uint64_t mismatches = 0;
  SpanLog& log = SpanLog::Get();
  Clock::time_point deadline = Deadline(config.seconds);
  for (int64_t op = 0; Clock::now() < deadline; ++op) {
    bool parallel = op % 2 == 0;
    if (config.trace) log.set_enabled((op / 2) % 2 == 0);
    ++report.ops.attempted;
    try {
      Clock::time_point start = Clock::now();
      spider::ChaseResult result;
      {
        Traced span("chase", parallel ? "Chase_nproc" : "Chase_1t", op);
        result = spider::Chase(*scenario.mapping, *scenario.source,
                               parallel ? all_threads : one_thread);
      }
      double s = SecondsSince(start);
      busy_s += s;
      (parallel ? chase_s : chase_1t_s).Add(s);
      if (config.trace) (log.enabled() ? traced_ms : untraced_ms).Add(s * 1e3);
      if (!(Fingerprint(result) == reference)) {
        ++mismatches;
        report.ops.Fail(std::string("chase at ") +
                        (parallel ? "nproc" : "1") +
                        " thread(s) differs from the 1-thread reference");
      }
    } catch (const std::exception& e) {
      report.ops.Fail(std::string("chase: ") + e.what());
    }
  }
  report.peak_rss_mb = PeakRssMb();
  log.set_enabled(config.trace);
  report.Check("nproc-thread target fingerprint and ChaseStats equal the "
               "1-thread ones",
               mismatches == 0);

  double ops = static_cast<double>(chase_s.size() + chase_1t_s.size());
  double ops_per_s = busy_s > 0 ? ops / busy_s : 0;
  report.E2e("setup_s", "s", setup_s.Median(), setup_s.size());
  report.E2e("chase_s", "s", chase_s.Median(), chase_s.size());
  report.E2e("chase_1t_s", "s", chase_1t_s.Median(), chase_1t_s.size());

  report.Gated("setup_s", "s", setup_s.Median(), setup_s.size());
  report.Gated("open_s", "s", chase_s.Median(), chase_s.size());
  report.Gated("ops_per_s", "1/s", ops_per_s, static_cast<size_t>(ops));
  report.Gated("p50_ms", "ms", chase_1t_s.Median() * 1e3, chase_1t_s.size());

  if (config.trace) {
    SweepInputs inputs;
    inputs.seed = config.seed;
    inputs.relational = true;
    inputs.traced_ms = traced_ms.Median();
    inputs.untraced_ms = untraced_ms.Median();
    SweepLayers(inputs, &report);
  }
  return report;
}

}  // namespace routebench
