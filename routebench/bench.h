// Shared plumbing of the routebench binary: raw latency samples and their
// percentiles, named metrics, op accounting, the in-memory span recorder of
// traced runs, and host facts (peak RSS, fingerprint).
#ifndef ROUTEBENCH_BENCH_H_
#define ROUTEBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace routebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Raw per-operation samples; every percentile is read from these, never
/// from bucketed histograms.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }

  /// Nearest-rank percentile: the smallest sample with at least q*n
  /// samples at or below it. 0 when empty.
  double Quantile(double q) {
    if (empty()) return 0;
    Sort();
    size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
    rank = std::clamp<size_t>(rank, 1, values_.size());
    return values_[rank - 1];
  }
  double Median() { return Quantile(0.5); }

  /// Samples strictly beyond the q-th percentile's rank. A tail percentile
  /// is reported as qualified only with at least ten samples beyond it.
  size_t Beyond(double q) const {
    size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
    return values_.size() - std::min(rank, values_.size());
  }

 private:
  void Sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  std::vector<double> values_;
  bool sorted_ = true;
};

inline constexpr size_t kMinSamplesBeyondTail = 10;

/// One reported number: `samples` is how many raw observations it was
/// derived from (1 for a count read off a stats struct); `note` flags a
/// tail percentile whose sample is too short to qualify.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 1;
  std::string note;
};

/// Ops attempted and failed, with the first few failure messages kept for
/// the report. A failure is an error reply, an exception, or a failed
/// output check.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;

  void Fail(const std::string& what) {
    ++failed;
    if (messages.size() < 8) messages.push_back(what);
  }
};

/// Everything one workload invocation reports.
struct Report {
  /// Every end-to-end metric that applies to the workload, printed by name.
  std::vector<Metric> end_to_end;
  /// The metrics of the final JSON line of an untraced run: the ones
  /// BENCHMARK.json declares, which every workload reports.
  std::vector<Metric> gated;
  std::vector<Metric> per_layer;  ///< Traced-run layer metrics.
  std::vector<std::pair<std::string, bool>> checks;  ///< Output checks.
  OpTally ops;
  /// Peak RSS read right after the measured loop, before the output checks
  /// and the layer sweep allocate their own instances.
  double peak_rss_mb = 0;

  void E2e(std::string name, std::string unit, double value, size_t n = 1,
           std::string note = "") {
    end_to_end.push_back({std::move(name), std::move(unit), value, n,
                          std::move(note)});
  }
  void Gated(std::string name, std::string unit, double value, size_t n) {
    gated.push_back({std::move(name), std::move(unit), value, n, ""});
  }
  void Layer(std::string name, std::string unit, double value, size_t n = 1) {
    per_layer.push_back({std::move(name), std::move(unit), value, n, ""});
  }
  void Check(std::string what, bool ok) {
    checks.emplace_back(std::move(what), ok);
  }
  /// Median plus the named tail percentile of `samples`, as two metrics.
  void Latency(const std::string& prefix, Samples& samples, double tail_q,
               const std::string& tail_name) {
    E2e(prefix + "_p50_ms", "ms", samples.Median(), samples.size());
    bool qualified = samples.Beyond(tail_q) >= kMinSamplesBeyondTail;
    E2e(prefix + "_" + tail_name + "_ms", "ms", samples.Quantile(tail_q),
        samples.size(),
        qualified ? "" : "too few samples beyond this percentile");
  }
};

/// In-memory span log of a traced run. Spans carry a layer (the module
/// whose public call they wrap), a name, start/end, the parent span and the
/// op id of the workload operation that caused them. Recording is a pair of
/// clock reads and a vector append, on the calling thread only — every
/// traced call site in routebench runs on one thread.
class SpanLog {
 public:
  struct Span {
    std::string layer;
    std::string name;
    int64_t op = -1;
    int32_t parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  static SpanLog& Get() {
    static SpanLog log;
    return log;
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Open(std::string layer, std::string name, int64_t op) {
    Span span;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.op = op;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_s = Now();
    spans_.push_back(std::move(span));
    int32_t id = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void Close(int32_t id) {
    spans_[static_cast<size_t>(id)].end_s = Now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time in seconds: each span's duration minus the time
  /// its direct children cover.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;

  /// Writes the spans as JSON lines to `path`. Returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span around one public call. A no-op while the log is disabled,
/// which is how untraced runs stay free of recording.
class Traced {
 public:
  Traced(const char* layer, const char* name, int64_t op = -1) {
    SpanLog& log = SpanLog::Get();
    if (log.enabled()) id_ = log.Open(layer, name, op);
  }
  ~Traced() {
    if (id_ >= 0) SpanLog::Get().Close(id_);
  }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

 private:
  int32_t id_ = -1;
};

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// "nproc=4 compiler=... build=Release seed=N".
std::string HostFingerprint(uint64_t seed);

unsigned HardwareThreads();

}  // namespace routebench

#endif  // ROUTEBENCH_BENCH_H_
