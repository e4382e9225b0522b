// routebench: one benchmark for the route debugger. Runs one named workload
// (exchange, debug_loop or serve_mix) generated from --seed for --seconds,
// checks its outputs, prints every end-to-end metric by name, unit and
// sample count, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are BENCHMARK.json's end-to-end set; with
// --trace 1 they are the per-layer set, gathered by a layer sweep after the
// workload's loop, and the recorded spans are written to --spans-out.
//
// Usage: routebench --workload W --seed N --seconds S --trace 0|1
//                   [--spans-out PATH] [--nproc-probe 1]
// --nproc-probe 1 runs debug_loop's op stream at engine num_threads = 0
// instead of a workload (see RunNprocProbe).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace routebench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "routebench: " << why
            << "\nusage: routebench --workload exchange|debug_loop|serve_mix "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n";
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << kind << " " << m.name << " = " << Number(m.value) << " "
              << m.unit << " (n=" << m.samples << ")";
    if (!m.note.empty()) std::cout << " [" << m.note << "]";
    std::cout << "\n";
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string spans_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') {
        return Usage("--seed wants a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds wants a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--nproc-probe") {
      config.nproc_probe = value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  if (config.nproc_probe) return RunNprocProbe(config);
  std::cout << "routebench workload=" << config.workload
            << " seconds=" << config.seconds << " trace=" << config.trace
            << "\nhost " << HostFingerprint(config.seed) << "\n";
  Report report;
  if (config.workload == "exchange") {
    report = RunExchange(config);
  } else if (config.workload == "debug_loop") {
    report = RunDebugLoop(config);
  } else if (config.workload == "serve_mix") {
    report = RunServeMix(config);
  } else {
    return Usage("unknown workload " + config.workload);
  }

  const OpTally& ops = report.ops;
  double failed_frac =
      ops.attempted == 0 ? 0 : static_cast<double>(ops.failed) / ops.attempted;
  report.E2e("peak_rss_mb", "MB", report.peak_rss_mb);
  report.E2e("failed_frac", "ratio", failed_frac, ops.attempted);
  report.Gated("peak_rss_mb", "MB", report.peak_rss_mb, 1);

  PrintMetrics("e2e", report.end_to_end);
  if (config.trace) PrintMetrics("layer", report.per_layer);
  bool correct = ops.failed == 0;
  for (const auto& [what, ok] : report.checks) {
    std::cout << "check " << (ok ? "ok" : "FAILED") << ": " << what << "\n";
    correct = correct && ok;
  }
  for (const std::string& message : ops.messages) {
    std::cout << "failure: " << message << "\n";
  }
  if (config.trace && !spans_out.empty() &&
      !SpanLog::Get().Write(spans_out)) {
    std::cerr << "routebench: cannot write spans to " << spans_out << "\n";
    return 1;
  }

  const std::vector<Metric>& metrics =
      config.trace ? report.per_layer : report.gated;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ops.attempted
            << ", \"failed\": " << ops.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << Number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace routebench

int main(int argc, char** argv) {
  try {
    return routebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "routebench: " << e.what() << "\n";
    return 1;
  }
}
