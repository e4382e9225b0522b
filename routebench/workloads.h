// The three routebench workloads, the generators they share, and the layer
// sweep of traced runs. Every generator is driven by the run's --seed.
#ifndef ROUTEBENCH_WORKLOADS_H_
#define ROUTEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "debugger/debug_session.h"
#include "exec/thread_pool.h"
#include "mapping/scenario.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/instance.h"
#include "workload/rng.h"

namespace routebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool nproc_probe = false;  ///< Run RunNprocProbe instead of a workload.
};

Report RunExchange(const RunConfig& config);
Report RunDebugLoop(const RunConfig& config);
Report RunServeMix(const RunConfig& config);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 15;
/// DebugSession opens per debug_loop run, each on one of the last set-ups'
/// scenarios; open_s is their median.
inline constexpr int kOpenReps = 5;

// --- Scenario and fact generators -----------------------------------------

/// The TPC-H-shaped relational scenario at M scale (joins=1, groups=6,
/// ~55k source and ~328k target tuples), with the run's seed.
spider::Scenario BuildMScenario(uint64_t seed);

/// A uniformly drawn live fact of `instance` (every row index below
/// NumTuples is live). Throws SpiderError when the instance is empty.
spider::FactRef DrawLiveFact(const spider::Instance& instance,
                             spider::Side side, spider::Rng* rng);

/// A small source delta drawn as bench_incremental draws its deltas: half
/// deletions of live tuples, half insertions of copies with a fresh key in
/// column 0, each over a uniformly drawn non-empty relation. `fresh_key`
/// advances per insertion so every inserted tuple is new.
spider::SourceDelta DrawDelta(const spider::Instance& source, int ops,
                              spider::Rng* rng, int64_t* fresh_key);

/// Row-order-sensitive digest of an instance (byte-identical check).
uint64_t OrderedDigest(const spider::Instance& instance);

/// Per-relation (count, order-independent content hash).
std::vector<std::pair<size_t, uint64_t>> ContentDigest(
    const spider::Instance& instance);

// --- The debug_loop op stream ---------------------------------------------

enum class DebugOpKind { kRoute, kForest, kApply };

struct DebugOp {
  DebugOpKind kind = DebugOpKind::kRoute;
  uint64_t draw_seed = 0;  ///< Seeds the issue-time fact or delta draw.
};

/// ~88% RouteFor, 10% ForestFor, 2% Apply.
std::vector<DebugOp> PlanDebugOps(uint64_t seed, size_t count);

inline constexpr int kDeltaOps = 8;  ///< Source edits per Apply.

struct DebugOpSamples {
  Samples route_ms, forest_ms, apply_ms;
  Samples route_miss_ms;  ///< RouteFor calls that missed the session cache.
  /// Route latencies split by whether the span log was recording (traced
  /// runs alternate blocks of ops to measure the recording's overhead).
  Samples route_traced_ms, route_untraced_ms;
  double busy_s = 0;  ///< Time inside the timed calls.
  size_t ops = 0;
  uint64_t check_failures = 0;  ///< Invalid routes, rootless forests.
};

/// debug_loop's session options: both engines at `engine_threads`.
spider::DebugSessionOptions DebugLoopSessionOptions(int engine_threads);

/// Runs plan[begin, end) against `session` until `deadline`, returning the
/// index of the first op not run. Facts and deltas are drawn at issue time
/// from the session's live instances, outside the timed call; every
/// returned route is validated. With `alternate_trace`, span recording
/// toggles every 32 ops.
size_t RunDebugOps(spider::DebugSession* session,
                   const std::vector<DebugOp>& plan, size_t begin, size_t end,
                   Clock::time_point deadline, bool alternate_trace,
                   int64_t* fresh_key, OpTally* tally,
                   DebugOpSamples* samples);

/// The debug_loop op stream on a session whose engines run at exec
/// num_threads = 0, printing "probe_ops N" every 64 ops and "probe_done N"
/// at the end, so a parent process can tell a crash or hang from a finish.
int RunNprocProbe(const RunConfig& config);

// --- The serve_mix request stream ----------------------------------------

struct ServeOp {
  spider::serve::MsgType type = spider::serve::MsgType::kRoute;
  uint32_t arg = 0;  ///< Hot-fact rank, or the delta's schedule index.
};

/// The scenario every serve_mix session opens: the relational scenario at a
/// small scale (joins=1, groups=3, ~560 source tuples), with the run's seed.
spider::Scenario BuildServeScenario(uint64_t seed);

/// What a serve client needs: the scenario text every session is created
/// from, the zipf-ranked hot facts and the insert-only delta schedule shared
/// by all sessions.
struct ServeWorkload {
  std::string scenario_text;
  std::vector<std::string> hot_facts;
  std::string delta_relation;
  size_t delta_arity = 0;
};

ServeWorkload BuildServeWorkload(uint64_t seed);

/// The per-client request stream: sessions served round-robin; every 64th
/// request of a session applies the next scheduled delta; otherwise 2%
/// lint, 8% all-routes and 90% route probes over zipf(0.99) hot facts.
std::vector<ServeOp> PlanServeOps(const ServeWorkload& workload,
                                  uint64_t seed, size_t sessions,
                                  size_t count);

spider::serve::Request MakeServeRequest(const ServeWorkload& workload,
                                        const ServeOp& op, uint64_t session);

/// Digest of a reply's type, code and text (not its request id).
uint64_t ReplyDigest(const spider::serve::Response& response);

/// One client's recorded traffic.
struct ServeClientLog {
  std::vector<uint64_t> sessions;
  std::vector<double> load_ms;       ///< CreateSession round trips.
  std::vector<uint64_t> load_digests;
  size_t issued = 0;                 ///< Prefix of the op plan that was sent.
  std::vector<uint64_t> digests;     ///< Reply digest per issued op.
  std::vector<float> latency_ms;     ///< Round trip per issued op.
};

/// An in-process spider_serve on an ephemeral loopback port with `workers`
/// pool threads (0 runs requests inline on the event-loop thread).
class ServeHost {
 public:
  explicit ServeHost(int workers);
  ~ServeHost();
  ServeHost(const ServeHost&) = delete;
  ServeHost& operator=(const ServeHost&) = delete;

  spider::serve::Server& server() { return *server_; }

 private:
  std::unique_ptr<spider::ThreadPool> pool_;  // Outlives server_.
  std::unique_ptr<spider::serve::Server> server_;
};

/// Drives one blocking client thread per plan against `host`: each client
/// loads its sessions (ids `1 + client + k * clients`), waits for the others
/// to load theirs, then sends its plan in order for `seconds` (0: until the
/// plan ends). Error replies and transport exceptions are counted as failed
/// ops. Returns the wall seconds of the request loop.
double RunServeClients(ServeHost* host, const ServeWorkload& workload,
                       const std::vector<std::vector<ServeOp>>& plans,
                       size_t sessions_per_client, double seconds,
                       std::vector<ServeClientLog>* logs, OpTally* tally);

/// The serve-layer counters of a host after its traffic (shared cache hit
/// rates and evictions, plan cache, manager and network stats).
std::vector<Metric> ServeCounters(ServeHost* host);

inline constexpr size_t kKeptReplyFrames = 20'000;

struct ServeReplay {
  Samples handle_ms;  ///< SessionManager::Handle latency per request.
  /// Handle latencies split by whether the span log was recording.
  Samples traced_ms, untraced_ms;
  /// The first kKeptReplyFrames replies, encoded as wire payloads.
  std::vector<std::string> reply_frames;
};

/// In-process replay of every client's recorded stream through a fresh
/// SessionManager::Handle: each reply must be byte-identical (by digest) to
/// the wire reply of the same request, else the op counts as failed. With
/// `alternate_trace`, span recording toggles every 32 requests.
void ReplayInProcess(const ServeWorkload& workload,
                     const std::vector<std::vector<ServeOp>>& plans,
                     const std::vector<ServeClientLog>& logs,
                     bool alternate_trace, OpTally* tally, ServeReplay* out);

// --- Traced runs -----------------------------------------------------------

/// What a workload hands to the layer sweep. Pointers may be null when the
/// workload's loop did not use that layer; the sweep then drives the layer
/// itself on the workload's scenario.
struct SweepInputs {
  uint64_t seed = 1;
  bool relational = true;  ///< M scenario (else BuildServeScenario's).
  /// debug_loop's session stats and op samples, read after its loop.
  const spider::IncrementalStats* loop_incremental = nullptr;
  const spider::RouteCacheStats* loop_cache = nullptr;
  const DebugOpSamples* loop_samples = nullptr;
  /// serve_mix's loop data: client logs, plans, the server's counters, the
  /// in-process replay and the median wire round trip.
  const ServeWorkload* serve_workload = nullptr;
  const std::vector<std::vector<ServeOp>>* serve_plans = nullptr;
  const std::vector<ServeClientLog>* serve_logs = nullptr;
  std::vector<Metric> serve_counters;
  ServeReplay* serve_replay = nullptr;
  double serve_rtt_ms = 0;
  /// Median op latency with span recording on and off, for
  /// obs.trace_overhead_frac.
  double traced_ms = 0;
  double untraced_ms = 0;
};

/// Reports every per-layer metric into `report`.
void SweepLayers(const SweepInputs& inputs, Report* report);

}  // namespace routebench

#endif  // ROUTEBENCH_WORKLOADS_H_
