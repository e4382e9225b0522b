#ifndef SPIDER_SERVE_SESSION_MANAGER_H_
#define SPIDER_SERVE_SESSION_MANAGER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "debugger/debug_session.h"
#include "incremental/shared_route_cache.h"
#include "obs/fields.h"
#include "query/plan_cache.h"
#include "serve/protocol.h"

namespace spider::serve {

struct SessionManagerOptions {
  /// Admission control: a create/load is rejected with kOverBudget once
  /// this many sessions are open or the byte estimate would cross the
  /// total budget.
  size_t max_sessions = 128;
  size_t session_budget_bytes = 64u << 20;
  size_t total_budget_bytes = 1u << 30;

  /// Sessions idle longer than this are eligible for reaping (the server
  /// drives the actual reap from its timer queue). 0 disables.
  uint64_t idle_timeout_ms = 5 * 60 * 1000;

  /// Budgets of the shared cache tiers every session is wired into.
  size_t shared_route_cache_bytes = 64u << 20;
  size_t plan_cache_bytes = 8u << 20;

  /// Hard cap on a single reply's text. Replies that would exceed it
  /// (adversarial all-routes forests, mostly) are answered with a
  /// structured kReplyTooLarge error instead — the forest render aborts
  /// once it crosses the budget, so peak memory stays bounded too.
  /// 0 disables the cap.
  size_t max_reply_bytes = 8u << 20;

  /// Base options handed to each DebugSession (exec pool, eval knobs, ...).
  /// plan_cache / shared_route_cache / state_key are overwritten per
  /// session by the manager.
  DebugSessionOptions session;
};

struct SessionManagerStats : obs::FieldStats<SessionManagerStats> {
  uint64_t requests = 0;
  uint64_t sessions_created = 0;
  uint64_t sessions_closed = 0;
  uint64_t rejected_over_budget = 0;
  uint64_t engine_errors = 0;
  uint64_t cancelled = 0;           ///< Requests answered kCancelled.
  uint64_t deadline_exceeded = 0;   ///< Requests answered kDeadlineExceeded.
  uint64_t replies_truncated = 0;   ///< Replies answered kReplyTooLarge.
  uint64_t analyze_cache_hits = 0;    ///< kAnalyze served from the cache.
  uint64_t analyze_cache_misses = 0;  ///< kAnalyze that ran the analyzer.
  size_t open_sessions = 0;
  size_t approx_bytes = 0;  ///< Sum of per-session instance estimates.

  static constexpr std::tuple kFields{
      obs::Field{"requests", &SessionManagerStats::requests},
      obs::Field{"sessions_created", &SessionManagerStats::sessions_created},
      obs::Field{"sessions_closed", &SessionManagerStats::sessions_closed},
      obs::Field{"rejected_over_budget",
                 &SessionManagerStats::rejected_over_budget},
      obs::Field{"engine_errors", &SessionManagerStats::engine_errors},
      obs::Field{"cancelled", &SessionManagerStats::cancelled},
      obs::Field{"deadline_exceeded", &SessionManagerStats::deadline_exceeded},
      obs::Field{"replies_truncated", &SessionManagerStats::replies_truncated},
      obs::Field{"analyze_cache_hits",
                 &SessionManagerStats::analyze_cache_hits},
      obs::Field{"analyze_cache_misses",
                 &SessionManagerStats::analyze_cache_misses},
      obs::Field{"open_sessions", &SessionManagerStats::open_sessions},
      obs::Field{"approx_bytes", &SessionManagerStats::approx_bytes}};

  bool operator==(const SessionManagerStats&) const = default;
};

/// Maps session ids to DebugSession instances and executes decoded requests
/// against them: the protocol-to-engine bridge of spider::serve, usable
/// without any server (the differential test drives it in-process).
///
/// Ids are client-chosen. The manager owns the shared cache tiers
/// (SharedRouteCache + bounded PlanCache) and wires every session into
/// them; when a session closes, its instances are Forget()ed from the plan
/// tier so address reuse can never serve a stale plan.
///
/// Thread-safety: the session map and stats are mutex-guarded, so requests
/// for DIFFERENT sessions may be handled concurrently (the engines
/// themselves share only the internally-locked cache tiers). Requests for
/// the SAME session must be serialized by the caller — the server's
/// per-session queues guarantee that.
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Executes one request and returns its reply. Never throws: engine
  /// errors come back as kError responses. `now_ms` stamps the session's
  /// last-active time (pass EventLoop::NowMs() or 0).
  ///
  /// `cancel` (optional) is the request's cooperative-cancellation token:
  /// it is checked at entry (a request cancelled while queued never starts)
  /// and threaded into the engines, which poll it in their hot loops. When
  /// the token aborts the work, the reply is kDeadlineExceeded or
  /// kCancelled by the token's reason, and the session is left exactly as
  /// if the request had never been asked (pure-read probes abandon their
  /// partial result before any cache install; creates discard the
  /// half-built session; Apply only honors the token before mutating).
  Response Handle(const Request& request, uint64_t now_ms,
                  const CancelToken* cancel);
  Response Handle(const Request& request, uint64_t now_ms) {
    return Handle(request, now_ms, nullptr);
  }

  /// Ids of sessions idle since before `now_ms - idle_timeout_ms`. The
  /// server filters out sessions with in-flight work, then closes the rest
  /// via CloseSession().
  std::vector<uint64_t> IdleSessionIds(uint64_t now_ms) const;

  /// Closes a session (no-op on unknown ids). Returns true when a session
  /// was actually closed.
  bool CloseSession(uint64_t session_id);

  SessionManagerStats stats() const;
  SharedRouteCache& shared_cache() { return shared_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }
  const SessionManagerOptions& options() const { return options_; }

 private:
  struct ServerSession {
    std::unique_ptr<DebugSession> session;
    /// name -> id for the scenario's declared nulls (ParseFactText input;
    /// chase-invented nulls resolve through their default N<id> names).
    std::unordered_map<std::string, int64_t> null_ids;
    uint64_t last_active_ms = 0;
    size_t approx_bytes = 0;
  };

  Response HandleCreate(const Request& request, uint64_t now_ms,
                        const CancelToken* cancel);
  Response HandleSession(const Request& request, uint64_t now_ms,
                         const CancelToken* cancel);
  Response HandleStats(const Request& request);
  /// kAnalyze: whole-mapping static analysis of the session's loaded
  /// mapping, cached across sessions by (mapping content, spec) hash —
  /// analysis is deterministic, so a hit is byte-identical to a recompute.
  /// Inserts a rendered analyze reply under `key`, bounding the cache FIFO.
  void InstallAnalysisCacheEntry(uint64_t key, const std::string& text);
  Response HandleAnalyze(const Request& request, DebugSession& session,
                         const CancelToken* cancel);

  /// Maps a flipped token to its wire error (and bumps the stat counter).
  Response CancelledResponse(uint64_t request_id, const CancelToken* cancel);
  /// Backstop reply-size cap: oversized kReply texts become kReplyTooLarge.
  Response CapReply(Response response);

  /// Builds the opening scenario for kCreateSession (scenario text) or
  /// kLoadSession (workload spec). Throws SpiderError on bad input.
  static Scenario BuildScenario(const Request& request);

  std::shared_ptr<ServerSession> Find(uint64_t session_id, uint64_t now_ms);
  static size_t EstimateBytes(const DebugSession& session);

  SessionManagerOptions options_;
  SharedRouteCache shared_cache_;
  PlanCache plan_cache_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<ServerSession>> sessions_;
  SessionManagerStats stats_;

  /// Rendered kAnalyze replies keyed by (mapping content, spec) hash,
  /// FIFO-bounded; shared across sessions (guarded by mu_).
  static constexpr size_t kAnalysisCacheEntries = 128;
  std::unordered_map<uint64_t, std::string> analysis_cache_;
  std::deque<uint64_t> analysis_cache_order_;
};

}  // namespace spider::serve

#endif  // SPIDER_SERVE_SESSION_MANAGER_H_
