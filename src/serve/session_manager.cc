#include "serve/session_manager.h"

#include <exception>
#include <utility>

#include "algebra/compose.h"
#include "analysis/analyzer.h"
#include "base/hash.h"
#include "chase/core.h"
#include "base/status.h"
#include "incremental/source_delta.h"
#include "mapping/parser.h"
#include "workload/random_scenario.h"
#include "workload/relational_scenario.h"

namespace spider::serve {

namespace {

/// Parses the integer after `prefix` in `spec`; throws SpiderError on
/// malformed specs so load errors surface as kBadRequest.
int64_t ParseSpecInt(std::string_view token, const char* what) {
  if (token.empty()) throw SpiderError(std::string("missing ") + what);
  int64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      throw SpiderError(std::string("malformed ") + what + ": " +
                        std::string(token));
    }
    value = value * 10 + (c - '0');
    if (value > (1ll << 40)) {
      throw SpiderError(std::string("oversized ") + what);
    }
  }
  return value;
}

std::vector<std::string_view> SplitCommas(std::string_view s) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    size_t comma = s.find(',', start);
    if (comma == std::string_view::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

std::string RenderApplyResult(const ApplyDeltaResult& result) {
  std::string out = "applied\n";
  out += "source_inserted " + std::to_string(result.source_inserted) + "\n";
  out += "source_deleted " + std::to_string(result.source_deleted) + "\n";
  out += "target_added " + std::to_string(result.target_added) + "\n";
  out += "target_removed " + std::to_string(result.target_removed) + "\n";
  out += "target_rewritten " + std::to_string(result.target_rewritten) + "\n";
  out += "full_rechase ";
  out += result.full_rechase ? '1' : '0';
  out += '\n';
  return out;
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)),
      shared_cache_(options_.shared_route_cache_bytes),
      plan_cache_(options_.plan_cache_bytes) {}

SessionManager::~SessionManager() = default;

Response SessionManager::CancelledResponse(uint64_t request_id,
                                           const CancelToken* cancel) {
  bool deadline =
      cancel != nullptr && cancel->reason() == CancelToken::Reason::kDeadline;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (deadline) {
      ++stats_.deadline_exceeded;
    } else {
      ++stats_.cancelled;
    }
  }
  return deadline ? ErrorResponse(request_id, ErrorCode::kDeadlineExceeded,
                                  "deadline exceeded")
                  : ErrorResponse(request_id, ErrorCode::kCancelled,
                                  "cancelled");
}

Response SessionManager::CapReply(Response response) {
  if (options_.max_reply_bytes == 0 || response.type != MsgType::kReply ||
      response.text.size() <= options_.max_reply_bytes) {
    return response;
  }
  size_t reply_bytes = response.text.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.replies_truncated;
  }
  return ErrorResponse(response.request_id, ErrorCode::kReplyTooLarge,
                       "reply too large\nreply_bytes " +
                           std::to_string(reply_bytes) + "\nmax_reply_bytes " +
                           std::to_string(options_.max_reply_bytes) + "\n");
}

Response SessionManager::Handle(const Request& request, uint64_t now_ms,
                                const CancelToken* cancel) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  // A request cancelled (or expired) while queued behind its session's
  // in-flight work must never start: the cheapest safe boundary is here.
  if (Cancelled(cancel)) {
    return CancelledResponse(request.request_id, cancel);
  }
  switch (request.type) {
    case MsgType::kPing:
      return OkResponse(request.request_id, "pong\n");
    case MsgType::kStats:
      return CapReply(HandleStats(request));
    case MsgType::kCreateSession:
    case MsgType::kLoadSession:
      return HandleCreate(request, now_ms, cancel);
    case MsgType::kCloseSession:
    case MsgType::kApplyDelta:
    case MsgType::kRoute:
    case MsgType::kAllRoutes:
    case MsgType::kLint:
    case MsgType::kAnalyze:
      return CapReply(HandleSession(request, now_ms, cancel));
    default:
      return ErrorResponse(request.request_id, ErrorCode::kBadRequest,
                           "unhandled message type");
  }
}

Scenario SessionManager::BuildScenario(const Request& request) {
  if (request.type == MsgType::kCreateSession) {
    return ParseScenario(request.text);
  }
  // Workload specs: "random:<seed>" or "relational:<units>,<groups>,<joins>".
  std::string_view spec = request.text;
  size_t colon = spec.find(':');
  std::string_view kind = spec.substr(0, colon);
  std::string_view args =
      colon == std::string_view::npos ? std::string_view() : spec.substr(colon + 1);
  if (kind == "random") {
    RandomScenarioOptions opts;
    opts.seed = static_cast<uint64_t>(ParseSpecInt(args, "seed"));
    // Egds can fail the chase on random data; served sessions need a
    // solution, so the spec grammar leaves them out.
    opts.egds = 0;
    return BuildRandomScenario(opts);
  }
  if (kind == "relational") {
    std::vector<std::string_view> parts = SplitCommas(args);
    if (parts.size() != 3) {
      throw SpiderError("relational spec wants <units>,<groups>,<joins>");
    }
    RelationalScenarioOptions opts;
    opts.sizes.units = static_cast<int>(ParseSpecInt(parts[0], "units"));
    opts.groups = static_cast<int>(ParseSpecInt(parts[1], "groups"));
    opts.joins = static_cast<int>(ParseSpecInt(parts[2], "joins"));
    if (opts.joins > 3) throw SpiderError("relational joins must be 0..3");
    return BuildRelationalScenario(opts);
  }
  throw SpiderError("unknown workload spec: " + request.text);
}

Response SessionManager::HandleCreate(const Request& request, uint64_t now_ms,
                                      const CancelToken* cancel) {
  {
    // Reserve the id under the lock; the expensive parse + chase runs
    // unlocked and the placeholder blocks a duplicate create racing in.
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(request.session_id)) {
      return ErrorResponse(request.request_id, ErrorCode::kSessionExists,
                           "session id already in use");
    }
    if (sessions_.size() >= options_.max_sessions ||
        stats_.approx_bytes >= options_.total_budget_bytes) {
      ++stats_.rejected_over_budget;
      return ErrorResponse(request.request_id, ErrorCode::kOverBudget,
                           "session limit reached");
    }
    sessions_[request.session_id] = std::make_shared<ServerSession>();
  }

  Scenario scenario;
  try {
    scenario = BuildScenario(request);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.erase(request.session_id);
    return ErrorResponse(request.request_id, ErrorCode::kBadRequest, e.what());
  }

  DebugSessionOptions opts = options_.session;
  opts.plan_cache = &plan_cache_;
  opts.shared_route_cache = &shared_cache_;
  opts.cancel = cancel;  // Opening chase only; cleared inside the session.
  uint64_t domain = request.type == MsgType::kCreateSession
                        ? Fnv1a64("create")
                        : Fnv1a64("load");
  opts.state_key = Fnv1a64(request.text, domain);

  std::unique_ptr<DebugSession> session;
  try {
    session = std::make_unique<DebugSession>(std::move(scenario),
                                             std::move(opts));
  } catch (const CancelledError&) {
    // Aborted mid-build: the half-built session is discarded wholesale, so
    // the outcome is indistinguishable from never having asked.
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(request.session_id);
    }
    return CancelledResponse(request.request_id, cancel);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(request.session_id);
      if (!Cancelled(cancel)) ++stats_.engine_errors;
    }
    if (Cancelled(cancel)) {
      // Concurrent leaf failures can reach us wrapped in a plain
      // SpiderError; the flipped token is the ground truth.
      return CancelledResponse(request.request_id, cancel);
    }
    return ErrorResponse(request.request_id, ErrorCode::kEngineError, e.what());
  }

  size_t bytes = EstimateBytes(*session);
  std::string reply = "created\ntarget_tuples " +
                      std::to_string(session->scenario().target->TotalTuples()) +
                      "\negd_entangled ";
  reply += session->egd_entangled() ? '1' : '0';
  reply += '\n';

  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > options_.session_budget_bytes ||
      stats_.approx_bytes + bytes > options_.total_budget_bytes) {
    plan_cache_.Forget(session->scenario().source.get());
    plan_cache_.Forget(session->scenario().target.get());
    sessions_.erase(request.session_id);
    ++stats_.rejected_over_budget;
    return ErrorResponse(request.request_id, ErrorCode::kOverBudget,
                         "session exceeds memory budget");
  }
  ServerSession& entry = *sessions_[request.session_id];
  for (const auto& [id, name] : session->scenario().null_names) {
    entry.null_ids[name] = id;
  }
  entry.session = std::move(session);
  entry.last_active_ms = now_ms;
  entry.approx_bytes = bytes;
  stats_.approx_bytes += bytes;
  ++stats_.sessions_created;
  stats_.open_sessions = sessions_.size();
  return OkResponse(request.request_id, std::move(reply));
}

std::shared_ptr<SessionManager::ServerSession> SessionManager::Find(
    uint64_t session_id, uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  // A placeholder (create still in flight) is not a usable session.
  if (it == sessions_.end() || it->second->session == nullptr) return nullptr;
  it->second->last_active_ms = now_ms;  // Under mu_: the reaper reads this.
  return it->second;
}

namespace {

/// Clears the session's cancel token on every exit path: tokens are
/// per-request, and a stale pointer into a dead request's token would be
/// polled by the next probe.
struct CancelScope {
  explicit CancelScope(DebugSession* session, const CancelToken* token)
      : session_(session) {
    session_->SetCancel(token);
  }
  ~CancelScope() { session_->SetCancel(nullptr); }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;
  DebugSession* session_;
};

}  // namespace

Response SessionManager::HandleSession(const Request& request,
                                       uint64_t now_ms,
                                       const CancelToken* cancel) {
  std::shared_ptr<ServerSession> entry = Find(request.session_id, now_ms);
  if (entry == nullptr) {
    return ErrorResponse(request.request_id, ErrorCode::kNoSuchSession,
                         "no such session");
  }

  if (request.type == MsgType::kCloseSession) {
    CloseSession(request.session_id);
    return OkResponse(request.request_id, "closed\n");
  }

  DebugSession& session = *entry->session;
  CancelScope cancel_scope(&session, cancel);
  if (request.type == MsgType::kApplyDelta) {
    SourceDelta delta;
    try {
      for (const DeltaOp& op : request.ops) {
        std::string relation;
        Tuple tuple = ParseFactText(op.fact, &relation, entry->null_ids);
        if (op.kind == DeltaOp::kInsert) {
          delta.Insert(std::move(relation), std::move(tuple));
        } else {
          delta.Delete(std::move(relation), std::move(tuple));
        }
      }
    } catch (const std::exception& e) {
      return ErrorResponse(request.request_id, ErrorCode::kBadRequest,
                           e.what());
    }
    try {
      ApplyDeltaResult result = session.Apply(delta);
      size_t bytes = EstimateBytes(session);
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.approx_bytes += bytes - entry->approx_bytes;
        entry->approx_bytes = bytes;
      }
      return OkResponse(request.request_id, RenderApplyResult(result));
    } catch (const CancelledError&) {
      // Apply honors the token only before mutating anything, so the
      // session is exactly as the previous reply left it.
      return CancelledResponse(request.request_id, cancel);
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.engine_errors;
      }
      return ErrorResponse(request.request_id, ErrorCode::kEngineError,
                           e.what());
    }
  }

  try {
    switch (request.type) {
      case MsgType::kRoute:
        return OkResponse(request.request_id,
                          session.debugger().Render(
                              session.RouteFor(request.text)));
      case MsgType::kAllRoutes:
        return OkResponse(request.request_id,
                          session.debugger().Render(
                              session.ForestFor(request.text),
                              options_.max_reply_bytes));
      case MsgType::kLint: {
        // The structural passes only: shape and coverage.
        AnalysisOptions lint;
        lint.termination = lint.subsumption = lint.egd_interaction = false;
        lint.cancel = cancel;
        return OkResponse(
            request.request_id,
            RenderDiagnostics(
                AnalyzeMapping(*session.scenario().mapping, lint).diagnostics));
      }
      case MsgType::kAnalyze:
        return HandleAnalyze(request, session, cancel);
      default:
        return ErrorResponse(request.request_id, ErrorCode::kBadRequest,
                             "unhandled session message type");
    }
  } catch (const CancelledError&) {
    // Route probes are pure reads that abandon their partial result before
    // any cache install; the session is untouched.
    return CancelledResponse(request.request_id, cancel);
  } catch (const RenderLimitError& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.replies_truncated;
    }
    return ErrorResponse(request.request_id, ErrorCode::kReplyTooLarge,
                         "reply too large\nmax_reply_bytes " +
                             std::to_string(e.max_bytes()) + "\n");
  } catch (const std::exception& e) {
    if (Cancelled(cancel)) {
      // TaskGroup can wrap concurrent CancelledErrors in a plain
      // SpiderError; the flipped token is the ground truth.
      return CancelledResponse(request.request_id, cancel);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.engine_errors;
    }
    return ErrorResponse(request.request_id, ErrorCode::kEngineError,
                         e.what());
  }
}

Response SessionManager::HandleAnalyze(const Request& request,
                                       DebugSession& session,
                                       const CancelToken* cancel) {
  AnalysisOptions analysis;
  analysis.cancel = cancel;
  // Spec grammar: the first line is whitespace-separated tokens. "fast"
  // turns the chase-based per-dependency passes off; "full" is the default;
  // "min-cover" and "reachability" add the whole-mapping passes. Two tokens
  // dispatch to spider::algebra instead of the analyzer: "compose" reads a
  // T->U scenario from the remaining lines and replies with the composed
  // S->U mapping; "core" reports the homomorphic core of the session's
  // current solution (read-only: the session target is not modified).
  std::string_view full_spec = request.text;
  size_t newline = full_spec.find('\n');
  std::string_view spec =
      newline == std::string_view::npos ? full_spec
                                        : full_spec.substr(0, newline);
  std::string_view body =
      newline == std::string_view::npos ? std::string_view()
                                        : full_spec.substr(newline + 1);
  bool compose = false;
  bool core = false;
  size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() && spec[pos] == ' ') ++pos;
    size_t end = spec.find(' ', pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view token = spec.substr(pos, end - pos);
    pos = end;
    if (token.empty() || token == "full") {
      continue;
    } else if (token == "fast") {
      analysis.subsumption = false;
      analysis.egd_interaction = false;
    } else if (token == "min-cover") {
      analysis.min_cover = true;
    } else if (token == "reachability") {
      analysis.reachability = true;
    } else if (token == "compose") {
      compose = true;
    } else if (token == "core") {
      core = true;
    } else {
      return ErrorResponse(request.request_id, ErrorCode::kBadRequest,
                           "unknown analyze spec token: " +
                               std::string(token));
    }
  }
  if (compose && core) {
    return ErrorResponse(request.request_id, ErrorCode::kBadRequest,
                         "analyze spec: 'compose' and 'core' are exclusive");
  }

  const SchemaMapping& mapping = *session.scenario().mapping;
  if (compose) {
    Scenario next;
    try {
      next = ParseScenario(std::string(body));
    } catch (const SpiderError& e) {
      return ErrorResponse(request.request_id, ErrorCode::kBadRequest,
                           std::string("compose scenario: ") + e.what());
    }
    // Deterministic in the two mappings alone; request.text already covers
    // the second scenario's text.
    uint64_t key = Fnv1a64(mapping.ToString(),
                           Fnv1a64(request.text, Fnv1a64("analyze-compose")));
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = analysis_cache_.find(key);
      if (it != analysis_cache_.end()) {
        ++stats_.analyze_cache_hits;
        return OkResponse(request.request_id, it->second);
      }
      ++stats_.analyze_cache_misses;
    }
    ComposeOptions compose_options;
    compose_options.cancel = cancel;
    ComposeResult composed =
        ComposeMappings(mapping, *next.mapping, compose_options);
    std::string text = composed.Summary();
    InstallAnalysisCacheEntry(key, text);
    return OkResponse(request.request_id, std::move(text));
  }
  if (core) {
    // Depends on the solution instance, not just the mapping: key by the
    // session's state so deltas invalidate the entry naturally.
    uint64_t key = Fnv1a64(std::to_string(session.state_key()),
                           Fnv1a64(request.text, Fnv1a64("analyze-core")));
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = analysis_cache_.find(key);
      if (it != analysis_cache_.end()) {
        ++stats_.analyze_cache_hits;
        return OkResponse(request.request_id, it->second);
      }
      ++stats_.analyze_cache_misses;
    }
    const Scenario& scenario = session.scenario();
    CoreRetractionOptions core_options;
    core_options.cancel = cancel;
    for (size_t r = 0; r < scenario.source->NumRelations(); ++r) {
      for (const Tuple& t :
           scenario.source->tuples(static_cast<RelationId>(r))) {
        for (const Value& v : t.values()) {
          if (v.is_null()) core_options.rigid_nulls.insert(v.AsNull().id);
        }
      }
    }
    CoreRetractionResult retracted =
        ComputeCoreRetraction(*scenario.target, core_options);
    size_t nulls_collapsed = 0;
    for (const auto& [null_id, image] : retracted.retraction) {
      if (!(image == Value::Null(null_id))) ++nulls_collapsed;
    }
    std::string text =
        "core: " + std::to_string(retracted.facts_removed) + " folded, " +
        std::to_string(nulls_collapsed) + " nulls collapsed" +
        (retracted.complete ? "" : ", budget exhausted") + "\n" +
        retracted.core->ToString();
    InstallAnalysisCacheEntry(key, text);
    return OkResponse(request.request_id, std::move(text));
  }
  // Analysis is deterministic and depends only on the mapping and the spec,
  // so the rendered reply is cacheable by content hash — equal mappings in
  // different sessions share entries.
  uint64_t key =
      Fnv1a64(mapping.ToString(), Fnv1a64(request.text, Fnv1a64("analyze")));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = analysis_cache_.find(key);
    if (it != analysis_cache_.end()) {
      ++stats_.analyze_cache_hits;
      return OkResponse(request.request_id, it->second);
    }
    ++stats_.analyze_cache_misses;
  }

  AnalysisReport report = AnalyzeMapping(mapping, analysis);
  std::string text = RenderDiagnostics(report.diagnostics);
  if (report.reachability != nullptr) {
    text += "reachability:\n" + report.reachability->Summary(mapping.target());
  }
  if (report.min_cover != nullptr) {
    text += report.min_cover->Summary(mapping);
  }

  InstallAnalysisCacheEntry(key, text);
  return OkResponse(request.request_id, std::move(text));
}

void SessionManager::InstallAnalysisCacheEntry(uint64_t key,
                                               const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (analysis_cache_.emplace(key, text).second) {
    analysis_cache_order_.push_back(key);
    while (analysis_cache_order_.size() > kAnalysisCacheEntries) {
      analysis_cache_.erase(analysis_cache_order_.front());
      analysis_cache_order_.pop_front();
    }
  }
}

Response SessionManager::HandleStats(const Request& request) {
  std::string out =
      stats().Render("") + shared_cache_.stats().Render("shared_");
  out += "plan_cache_bytes " + std::to_string(plan_cache_.bytes()) + "\n";
  out += "plan_cache_evictions " + std::to_string(plan_cache_.evictions()) +
         "\n";
  return OkResponse(request.request_id, std::move(out));
}

std::vector<uint64_t> SessionManager::IdleSessionIds(uint64_t now_ms) const {
  std::vector<uint64_t> ids;
  if (options_.idle_timeout_ms == 0) return ids;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, entry] : sessions_) {
    if (entry->session == nullptr) continue;  // Create in flight.
    if (entry->last_active_ms + options_.idle_timeout_ms <= now_ms) {
      ids.push_back(id);
    }
  }
  return ids;
}

bool SessionManager::CloseSession(uint64_t session_id) {
  std::shared_ptr<ServerSession> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end() || it->second->session == nullptr) return false;
    entry = std::move(it->second);
    sessions_.erase(it);
    stats_.approx_bytes -= entry->approx_bytes;
    ++stats_.sessions_closed;
    stats_.open_sessions = sessions_.size();
  }
  // The plan tier must drop entries keyed by the dying instances before a
  // later session can reuse their addresses.
  plan_cache_.Forget(entry->session->scenario().source.get());
  plan_cache_.Forget(entry->session->scenario().target.get());
  return true;
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SessionManager::EstimateBytes(const DebugSession& session) {
  size_t total = 1u << 16;  // Fixed overhead: mapping, caches, debugger.
  for (const Instance* instance : {session.scenario().source.get(),
                                   session.scenario().target.get()}) {
    if (instance == nullptr) continue;
    const Schema& schema = instance->schema();
    for (size_t r = 0; r < instance->NumRelations(); ++r) {
      auto rel = static_cast<RelationId>(r);
      total += instance->NumTuples(rel) * (schema.relation(rel).arity() * 8 + 24);
    }
  }
  return total;
}

}  // namespace spider::serve
