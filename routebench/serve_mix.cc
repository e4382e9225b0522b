// serve_mix: an in-process spider_serve over loopback TCP. C client threads,
// each on one connection, drive more sessions than clients; every session
// opens the same small seeded relational scenario. The request mix is
// bench_serve's: zipf(0.99) probes over a small hot fact set, 8% all-routes,
// 2% lint, and an identical delta every 64th request per session. Engine
// work per request is microseconds and the shared caches absorb most probes,
// so the wire, the event loop, the queue/pool hand-off and the shared tiers
// carry the work.
//
// Sessions are opened with kCreateSession on the scenario's text rather than
// kLoadSession("random:<seed>"): the random generator draws the mapping's
// shape from the seed as well as the data, and across seeds 1-5 that moved
// ops_per_s between 9.2k and 64k on one host, far beyond any usable bound.
// The relational generator keeps the shape fixed and seeds only the data.

#include <cmath>
#include <latch>
#include <thread>

#include "base/hash.h"
#include "mapping/parser.h"
#include "mapping/writer.h"
#include "serve/client.h"
#include "serve/session_manager.h"
#include "workload/relational_scenario.h"
#include "workloads.h"

namespace routebench {

namespace serve = spider::serve;

namespace {

constexpr size_t kHotFacts = 100;
constexpr double kZipfAlpha = 0.99;
constexpr int kApplyEvery = 64;
constexpr size_t kSessionsPerClient = 8;

/// Inverse-CDF sampler for zipf(alpha) over ranks 0..n-1.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double alpha) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Pick(double u) const {
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

double Uniform(spider::Rng* rng) {
  return static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
}

}  // namespace

spider::Scenario BuildServeScenario(uint64_t seed) {
  spider::RelationalScenarioOptions options;
  options.joins = 1;
  options.groups = 3;
  options.sizes.units = 4;
  options.seed = seed;
  return spider::BuildRelationalScenario(options);
}

ServeWorkload BuildServeWorkload(uint64_t seed) {
  ServeWorkload workload;
  workload.scenario_text = spider::WriteScenario(BuildServeScenario(seed));
  // A local replica parsed from the same text the server parses, to render
  // the hot facts the clients will probe.
  spider::DebugSession replica(spider::ParseScenario(workload.scenario_text));
  // Rank r probes a seeded row of the r-th non-empty target relation (round
  // robin), so the zipf head always has the same relational shape and only
  // the rows vary with the seed.
  const spider::Instance& target = *replica.scenario().target;
  std::vector<spider::RelationId> relations;
  for (size_t r = 0; r < target.NumRelations(); ++r) {
    spider::RelationId rel = static_cast<spider::RelationId>(r);
    if (target.NumTuples(rel) > 0) relations.push_back(rel);
  }
  spider::Rng rng(seed ^ 0x686f74ULL);
  for (size_t rank = 0; rank < kHotFacts && !relations.empty(); ++rank) {
    spider::RelationId rel = relations[rank % relations.size()];
    int32_t row = static_cast<int32_t>(rng.Below(target.NumTuples(rel)));
    workload.hot_facts.push_back(replica.debugger().RenderFactRef(
        spider::FactRef{spider::Side::kTarget, rel, row}));
  }
  const spider::RelationDef& rel0 = replica.scenario().source->schema().relation(0);
  workload.delta_relation = rel0.name();
  workload.delta_arity = rel0.arity();
  return workload;
}

std::vector<ServeOp> PlanServeOps(const ServeWorkload& workload, uint64_t seed,
                                  size_t sessions, size_t count) {
  ZipfPicker zipf(workload.hot_facts.size(), kZipfAlpha);
  spider::Rng rng(seed ^ 0x7365727665ULL);
  std::vector<size_t> per_session(sessions, 0);
  std::vector<ServeOp> plan(count);
  for (size_t i = 0; i < count; ++i) {
    size_t n = per_session[i % sessions]++;
    ServeOp& op = plan[i];
    if (n % kApplyEvery == kApplyEvery - 1) {
      op.type = serve::MsgType::kApplyDelta;
      op.arg = static_cast<uint32_t>(n / kApplyEvery);
      continue;
    }
    double roll = Uniform(&rng);
    op.arg = static_cast<uint32_t>(zipf.Pick(Uniform(&rng)));
    op.type = roll < 0.02   ? serve::MsgType::kLint
              : roll < 0.10 ? serve::MsgType::kAllRoutes
                            : serve::MsgType::kRoute;
  }
  return plan;
}

serve::Request MakeServeRequest(const ServeWorkload& workload,
                                const ServeOp& op, uint64_t session) {
  serve::Request request;
  request.type = op.type;
  request.session_id = session;
  if (op.type == serve::MsgType::kRoute ||
      op.type == serve::MsgType::kAllRoutes) {
    request.text = workload.hot_facts[op.arg];
  } else if (op.type == serve::MsgType::kApplyDelta) {
    std::string fact = workload.delta_relation + "(";
    for (size_t a = 0; a < workload.delta_arity; ++a) {
      if (a > 0) fact += ", ";
      fact += std::to_string(1'000'000 + static_cast<uint64_t>(op.arg));
    }
    fact += ")";
    request.ops.push_back(serve::DeltaOp{serve::DeltaOp::kInsert, fact});
  }
  return request;
}

uint64_t ReplyDigest(const serve::Response& response) {
  uint64_t domain = spider::HashCombine(static_cast<size_t>(response.type),
                                        static_cast<size_t>(response.code));
  return spider::Fnv1a64(response.text, domain);
}

ServeHost::ServeHost(int workers) {
  if (workers > 0) pool_ = std::make_unique<spider::ThreadPool>(workers);
  serve::ServerOptions options;
  options.pool = pool_.get();
  server_ = std::make_unique<serve::Server>(options);
  server_->Start();
}

ServeHost::~ServeHost() {
  server_->Stop();
  server_.reset();
}

double RunServeClients(ServeHost* host, const ServeWorkload& workload,
                       const std::vector<std::vector<ServeOp>>& plans,
                       size_t sessions_per_client, double seconds,
                       std::vector<ServeClientLog>* logs, OpTally* tally) {
  size_t clients = plans.size();
  logs->assign(clients, ServeClientLog{});
  std::vector<OpTally> tallies(clients);
  std::vector<Clock::time_point> starts(clients), ends(clients);
  std::latch loaded(static_cast<std::ptrdiff_t>(clients));
  uint16_t port = host->server().port();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServeClientLog& log = (*logs)[c];
      OpTally& ops = tallies[c];
      bool arrived = false;
      starts[c] = Clock::now();  // Overwritten once the loop starts.
      try {
        serve::Client client;
        client.Connect("127.0.0.1", port);
        for (size_t k = 0; k < sessions_per_client; ++k) {
          uint64_t id = 1 + c + k * clients;
          log.sessions.push_back(id);
          Clock::time_point start = Clock::now();
          serve::Response response =
              client.CreateSession(id, workload.scenario_text);
          log.load_ms.push_back(SecondsSince(start) * 1e3);
          log.load_digests.push_back(ReplyDigest(response));
          ++ops.attempted;
          if (response.type != serve::MsgType::kReply) {
            ops.Fail("create session: " + response.text);
          }
        }
        loaded.arrive_and_wait();
        arrived = true;
        starts[c] = Clock::now();
        Clock::time_point deadline =
            seconds > 0 ? Deadline(seconds) : Clock::time_point::max();
        const std::vector<ServeOp>& plan = plans[c];
        log.digests.reserve(plan.size());
        log.latency_ms.reserve(plan.size());
        for (size_t i = 0; i < plan.size() && Clock::now() < deadline; ++i) {
          serve::Request request = MakeServeRequest(
              workload, plan[i], log.sessions[i % sessions_per_client]);
          Clock::time_point start = Clock::now();
          serve::Response response = client.Call(std::move(request));
          log.latency_ms.push_back(
              static_cast<float>(SecondsSince(start) * 1e3));
          log.digests.push_back(ReplyDigest(response));
          ++ops.attempted;
          if (response.type != serve::MsgType::kReply) {
            ops.Fail(std::string(serve::MsgTypeName(plan[i].type)) + ": " +
                     serve::ErrorCodeName(response.code) + " " +
                     response.text);
          }
        }
        client.Close();
      } catch (const std::exception& e) {
        ++ops.attempted;
        ops.Fail(std::string("client transport: ") + e.what());
      }
      if (!arrived) loaded.count_down();
      log.issued = log.digests.size();
      ends[c] = Clock::now();
    });
  }
  for (std::thread& thread : threads) thread.join();
  Clock::time_point first = *std::min_element(starts.begin(), starts.end());
  Clock::time_point last = *std::max_element(ends.begin(), ends.end());
  for (const OpTally& ops : tallies) {
    tally->attempted += ops.attempted;
    for (const std::string& message : ops.messages) tally->Fail(message);
    tally->failed += ops.failed - ops.messages.size();
  }
  return std::chrono::duration<double>(last - first).count();
}

std::vector<Metric> ServeCounters(ServeHost* host) {
  serve::SessionManager& manager = host->server().manager();
  spider::SharedRouteCacheStats cache = manager.shared_cache().stats();
  serve::SessionManagerStats stats = manager.stats();
  serve::ServerNetStats net = host->server().netstats();
  auto rate = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) / (hits + misses);
  };
  uint64_t route_lookups = cache.route_hits + cache.route_misses;
  uint64_t forest_lookups = cache.forest_hits + cache.forest_misses;
  return {
      {"serve.shared_route_hit_rate", "ratio",
       rate(cache.route_hits, cache.route_misses), route_lookups, ""},
      {"serve.shared_forest_hit_rate", "ratio",
       rate(cache.forest_hits, cache.forest_misses), forest_lookups, ""},
      {"serve.shared_evictions", "count",
       static_cast<double>(cache.evictions), 1, ""},
      {"serve.plan_cache_bytes", "bytes",
       static_cast<double>(manager.plan_cache().bytes()), 1, ""},
      {"serve.plan_cache_evictions", "count",
       static_cast<double>(manager.plan_cache().evictions()), 1, ""},
      {"serve.engine_errors", "count",
       static_cast<double>(stats.engine_errors), stats.requests, ""},
      {"serve.rejected_over_budget", "count",
       static_cast<double>(stats.rejected_over_budget), stats.requests, ""},
      {"serve.read_suspends", "count", static_cast<double>(net.read_suspends),
       1, ""},
      {"serve.peak_conn_out_bytes", "bytes",
       static_cast<double>(net.peak_conn_out_bytes), 1, ""},
  };
}

void ReplayInProcess(const ServeWorkload& workload,
                     const std::vector<std::vector<ServeOp>>& plans,
                     const std::vector<ServeClientLog>& logs,
                     bool alternate_trace, OpTally* tally, ServeReplay* out) {
  serve::SessionManager manager;  // The server's default manager options.
  SpanLog& log = SpanLog::Get();
  bool traced = log.enabled();
  auto check = [&](const serve::Response& response, uint64_t wire_digest,
                   const serve::Request& request) {
    if (ReplyDigest(response) != wire_digest) {
      tally->Fail(std::string("in-process reply to ") +
                  serve::MsgTypeName(request.type) + " " + request.text +
                  " differs from the wire reply");
    }
  };
  int64_t op_id = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    const ServeClientLog& client = logs[c];
    // A client whose transport failed mid-open has fewer digests than ids.
    for (size_t k = 0; k < client.load_digests.size(); ++k) {
      serve::Request request;
      request.type = serve::MsgType::kCreateSession;
      request.session_id = client.sessions[k];
      request.text = workload.scenario_text;
      check(manager.Handle(request, 0), client.load_digests[k], request);
    }
    for (size_t i = 0; i < client.issued; ++i, ++op_id) {
      if (alternate_trace) log.set_enabled((op_id / 32) % 2 == 0);
      serve::Request request = MakeServeRequest(
          workload, plans[c][i], client.sessions[i % client.sessions.size()]);
      Clock::time_point start = Clock::now();
      serve::Response response;
      {
        Traced span("serve", "Handle", op_id);
        response = manager.Handle(request, 0);
      }
      double ms = SecondsSince(start) * 1e3;
      out->handle_ms.Add(ms);
      if (alternate_trace) {
        (log.enabled() ? out->traced_ms : out->untraced_ms).Add(ms);
      }
      check(response, client.digests[i], request);
      if (out->reply_frames.size() < kKeptReplyFrames) {
        out->reply_frames.push_back(serve::EncodeResponse(response));
      }
    }
  }
  log.set_enabled(traced);
}

Report RunServeMix(const RunConfig& config) {
  Report report;
  int nproc = static_cast<int>(HardwareThreads());
  // Client threads plus server threads (loop + pool) stay within nproc.
  int clients = std::max(1, nproc / 2);
  int workers = std::max(0, nproc - clients - 1);
  size_t plan_size = static_cast<size_t>(config.seconds * 60'000) + 10'000;

  ServeWorkload workload;
  std::vector<std::vector<ServeOp>> plans;
  std::unique_ptr<ServeHost> host;
  Samples setup_s;
  for (int k = 0; k < kSetupReps; ++k) {
    host.reset();
    Clock::time_point start = Clock::now();
    workload = BuildServeWorkload(config.seed);
    plans.clear();
    for (int c = 0; c < clients; ++c) {
      plans.push_back(PlanServeOps(workload, config.seed * 1000 + c,
                                   kSessionsPerClient, plan_size));
    }
    host = std::make_unique<ServeHost>(workers);
    setup_s.Add(SecondsSince(start));
  }

  std::vector<ServeClientLog> logs;
  double wall_s = RunServeClients(host.get(), workload, plans,
                                  kSessionsPerClient, config.seconds, &logs,
                                  &report.ops);
  report.peak_rss_mb = PeakRssMb();
  std::vector<Metric> counters = ServeCounters(host.get());
  host.reset();

  Samples open_s, route_ms, forest_ms, apply_ms, all_rtt_ms;
  size_t issued = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (double ms : logs[c].load_ms) open_s.Add(ms / 1e3);
    issued += logs[c].issued;
    for (size_t i = 0; i < logs[c].issued; ++i) {
      double ms = logs[c].latency_ms[i];
      all_rtt_ms.Add(ms);
      switch (plans[c][i].type) {
        case serve::MsgType::kRoute: route_ms.Add(ms); break;
        case serve::MsgType::kAllRoutes: forest_ms.Add(ms); break;
        case serve::MsgType::kApplyDelta: apply_ms.Add(ms); break;
        default: break;
      }
    }
  }

  uint64_t failed_before = report.ops.failed;
  ServeReplay replay;
  ReplayInProcess(workload, plans, logs, config.trace, &report.ops, &replay);
  report.Check("every wire reply is byte-identical to the in-process "
               "SessionManager::Handle reply for the same request",
               report.ops.failed == failed_before);

  double ops_per_s = wall_s > 0 ? issued / wall_s : 0;
  report.E2e("setup_s", "s", setup_s.Median(), setup_s.size());
  report.E2e("open_s", "s", open_s.Median(), open_s.size());
  report.E2e("ops_per_s", "1/s", ops_per_s, issued);
  report.Latency("route", route_ms, 0.99, "p99");
  report.Latency("forest", forest_ms, 0.99, "p99");
  report.Latency("apply", apply_ms, 0.90, "p90");

  report.Gated("setup_s", "s", setup_s.Median(), setup_s.size());
  report.Gated("open_s", "s", open_s.Median(), open_s.size());
  report.Gated("ops_per_s", "1/s", ops_per_s, issued);
  report.Gated("p50_ms", "ms", route_ms.Median(), route_ms.size());

  if (config.trace) {
    SweepInputs inputs;
    inputs.seed = config.seed;
    inputs.relational = false;
    inputs.serve_workload = &workload;
    inputs.serve_plans = &plans;
    inputs.serve_logs = &logs;
    inputs.serve_counters = counters;
    inputs.serve_replay = &replay;
    inputs.serve_rtt_ms = all_rtt_ms.Median();
    inputs.traced_ms = replay.traced_ms.Median();
    inputs.untraced_ms = replay.untraced_ms.Median();
    SweepLayers(inputs, &report);
  }
  return report;
}

}  // namespace routebench
