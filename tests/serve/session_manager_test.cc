// SessionManager: the protocol-to-engine bridge, driven in-process.
// Covers the request handlers, admission control, error mapping, idle
// listing, and the close-path plan-cache Forget discipline.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "testing/fixtures.h"

namespace spider::serve {
namespace {

Request Make(MsgType type, uint64_t session_id, std::string text = "",
             std::vector<DeltaOp> ops = {}) {
  Request request;
  request.type = type;
  request.request_id = 1;
  request.session_id = session_id;
  request.text = std::move(text);
  request.ops = std::move(ops);
  return request;
}

TEST(SessionManagerTest, CreateProbeApplyCloseLifecycle) {
  SessionManager manager;
  Response created = manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()), 0);
  ASSERT_EQ(created.type, MsgType::kReply) << created.text;
  EXPECT_NE(created.text.find("created\n"), std::string::npos);
  EXPECT_NE(created.text.find("target_tuples 3"), std::string::npos);

  Response route = manager.Handle(Make(MsgType::kRoute, 1, "T(1, 3)"), 0);
  ASSERT_EQ(route.type, MsgType::kReply) << route.text;
  EXPECT_FALSE(route.text.empty());

  Response forest = manager.Handle(Make(MsgType::kAllRoutes, 1, "T(1, 3)"), 0);
  ASSERT_EQ(forest.type, MsgType::kReply) << forest.text;

  Response lint = manager.Handle(Make(MsgType::kLint, 1), 0);
  ASSERT_EQ(lint.type, MsgType::kReply) << lint.text;

  Response applied = manager.Handle(
      Make(MsgType::kApplyDelta, 1, "",
           {DeltaOp{DeltaOp::kInsert, "S(3, 4)"}}),
      0);
  ASSERT_EQ(applied.type, MsgType::kReply) << applied.text;
  EXPECT_NE(applied.text.find("source_inserted 1"), std::string::npos);

  // The probe after the edit sees the new consequences.
  Response after = manager.Handle(Make(MsgType::kRoute, 1, "T(3, 4)"), 0);
  ASSERT_EQ(after.type, MsgType::kReply) << after.text;

  Response closed = manager.Handle(Make(MsgType::kCloseSession, 1), 0);
  ASSERT_EQ(closed.type, MsgType::kReply);
  EXPECT_EQ(closed.text, "closed\n");
  EXPECT_EQ(manager.stats().open_sessions, 0u);

  Response gone = manager.Handle(Make(MsgType::kRoute, 1, "T(1, 3)"), 0);
  EXPECT_EQ(gone.type, MsgType::kError);
  EXPECT_EQ(gone.code, ErrorCode::kNoSuchSession);
}

// kLint replies with the analyzer's structural passes (shape and coverage)
// in RenderDiagnostics' format. Pinned byte for byte on a mapping with a
// dropped variable, an unread source relation, an unwritten target
// relation, a null-only target position and a dead source position.
TEST(SessionManagerTest, LintReplyGolden) {
  SessionManager manager;
  Response created = manager.Handle(
      Make(MsgType::kCreateSession, 1,
           "source schema { R(a, b); Dead(a); }\n"
           "target schema { T(a, b); Empty(a); }\n"
           "m: R(x, y) -> exists Z . T(x, Z);\n"),
      0);
  ASSERT_EQ(created.type, MsgType::kReply) << created.text;
  Response lint = manager.Handle(Make(MsgType::kLint, 1), 0);
  ASSERT_EQ(lint.type, MsgType::kReply) << lint.text;
  EXPECT_EQ(lint.text,
            "3:4: warning: [shape/dropped-variable] tgd 'm': LHS variable 'y' "
            "never reaches the RHS (source data dropped?)\n"
            "    hint: map 'y' to a target attribute, or rename it if the "
            "projection is intended\n"
            "-: warning: [shape/unused-source-relation] source relation "
            "'Dead' is not read by any s-t tgd (data never migrated)\n"
            "-: warning: [shape/unpopulated-target-relation] target relation "
            "'Empty' is not written by any tgd (always empty)\n"
            "3:26: warning: [coverage/null-only-position] target attribute "
            "T.b is only ever filled with invented nulls (no tgd supplies a "
            "value)\n"
            "    hint: have some tgd copy a source value or constant into "
            "T.b\n"
            "3:4: warning: [coverage/dead-source-position] source attribute "
            "R.b never reaches the target: no s-t tgd copies its value or "
            "compares it\n"
            "    hint: map R.b to a target attribute, or confirm the "
            "projection is intended\n");
}

TEST(SessionManagerTest, LoadSessionSpecs) {
  SessionManager manager;
  Response random = manager.Handle(
      Make(MsgType::kLoadSession, 1, "random:7"), 0);
  ASSERT_EQ(random.type, MsgType::kReply) << random.text;

  Response relational = manager.Handle(
      Make(MsgType::kLoadSession, 2, "relational:2,2,1"), 0);
  ASSERT_EQ(relational.type, MsgType::kReply) << relational.text;

  Response bad = manager.Handle(Make(MsgType::kLoadSession, 3, "nope:1"), 0);
  EXPECT_EQ(bad.type, MsgType::kError);
  EXPECT_EQ(bad.code, ErrorCode::kBadRequest);

  Response malformed = manager.Handle(
      Make(MsgType::kLoadSession, 3, "random:xyz"), 0);
  EXPECT_EQ(malformed.type, MsgType::kError);
  EXPECT_EQ(malformed.code, ErrorCode::kBadRequest);
  // Failed creates never leak a session slot.
  EXPECT_EQ(manager.stats().open_sessions, 2u);
}

TEST(SessionManagerTest, ErrorMapping) {
  SessionManager manager;
  manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()), 0);

  Response duplicate = manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()), 0);
  EXPECT_EQ(duplicate.code, ErrorCode::kSessionExists);

  Response bad_scenario =
      manager.Handle(Make(MsgType::kCreateSession, 2, "not a scenario"), 0);
  EXPECT_EQ(bad_scenario.code, ErrorCode::kBadRequest);

  Response bad_fact = manager.Handle(Make(MsgType::kRoute, 1, "}{"), 0);
  EXPECT_EQ(bad_fact.type, MsgType::kError);
  EXPECT_EQ(bad_fact.code, ErrorCode::kEngineError);

  Response bad_delta = manager.Handle(
      Make(MsgType::kApplyDelta, 1, "",
           {DeltaOp{DeltaOp::kInsert, "NoSuchRel(1)"}}),
      0);
  EXPECT_EQ(bad_delta.type, MsgType::kError);

  Response ping = manager.Handle(Make(MsgType::kPing, 0), 0);
  EXPECT_EQ(ping.text, "pong\n");

  Response stats = manager.Handle(Make(MsgType::kStats, 0), 0);
  EXPECT_NE(stats.text.find("sessions 1\n"), std::string::npos);
  EXPECT_NE(stats.text.find("shared_route_hits "), std::string::npos);
}

// The whole kStats reply after one create and one route: the manager's
// counters, then the shared route tier's under "shared_", then the plan
// tier's level, one "name value" line each.
TEST(SessionManagerTest, StatsReplyGolden) {
  SessionManager manager;
  Response created = manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()), 0);
  ASSERT_EQ(created.type, MsgType::kReply) << created.text;
  Response route = manager.Handle(Make(MsgType::kRoute, 1, "T(1, 3)"), 0);
  ASSERT_EQ(route.type, MsgType::kReply) << route.text;

  Response stats = manager.Handle(Make(MsgType::kStats, 0), 0);
  ASSERT_EQ(stats.type, MsgType::kReply) << stats.text;
  EXPECT_EQ(stats.text,
            "requests 3\n"
            "sessions_created 1\n"
            "sessions_closed 0\n"
            "rejected_over_budget 0\n"
            "engine_errors 0\n"
            "cancelled 0\n"
            "deadline_exceeded 0\n"
            "replies_truncated 0\n"
            "analyze_cache_hits 0\n"
            "analyze_cache_misses 0\n"
            "open_sessions 1\n"
            "approx_bytes 65736\n"
            "shared_route_hits 0\n"
            "shared_route_misses 1\n"
            "shared_forest_hits 0\n"
            "shared_forest_misses 0\n"
            "shared_evictions 0\n"
            "shared_bytes 328\n"
            "shared_entries 1\n"
            "plan_cache_bytes 712\n"
            "plan_cache_evictions 0\n");
}

TEST(SessionManagerTest, AdmissionControlBySessionCount) {
  SessionManagerOptions options;
  options.max_sessions = 2;
  SessionManager manager(options);
  for (uint64_t id = 1; id <= 2; ++id) {
    Response r = manager.Handle(
        Make(MsgType::kCreateSession, id, testing::TransitiveClosureText()),
        0);
    ASSERT_EQ(r.type, MsgType::kReply) << r.text;
  }
  Response third = manager.Handle(
      Make(MsgType::kCreateSession, 3, testing::TransitiveClosureText()), 0);
  EXPECT_EQ(third.type, MsgType::kError);
  EXPECT_EQ(third.code, ErrorCode::kOverBudget);
  EXPECT_EQ(manager.stats().rejected_over_budget, 1u);

  // Closing one frees a slot.
  manager.Handle(Make(MsgType::kCloseSession, 1), 0);
  Response again = manager.Handle(
      Make(MsgType::kCreateSession, 3, testing::TransitiveClosureText()), 0);
  EXPECT_EQ(again.type, MsgType::kReply) << again.text;
}

TEST(SessionManagerTest, AdmissionControlByByteBudget) {
  SessionManagerOptions options;
  options.session_budget_bytes = 1;  // Below any session's fixed overhead.
  SessionManager manager(options);
  Response r = manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()), 0);
  EXPECT_EQ(r.type, MsgType::kError);
  EXPECT_EQ(r.code, ErrorCode::kOverBudget);
  EXPECT_EQ(manager.stats().open_sessions, 0u);
}

TEST(SessionManagerTest, IdleSessionListingAndReap) {
  SessionManagerOptions options;
  options.idle_timeout_ms = 100;
  SessionManager manager(options);
  manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()),
      /*now_ms=*/0);
  manager.Handle(
      Make(MsgType::kCreateSession, 2, testing::TransitiveClosureText()),
      /*now_ms=*/0);
  // Session 2 stays active at t=90; session 1 goes idle.
  manager.Handle(Make(MsgType::kRoute, 2, "T(1, 3)"), /*now_ms=*/90);

  std::vector<uint64_t> idle = manager.IdleSessionIds(/*now_ms=*/150);
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_EQ(idle[0], 1u);
  EXPECT_TRUE(manager.CloseSession(1));
  EXPECT_FALSE(manager.CloseSession(1));
  EXPECT_EQ(manager.stats().open_sessions, 1u);
}

TEST(SessionManagerTest, CloseForgetsPlansForDeadInstances) {
  SessionManager manager;
  manager.Handle(
      Make(MsgType::kCreateSession, 1, testing::TransitiveClosureText()), 0);
  manager.Handle(Make(MsgType::kRoute, 1, "T(1, 3)"), 0);
  size_t with_session = manager.plan_cache().size();
  EXPECT_GT(with_session, 0u);
  manager.Handle(Make(MsgType::kCloseSession, 1), 0);
  // Every plan keyed by the dead session's instances is gone.
  EXPECT_EQ(manager.plan_cache().size(), 0u);
}

}  // namespace
}  // namespace spider::serve
