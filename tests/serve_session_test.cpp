// End-to-end through the stdio transport: the streaming event grammar
// (accepted -> nonincreasing samples -> report), fixed-seed report
// byte-identity with the in-process api::Solver path, wire-boundary error
// containment, and the service_dispatch fault leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "core/params.hpp"
#include "problems/spec.hpp"
#include "serve/stdio_server.hpp"
#include "util/fault.hpp"

namespace cspls::serve {
namespace {

std::vector<util::Json> serve_lines(const std::vector<std::string>& lines,
                                    SchedulerOptions options = {},
                                    Session::Options session = {}) {
  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  Scheduler scheduler(options);
  StdioServer(scheduler, in, out, session).run();
  scheduler.shutdown();

  std::vector<util::Json> events;
  std::istringstream replies(out.str());
  std::string reply;
  while (std::getline(replies, reply)) {
    auto event = util::Json::parse(reply);
    EXPECT_TRUE(event.has_value()) << "unparsable event line: " << reply;
    if (event) events.push_back(std::move(*event));
  }
  return events;
}

std::string solve_line(const api::SolveRequest& request, bool stream,
                       std::uint64_t sample_period,
                       std::string_view tag = "t") {
  util::Json envelope = util::Json::object();
  envelope.set("op", "solve").set("request", request.to_json());
  if (stream) {
    envelope.set("stream", true).set("sample_period", sample_period);
  }
  envelope.set("tag", tag);
  return envelope.dump(0);
}

api::SolveRequest small_request(std::uint64_t seed) {
  api::SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 1;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kSequential;
  return request;
}

void zero_timings(api::SolveReport& report) {
  report.wall_seconds = 0.0;
  report.time_to_solution_seconds = 0.0;
  for (api::WalkerReport& walker : report.walkers) walker.seconds = 0.0;
}

TEST(ServeSession, StreamsAcceptedThenNonincreasingSamplesThenReport) {
  const auto events =
      serve_lines({solve_line(small_request(0x5eed), true, 1)});
  ASSERT_GE(events.size(), 3u) << "expected accepted + sample(s) + report";

  EXPECT_EQ(events.front().at("event").as_string(), "accepted");
  EXPECT_EQ(events.front().at("tag").as_string(), "t");
  const std::uint64_t id = events.front().at("id").as_uint64();

  std::size_t samples = 0;
  csp::Cost last_cost = csp::kInfiniteCost;
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    const util::Json& event = events[i];
    ASSERT_EQ(event.at("event").as_string(), "sample");
    EXPECT_EQ(event.at("id").as_uint64(), id);
    const csp::Cost cost = event.at("best_cost").as_int64();
    EXPECT_LT(cost, last_cost) << "sample costs must strictly decrease";
    last_cost = cost;
    ++samples;
  }
  EXPECT_GE(samples, 1u);

  const util::Json& last = events.back();
  EXPECT_EQ(last.at("event").as_string(), "report");
  EXPECT_EQ(last.at("id").as_uint64(), id);
  EXPECT_EQ(last.at("status").as_string(), "done");
  // The final report's cost closes the nonincreasing chain.
  EXPECT_LE(last.at("report").at("cost").as_int64(), last_cost);
}

TEST(ServeSession, FixedSeedReportIsByteIdenticalToInProcessSolver) {
  // Warm path (sequential) and a threaded pool forced onto the warm path:
  // the transport must add naming and framing, never behaviour.
  // kBestAfterBudget so per-walker trajectories are deterministic even on
  // real threads (kFirstFinisher's winner would race wall-clock).
  api::SolveRequest threaded = small_request(99);
  threaded.problem = "costas:8";
  threaded.walkers = 2;
  threaded.scheduling = parallel::Scheduling::kThreads;
  threaded.termination = parallel::Termination::kBestAfterBudget;

  for (const api::SolveRequest& request :
       {small_request(123), threaded}) {
    SchedulerOptions options;
    options.warm_lease_threshold = 8;  // keep both on the Solver-direct path
    const auto events =
        serve_lines({solve_line(request, false, 0)}, options);
    ASSERT_EQ(events.size(), 2u);
    ASSERT_EQ(events.back().at("event").as_string(), "report");

    api::SolveReport wire =
        api::SolveReport::from_json(events.back().at("report"));
    api::SolveReport direct = api::Solver::solve(request);
    zero_timings(wire);
    zero_timings(direct);
    EXPECT_EQ(wire.to_json().dump(0), direct.to_json().dump(0));
  }
}

TEST(ServeSession, WireErrorsAreContainedAndTheServerKeepsServing) {
  Session::Options session;
  session.max_line_bytes = 512;
  const std::string oversized =
      R"({"op":"solve","request":{"problem":")" + std::string(600, 'x') +
      R"("}})";
  const auto events = serve_lines(
      {
          "{broken json",
          R"({"op":"solve","request":{"problem":"costas:7"},"nope":1})",
          oversized,
          R"({"op":"solve","request":{"problem":"costas:7","walkers":1,)"
          R"("scheduling":"sequential","seed":5},"tag":"after"})",
      },
      SchedulerOptions{}, session);

  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].at("event").as_string(), "error");
  EXPECT_EQ(events[0].at("code").as_string(), "bad_json");
  EXPECT_EQ(events[1].at("event").as_string(), "error");
  EXPECT_EQ(events[1].at("code").as_string(), "bad_envelope");
  EXPECT_EQ(events[2].at("event").as_string(), "error");
  EXPECT_EQ(events[2].at("code").as_string(), "oversized");
  // The session survived all three: the valid solve still runs to a report.
  EXPECT_EQ(events[3].at("event").as_string(), "accepted");
  EXPECT_EQ(events[4].at("event").as_string(), "report");
  EXPECT_EQ(events[4].at("status").as_string(), "done");
  EXPECT_EQ(events[4].at("tag").as_string(), "after");
}

// A client-supplied configuration is validated before any kernel sees it:
// on every kernel, a warm start with out-of-range values, a duplicated
// value or the wrong length answers a bad_request error event (unchecked,
// it would index past the kernel's tables or "solve" to a non-permutation),
// and the session keeps serving the next solve.
TEST(ServeSession, ForeignWarmStartsAnswerBadRequestOnEveryKernel) {
  const std::vector<std::string> specs = {
      "costas:7",     "all-interval:8", "perfect-square:4", "magic-square:3",
      "queens:8",     "langford:4",     "partition:8",      "alpha"};
  for (const std::string& spec : specs) {
    const std::vector<int> valid = [&] {
      const auto problem = problems::instantiate(problems::parse_spec(spec));
      return std::vector<int>(problem->values().begin(),
                              problem->values().end());
    }();
    std::vector<int> out_of_range = valid;
    out_of_range[0] = 100000;
    out_of_range[1] = -5000;
    std::vector<int> duplicate = valid;
    const auto other =
        std::find_if(duplicate.begin(), duplicate.end(),
                     [&](int v) { return v != duplicate.front(); });
    ASSERT_NE(other, duplicate.end()) << spec;
    *other = duplicate.front();
    std::vector<int> short_by_one(valid.begin(), valid.end() - 1);

    api::SolveRequest request;
    request.problem = spec;
    request.walkers = 1;
    request.seed = 7;
    request.scheduling = parallel::Scheduling::kSequential;
    core::Params params;
    params.restart_limit = 2000;
    params.max_restarts = 0;
    request.params = params;
    std::vector<std::string> lines;
    const std::vector<std::pair<std::string, std::vector<int>>> cases = {
        {"out_of_range", out_of_range},
        {"duplicate", duplicate},
        {"wrong_length", short_by_one}};
    for (const auto& [tag, warm_start] : cases) {
      api::SolveRequest bad = request;
      bad.warm_start = warm_start;
      lines.push_back(solve_line(bad, false, 0, tag));
    }
    lines.push_back(solve_line(request, false, 0, "after"));

    const auto events = serve_lines(lines);
    ASSERT_EQ(events.size(), 5u) << spec;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      EXPECT_EQ(events[k].at("event").as_string(), "error") << spec;
      EXPECT_EQ(events[k].at("code").as_string(), "bad_request") << spec;
      EXPECT_EQ(events[k].at("tag").as_string(), cases[k].first) << spec;
    }
    EXPECT_EQ(events[3].at("event").as_string(), "accepted") << spec;
    EXPECT_EQ(events[4].at("event").as_string(), "report") << spec;
    EXPECT_EQ(events[4].at("status").as_string(), "done") << spec;
    EXPECT_EQ(events[4].at("tag").as_string(), "after") << spec;
  }
}

TEST(ServeSession, BadRequestBodyAndUnknownJobCancelAreStructuredErrors) {
  const auto events = serve_lines({
      R"({"op":"solve","request":{"problem":"no-such-problem:5"},"tag":"x"})",
      R"({"op":"cancel","id":999})",
      R"({"op":"stats"})",
  });
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("event").as_string(), "error");
  EXPECT_EQ(events[0].at("code").as_string(), "bad_request");
  EXPECT_EQ(events[0].at("tag").as_string(), "x");
  EXPECT_EQ(events[1].at("event").as_string(), "error");
  EXPECT_EQ(events[1].at("code").as_string(), "unknown_job");
  EXPECT_EQ(events[2].at("event").as_string(), "stats");
  // Both stat panes carry their schema.
  EXPECT_TRUE(events[2].at("scheduler").contains("batches"));
  EXPECT_TRUE(events[2].at("scheduler").contains("preempted_queued"));
  EXPECT_TRUE(events[2].at("scheduler").contains("preempted_running"));
  EXPECT_TRUE(events[2].at("scheduler").contains("rejected_overload"));
  EXPECT_TRUE(events[2].at("service").contains("thread_budget"));
  EXPECT_TRUE(events[2].at("service").contains("retried"));
}

TEST(ServeSession, ServiceDispatchThrowFaultFailsTheJobNotTheServer) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "fault sites compiled out (CSPLS_FAULT_INJECTION=OFF)";
  }
  api::SolveRequest doomed = small_request(1);
  util::fault::FaultPlan plan;
  plan.site = util::fault::Site::kServiceDispatch;
  plan.kind = util::fault::Kind::kThrow;
  plan.at_count = 1;
  doomed.faults.push_back(plan);

  const auto events = serve_lines({
      solve_line(doomed, false, 0, "doomed"),
      solve_line(small_request(2), false, 0, "fine"),
  });
  // Both accepteds may precede both reports, and the reports race each
  // other: locate each job's report by tag instead of by position.
  ASSERT_EQ(events.size(), 4u);
  auto report_of = [&](std::string_view tag) -> const util::Json* {
    for (const util::Json& event : events) {
      if (event.at("event").as_string() == "report" &&
          event.at("tag").as_string() == tag) {
        return &event;
      }
    }
    return nullptr;
  };
  const util::Json* failed = report_of("doomed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->at("status").as_string(), "failed");
  EXPECT_NE(failed->at("error").as_string().find("service_dispatch"),
            std::string::npos);
  // The crash was contained to its job: the next solve is untouched.
  const util::Json* fine = report_of("fine");
  ASSERT_NE(fine, nullptr);
  EXPECT_EQ(fine->at("status").as_string(), "done");
}

TEST(ServeSession, ServiceDispatchStallFaultOnlyDelaysTheJob) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "fault sites compiled out (CSPLS_FAULT_INJECTION=OFF)";
  }
  api::SolveRequest slow = small_request(3);
  util::fault::FaultPlan plan;
  plan.site = util::fault::Site::kServiceDispatch;
  plan.kind = util::fault::Kind::kStall;
  plan.stall_ms = 50;
  slow.faults.push_back(plan);

  const auto events = serve_lines({solve_line(slow, false, 0)});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().at("event").as_string(), "report");
  EXPECT_EQ(events.back().at("status").as_string(), "done");
}

}  // namespace
}  // namespace cspls::serve
