#include "layers.hpp"

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>

#include "api/service.hpp"
#include "api/solver.hpp"
#include "core/adaptive_search.hpp"
#include "net.hpp"
#include "parallel/fused.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/spec.hpp"
#include "serve/http_server.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cspls;
using util::Json;

double us_since(Clock::time_point t0) { return ms_between(t0, Clock::now()) * 1000.0; }

/// Kernels measured by the problems layer: the race instances at race size,
/// the other small-mix kernels at small-mix size.
const std::vector<std::string>& kernel_specs() {
  static const std::vector<std::string> specs = {
      "costas:16", "magic-square:30", "all-interval:20", "queens:32",
      "langford:11", "partition:24", "perfect-square:5"};
  return specs;
}

std::unique_ptr<csp::Problem> make(const std::string& spec) {
  return problems::instantiate(problems::parse_spec(spec));
}

/// The request a generated job carries, decoded.
api::SolveRequest decode(const Job& job) {
  return api::SolveRequest::from_json_string(job.request);
}

/// The run's shared context: options, result, spans, correctness gate.
struct Ctx {
  const TraceOptions& options;
  Result& result;
  SpanRecorder& spans;
  ReportChecker checker;
  std::uint64_t next_request = 1;

  /// Time-scaled repetition count (the runs are sized for 20 s).
  [[nodiscard]] std::size_t reps(std::size_t at_20s) const {
    return std::max<std::size_t>(
        3, static_cast<std::size_t>(static_cast<double>(at_20s) * options.seconds / 20.0));
  }

  void gate(const api::SolveReport& report, std::string_view where) {
    ++result.attempted;
    const std::string problem = checker.check(report.to_json());
    if (!problem.empty()) {
      ++result.incorrect;
      result.note_problem(std::string(where) + ": " + problem);
    }
  }
};

// --- problems + core -----------------------------------------------------

struct EngineRun {
  double seconds = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t evaluations = 0;
};

EngineRun run_engine(const csp::Problem& prototype, std::uint64_t seed,
                     std::uint64_t budget, bool hooks_on) {
  auto problem = prototype.clone();
  core::Params params =
      core::Params::from_hints(problem->tuning(), problem->num_variables());
  params.restart_limit = budget;
  params.max_restarts = 0;
  const core::AdaptiveSearch engine(params);
  util::Xoshiro256 rng = util::RngStreamFactory(seed).stream(0);
  core::Hooks hooks;
  std::atomic<std::uint64_t> heartbeat{0};
  std::uint64_t samples = 0;
  core::WalkerTrace trace;
  if (hooks_on) {
    hooks.sample = [&samples](std::uint64_t, csp::Cost) { ++samples; };
    hooks.sample_period = 256;
    hooks.heartbeat = &heartbeat;
    hooks.trace = &trace;
    hooks.trace_sample_period = 256;
  }
  const Clock::time_point t0 = Clock::now();
  const core::Result result = engine.solve(*problem, rng, core::StopToken{}, hooks);
  return EngineRun{ms_between(t0, Clock::now()) / 1000.0, result.stats.iterations,
                   result.stats.cost_evaluations};
}

/// problems.<kernel>.{ns_per_iter, scalar_ns_per_iter, evals_per_iter} and
/// core.hooks_overhead_pct: fixed-budget engine runs, the SIMD tier, the
/// forced-scalar tier and hooks-on interleaved seed by seed.
void measure_kernels(Ctx& ctx) {
  const double per_kernel_s = 0.03 * ctx.options.seconds;
  double off_s = 0.0, on_s = 0.0;
  for (const std::string& spec : kernel_specs()) {
    const auto prototype = make(spec);
    const std::string name = problems::parse_spec(spec).name;
    EngineRun simd, scalar;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t seed = 1; seed <= 3 || ms_between(t0, Clock::now()) < per_kernel_s * 1000.0;
         ++seed) {
      const std::int64_t span = ctx.spans.open("problems." + name, seed);
      const EngineRun a = run_engine(*prototype, seed, 4000, false);
      ctx.spans.close(span);
      util::simd::set_force_scalar(true);
      const EngineRun b = run_engine(*prototype, seed, 4000, false);
      util::simd::set_force_scalar(false);
      const EngineRun c = run_engine(*prototype, seed, 4000, true);
      if (a.iterations != b.iterations || a.iterations != c.iterations) {
        ctx.result.note_problem(spec + ": tiers/hooks changed the trajectory");
      }
      simd.seconds += a.seconds;
      simd.iterations += a.iterations;
      simd.evaluations += a.evaluations;
      scalar.seconds += b.seconds;
      scalar.iterations += b.iterations;
      off_s += a.seconds;
      on_s += c.seconds;
    }
    const auto iters = static_cast<double>(simd.iterations);
    ctx.result.set("problems." + name + ".ns_per_iter", simd.seconds * 1e9 / iters, "ns");
    ctx.result.set("problems." + name + ".scalar_ns_per_iter",
                   scalar.seconds * 1e9 / static_cast<double>(scalar.iterations), "ns");
    ctx.result.set("problems." + name + ".evals_per_iter",
                   static_cast<double>(simd.evaluations) / iters, "count");
  }
  ctx.result.set("core.hooks_overhead_pct", (on_s - off_s) / off_s * 100.0, "%");
}

/// core.checkpoint_capture_us / core.checkpoint_bytes: the preempt flag
/// flips mid-walk; capture is flip -> AdaptiveSearch::solve returns.
void measure_engine_checkpoint(Ctx& ctx) {
  const auto prototype = make(std::string(kPreemptLowProblem));
  std::vector<double> capture_us;
  double bytes = 0.0;
  for (std::size_t rep = 0; rep < ctx.reps(20); ++rep) {
    auto problem = prototype->clone();
    core::Params params =
        core::Params::from_hints(problem->tuning(), problem->num_variables());
    params.restart_limit = 1'000'000'000;
    const core::AdaptiveSearch engine(params);
    util::Xoshiro256 rng = util::RngStreamFactory(rep + 1).stream(0);
    std::atomic<bool> flag{false};
    std::optional<core::Checkpoint> checkpoint;
    core::Hooks hooks;
    hooks.checkpoint_out = &checkpoint;
    Clock::time_point returned{};
    std::thread walker([&] {
      (void)engine.solve(*problem, rng, core::StopToken().with_preempt(&flag), hooks);
      returned = Clock::now();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const Clock::time_point flip = Clock::now();
    flag.store(true);
    walker.join();
    capture_us.push_back(ms_between(flip, returned) * 1000.0);
    if (!checkpoint) {
      ctx.result.note_problem("engine preemption captured no checkpoint");
      continue;
    }
    bytes = static_cast<double>(checkpoint->to_json().dump(0).size());
  }
  ctx.result.set("core.checkpoint_capture_us", median(capture_us), "us");
  ctx.result.set("core.checkpoint_bytes", bytes, "bytes");
}

// --- The warm-path layer chain ------------------------------------------

/// Waits for terminal events of in-process scheduler / session jobs.
struct Waiter {
  std::mutex m;
  std::condition_variable cv;
  std::uint64_t done = 0;
  std::string last_status;

  void notify(std::string_view status) {
    std::lock_guard lock(m);
    ++done;
    last_status = std::string(status);
    cv.notify_all();
  }
  /// The `done` count the next terminal event will reach.
  std::uint64_t next() {
    std::lock_guard lock(m);
    return done + 1;
  }
  void wait_for(std::uint64_t count) {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return done >= count; });
  }
};

serve::JobEvents events_for(Waiter& waiter) {
  serve::JobEvents events;
  events.on_report = [&waiter](std::uint64_t, std::string_view status,
                               const api::SolveReport&, std::string_view) {
    waiter.notify(status);
  };
  return events;
}

serve::SolveCommand command_for(const Job& job) {
  serve::SolveCommand command;
  command.request = decode(job);
  command.priority = *serve::priority_from_name(job.priority);
  command.tag = job.tag;
  return command;
}

struct ChainSamples {
  std::vector<double> session_line_us, scheduler_added_us, solver_added_us,
      launch_us, encode_report_us, report_encode_us;
};

/// One fixed-seed 1-walker request through Session, Scheduler, Solver,
/// WalkerPool and AdaptiveSearch, outermost first; each span's parent is
/// the next layer out.
void chain_once(Ctx& ctx, const Job& job, serve::Scheduler& scheduler,
                serve::Session& session, Waiter& waiter, ChainSamples& s) {
  const std::uint64_t id = ctx.next_request++;
  const api::SolveRequest request = decode(job);

  const std::int64_t session_span = ctx.spans.open("serve.session", id);
  std::uint64_t target = waiter.next();
  Clock::time_point t0 = Clock::now();
  session.handle_line(job.line);
  s.session_line_us.push_back(us_since(t0));
  waiter.wait_for(target);
  ctx.spans.close(session_span);

  const std::int64_t sched_span = ctx.spans.open("serve.scheduler", id, session_span);
  target = waiter.next();
  t0 = Clock::now();
  scheduler.submit(command_for(job), events_for(waiter));
  waiter.wait_for(target);
  const double sched_us = us_since(t0);
  ctx.spans.close(sched_span);
  if (waiter.last_status != "done") {
    ctx.result.note_problem(job.tag + ": scheduler status " + waiter.last_status);
  }

  const std::int64_t api_span = ctx.spans.open("api", id, sched_span);
  t0 = Clock::now();
  const api::SolveReport report = api::Solver::solve(request);
  const double api_us = us_since(t0);
  ctx.spans.close(api_span);
  ctx.gate(report, job.tag);

  const auto prototype = make(request.problem);
  const parallel::WalkerPool pool(request.to_pool_options());
  const std::int64_t pool_span = ctx.spans.open("parallel", id, api_span);
  t0 = Clock::now();
  const parallel::MultiWalkReport multi = pool.run(*prototype);
  const double pool_us = us_since(t0);
  ctx.spans.close(pool_span);

  // Walker 0's own engine run: same clone, same stream, same parameters.
  auto problem = prototype->clone();
  const core::AdaptiveSearch engine =
      request.params ? core::AdaptiveSearch(*request.params)
                     : core::AdaptiveSearch::with_defaults(*problem);
  util::Xoshiro256 rng = util::RngStreamFactory(request.seed).stream(0);
  const std::int64_t core_span = ctx.spans.open("core", id, pool_span);
  t0 = Clock::now();
  const core::Result engine_result = engine.solve(*problem, rng, core::StopToken{});
  const double core_us = us_since(t0);
  ctx.spans.close(core_span);
  if (engine_result.stats.iterations != multi.walkers.at(0).result.stats.iterations) {
    ctx.result.note_problem(job.tag + ": engine run diverged from walker 0");
  }

  s.scheduler_added_us.push_back(sched_us - api_us);
  s.solver_added_us.push_back(api_us - pool_us);
  s.launch_us.push_back(pool_us - core_us);
  t0 = Clock::now();
  const std::string event = serve::encode_report(id, job.tag, "done", report, "");
  s.encode_report_us.push_back(us_since(t0));
  t0 = Clock::now();
  const std::string encoded = report.to_json_string();
  s.report_encode_us.push_back(us_since(t0));
  if (event.empty() || encoded.empty()) ctx.result.note_problem("empty encoding");
}

/// The warm-path chain over small-mix requests, run untraced then traced
/// on the same inputs: the pass-time difference is the tracing overhead.
void measure_warm_chain(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0x5eedULL);
  SmallDeck deck(rng);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < ctx.reps(150); ++i) {
    jobs.push_back(deck.deal("chain" + std::to_string(i)));
  }
  serve::Scheduler scheduler;
  Waiter waiter;
  serve::Session session(scheduler, [&waiter](std::string_view line) {
    if (line.find("\"event\":\"report\"") != std::string_view::npos) {
      waiter.notify("done");
    }
  });

  double pass_ms[2] = {0.0, 0.0};
  ChainSamples samples;
  SpanRecorder off(false);
  for (int pass = 0; pass < 2; ++pass) {
    Ctx pass_ctx{ctx.options, ctx.result, pass == 0 ? off : ctx.spans, {}, ctx.next_request};
    ChainSamples pass_samples;
    const Clock::time_point t0 = Clock::now();
    for (const Job& job : jobs) {
      chain_once(pass_ctx, job, scheduler, session, waiter, pass_samples);
    }
    pass_ms[pass] = ms_between(t0, Clock::now());
    ctx.next_request = pass_ctx.next_request;
    if (pass == 1) samples = std::move(pass_samples);
  }
  session.drain();
  ctx.result.set("trace.overhead_pct", (pass_ms[1] - pass_ms[0]) / pass_ms[0] * 100.0, "%");
  ctx.result.set("serve.session_line_us", median(samples.session_line_us), "us");
  ctx.result.set("serve.encode_report_us", median(samples.encode_report_us), "us");
  ctx.result.set("serve.warm_added_us.p50", median(samples.scheduler_added_us), "us");
  ctx.result.set("serve.warm_added_us.p99", quantile(samples.scheduler_added_us, 0.99), "us");
  ctx.result.set("api.solver_added_us", median(samples.solver_added_us), "us");
  ctx.result.set("api.report_encode_us", median(samples.report_encode_us), "us");
  ctx.result.set("parallel.launch_us", median(samples.launch_us), "us");

  // Mean self time per request of each chain layer.
  const std::map<std::string, double> self = ctx.spans.self_us();
  for (const char* layer : {"serve.session", "serve.scheduler", "api", "parallel", "core"}) {
    const auto it = self.find(layer);
    ctx.result.set(std::string(layer) + ".self_us",
                   it == self.end() ? 0.0 : it->second / static_cast<double>(jobs.size()),
                   "us");
  }
}

/// serve.jobs_per_batch / serve.givebacks: small-mix arrivals at the
/// ladder's lowest rate into a production-default scheduler.
void measure_warm_batching(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0xba7cULL);
  SmallDeck deck(rng);
  serve::Scheduler scheduler;
  Waiter waiter;
  const double rate = small_ladder().front();
  const std::size_t n = ctx.reps(800);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) / rate)));
    const Job job = deck.deal("batch" + std::to_string(i));
    const std::int64_t span = ctx.spans.open("serve.scheduler.submit", ctx.next_request++);
    scheduler.submit(command_for(job), events_for(waiter));
    ctx.spans.close(span);
  }
  waiter.wait_for(n);
  const serve::SchedulerStats stats = scheduler.stats();
  ctx.result.attempted += n;
  ctx.result.failed += stats.failed + stats.cancelled;
  ctx.result.set("serve.jobs_per_batch",
                 stats.batches == 0 ? 0.0
                                    : static_cast<double>(stats.batched_jobs) /
                                          static_cast<double>(stats.batches),
                 "count");
  ctx.result.set("serve.givebacks", static_cast<double>(stats.givebacks), "count");
}

/// parallel.fused_per_member_us: FusedRun batches of the warm path's
/// batch size, run inline as the warm workers do.
void measure_fused(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0xf05eULL);
  SmallDeck deck(rng);
  constexpr std::size_t kMembers = 8;
  std::vector<double> per_member;
  for (std::size_t batch = 0; batch < ctx.reps(25); ++batch) {
    std::vector<std::unique_ptr<csp::Problem>> prototypes;
    std::vector<parallel::FusedJob> members;
    for (std::size_t i = 0; i < kMembers; ++i) {
      const api::SolveRequest request = decode(deck.deal("f"));
      prototypes.push_back(make(request.problem));
      members.push_back(parallel::FusedJob{prototypes.back().get(),
                                           request.to_pool_options(), {}});
    }
    parallel::FusedOptions options;
    options.num_threads = 1;
    const parallel::FusedRun run(options);
    std::atomic<std::size_t> reported{0};
    const std::int64_t span = ctx.spans.open("parallel.fused", ctx.next_request++);
    const Clock::time_point t0 = Clock::now();
    (void)run.run(members, [&](std::size_t, const parallel::MultiWalkReport&) { ++reported; });
    per_member.push_back(us_since(t0) / kMembers);
    ctx.spans.close(span);
    if (reported != kMembers) ctx.result.note_problem("fused batch lost a member");
  }
  ctx.result.set("parallel.fused_per_member_us", median(per_member), "us");
}

// --- Threaded races --------------------------------------------------------

/// parallel.threads_launch_us (4-walker spawn/join on tiny solves) and
/// parallel.stop_lag_ms (race reports: wall - time to solution).
void measure_threads(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0x7ead5ULL);
  SmallDeck deck(rng);
  std::vector<double> launch_us;
  for (std::size_t i = 0; i < ctx.reps(60); ++i) {
    api::SolveRequest request = decode(deck.deal("t"));
    request.walkers = 4;
    request.scheduling = parallel::Scheduling::kThreads;
    const auto prototype = make(request.problem);
    const parallel::WalkerPool pool(request.to_pool_options());
    const std::int64_t span = ctx.spans.open("parallel.threads", ctx.next_request++);
    const Clock::time_point t0 = Clock::now();
    const parallel::MultiWalkReport report = pool.run(*prototype);
    const double wall_us = us_since(t0);
    ctx.spans.close(span);
    double engine_s = 0.0;
    for (const auto& w : report.walkers) engine_s = std::max(engine_s, w.result.stats.seconds);
    launch_us.push_back(wall_us - engine_s * 1e6);
  }
  ctx.result.set("parallel.threads_launch_us", median(launch_us), "us");

  std::vector<double> lag_ms;
  const Clock::time_point t0 = Clock::now();
  for (const Job& job : race_pass(rng, 0)) {
    if (lag_ms.size() >= 3 && ms_between(t0, Clock::now()) > 50.0 * ctx.options.seconds) break;
    const std::int64_t span = ctx.spans.open("api.race", ctx.next_request++);
    const api::SolveReport report = api::Solver::solve(decode(job));
    ctx.spans.close(span);
    ctx.gate(report, job.tag);
    lag_ms.push_back((report.wall_seconds - report.time_to_solution_seconds) * 1000.0);
  }
  ctx.result.set("parallel.stop_lag_ms", median(lag_ms), "ms");
}

// --- Preemption, checkpoints and the service path --------------------------

/// parallel.pool_checkpoint_ms, parallel.resume_ms and the exchange
/// counters on the preempt workload's low job: an uninterrupted run, then
/// the same job preempted half-way (flag -> run returns with its
/// PoolCheckpoint) and resumed from the JSON round-tripped checkpoint.
void measure_pool_checkpoint(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0xc4ecULL);
  std::vector<double> capture_ms, resume_ms;
  double publishes = 0.0, adoptions = 0.0;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    const api::SolveRequest request = decode(preempt_low_job(rng, "p"));
    const auto prototype = make(request.problem);
    const parallel::WalkerPoolOptions options = request.to_pool_options();

    Clock::time_point t0 = Clock::now();
    const parallel::MultiWalkReport full = parallel::WalkerPool(options).run(*prototype);
    const double u_ms = ms_between(t0, Clock::now());
    publishes += static_cast<double>(full.comm_publishes);
    adoptions += static_cast<double>(full.comm_adoptions);

    std::atomic<bool> flag{false};
    std::optional<parallel::PoolCheckpoint> checkpoint;
    parallel::WalkerPoolOptions preempted = options;
    preempted.preempt = &flag;
    preempted.checkpoint_out = &checkpoint;
    Clock::time_point returned{};
    const std::int64_t span = ctx.spans.open("parallel.preempt", ctx.next_request++);
    t0 = Clock::now();
    std::thread runner([&] {
      (void)parallel::WalkerPool(preempted).run(*prototype);
      returned = Clock::now();
    });
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(u_ms / 2.0));
    const Clock::time_point flip = Clock::now();
    flag.store(true);
    runner.join();
    ctx.spans.close(span);
    capture_ms.push_back(ms_between(flip, returned));
    if (!checkpoint) {
      ctx.result.note_problem("pool preemption captured no checkpoint");
      continue;
    }
    // Resume latency: WalkerPool::run(resume) called -> the first resumed
    // walker's heartbeat (bumped as its walk re-enters the loop).
    std::atomic<std::uint64_t> heartbeat{0};
    parallel::WalkerPoolOptions resumed = options;
    resumed.resume = parallel::PoolCheckpoint::from_json(checkpoint->to_json());
    resumed.heartbeat = &heartbeat;
    parallel::MultiWalkReport rest;
    t0 = Clock::now();
    std::atomic<bool> finished{false};
    std::thread resumer([&] {
      rest = parallel::WalkerPool(resumed).run(*prototype);
      finished.store(true);
    });
    while (heartbeat.load(std::memory_order_relaxed) == 0 && !finished.load()) {
      std::this_thread::yield();
    }
    resume_ms.push_back(ms_between(t0, Clock::now()));
    resumer.join();
    if (rest.total_iterations() != full.total_iterations()) {
      ctx.result.note_problem("resumed run did a different amount of work");
    }
  }
  ctx.result.set("parallel.pool_checkpoint_ms", median(capture_ms), "ms");
  ctx.result.set("parallel.resume_ms", median(resume_ms), "ms");
  ctx.result.set("parallel.exchange.publishes", publishes / 3.0, "count");
  ctx.result.set("parallel.exchange.adoptions", adoptions / 3.0, "count");
}

/// The service-path chain on high-lane requests (2-walker threads):
/// Scheduler (service path) -> SolverService -> Solver.
void measure_service_chain(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0x5e7ULL);
  serve::Scheduler scheduler;
  api::SolverService service;
  Waiter waiter;
  std::vector<double> api_added_ms, serve_added_ms;
  for (std::size_t i = 0; i < ctx.reps(100); ++i) {
    const Job job = preempt_high_job(rng, "svc" + std::to_string(i));
    const api::SolveRequest request = decode(job);
    const std::uint64_t id = ctx.next_request++;

    const std::int64_t sched_span = ctx.spans.open("serve.scheduler.service_path", id);
    const std::uint64_t target = waiter.next();
    Clock::time_point t0 = Clock::now();
    scheduler.submit(command_for(job), events_for(waiter));
    waiter.wait_for(target);
    const double sched_ms = ms_between(t0, Clock::now());
    ctx.spans.close(sched_span);

    const std::int64_t svc_span = ctx.spans.open("api.service", id, sched_span);
    t0 = Clock::now();
    const api::SolveReport via_service = service.submit(request).wait();
    const double svc_ms = ms_between(t0, Clock::now());
    ctx.spans.close(svc_span);
    ctx.gate(via_service, job.tag);

    const std::int64_t api_span = ctx.spans.open("api.solver", id, svc_span);
    t0 = Clock::now();
    const api::SolveReport direct = api::Solver::solve(request);
    const double api_ms = ms_between(t0, Clock::now());
    ctx.spans.close(api_span);
    ctx.gate(direct, job.tag);

    api_added_ms.push_back(svc_ms - api_ms);
    serve_added_ms.push_back(sched_ms - api_ms);
  }
  const api::ServiceStats stats = service.stats();
  ctx.result.set("api.service_added_ms.p50", median(api_added_ms), "ms");
  ctx.result.set("api.service_added_ms.p99", quantile(api_added_ms, 0.99), "ms");
  ctx.result.set("api.service_retried", static_cast<double>(stats.retried), "count");
  ctx.result.set("api.service_failed", static_cast<double>(stats.failed), "count");
  ctx.result.set("serve.service_added_ms", median(serve_added_ms), "ms");
}

/// serve.preempted_queued / preempted_running / resume_ratio: the
/// preempt workload's mix (constant low population, paced highs) pushed
/// straight into a production-default scheduler.
void measure_preemption(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0x9e3ULL);
  serve::Scheduler scheduler;
  Waiter waiter;
  std::size_t submitted = 0;
  const auto submit = [&](const Job& job) {
    scheduler.submit(command_for(job), events_for(waiter));
    ++submitted;
  };
  for (std::size_t i = 0; i < kPreemptLowPopulation; ++i) {
    submit(preempt_low_job(rng, "low" + std::to_string(i)));
  }
  const double span_s = 0.1 * ctx.options.seconds;
  const Clock::time_point t0 = Clock::now();
  std::size_t highs = 0;
  for (double t = 0.0; t < span_s;) {
    t += (0.5 + rng.unit()) / kPreemptHighRate;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t)));
    const std::int64_t span = ctx.spans.open("serve.scheduler.submit_high", ctx.next_request++);
    submit(preempt_high_job(rng, "high" + std::to_string(highs++)));
    ctx.spans.close(span);
  }
  waiter.wait_for(submitted);
  const serve::SchedulerStats stats = scheduler.stats();
  ctx.result.attempted += submitted;
  ctx.result.failed += stats.failed + stats.cancelled;
  ctx.result.set("serve.preempted_queued", static_cast<double>(stats.preempted_queued), "count");
  ctx.result.set("serve.preempted_running", static_cast<double>(stats.preempted_running), "count");
  ctx.result.set("serve.resume_ratio",
                 stats.preempted_running == 0
                     ? 0.0
                     : static_cast<double>(stats.resumed) /
                           static_cast<double>(stats.preempted_running),
                 "ratio");
}

// --- HTTP framing ------------------------------------------------------------

/// serve.http_first_byte_ms / serve.http_report_ms: streamed small solves
/// over one keep-alive loopback connection to an in-process HttpServer.
void measure_http(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed ^ 0x477bULL);
  SmallDeck deck(rng);
  serve::Scheduler scheduler;
  serve::HttpServer server(scheduler);
  server.start();
  std::vector<double> first_ms, report_ms;
  {
    HttpConnection conn(server.port());
    for (std::size_t i = 0; i < ctx.reps(30); ++i) {
      const Job job = deck.deal("http" + std::to_string(i));
      Json envelope = *Json::parse(job.line);
      envelope.set("stream", true);
      const std::int64_t span = ctx.spans.open("serve.http", ctx.next_request++);
      const Clock::time_point t0 = Clock::now();
      Clock::time_point first{}, report{};
      const int status = conn.request(
          "POST", "/api", envelope.dump(0), t0 + std::chrono::seconds(30),
          [&](std::string_view line, Clock::time_point at) {
            if (line.find("\"event\":\"report\"") != std::string_view::npos) report = at;
          },
          &first);
      ctx.spans.close(span);
      ++ctx.result.attempted;
      if (status != 200 || report == Clock::time_point{}) {
        ++ctx.result.failed;
        continue;
      }
      first_ms.push_back(ms_between(t0, first));
      report_ms.push_back(ms_between(t0, report));
    }
  }
  scheduler.shutdown();
  server.stop();
  ctx.result.set("serve.http_first_byte_ms", median(first_ms), "ms");
  ctx.result.set("serve.http_report_ms", median(report_ms), "ms");
}

/// api.request_parse_us on the workload's own generated request lines.
void measure_parse(Ctx& ctx) {
  WorkloadRng rng(ctx.options.seed);
  std::vector<Job> jobs;
  if (ctx.options.workload == "race_http") {
    jobs = race_pass(rng, 0);
  } else if (ctx.options.workload == "preempt_stdio") {
    for (std::size_t i = 0; i < 100; ++i) {
      jobs.push_back(i % 4 == 0 ? preempt_low_job(rng, "l") : preempt_high_job(rng, "h"));
    }
  } else {
    SmallDeck deck(rng);
    for (std::size_t i = 0; i < 200; ++i) jobs.push_back(deck.deal("s"));
  }
  std::vector<double> us;
  for (int round = 0; round < 20; ++round) {
    for (const Job& job : jobs) {
      const Clock::time_point t0 = Clock::now();
      const api::SolveRequest request = api::SolveRequest::from_json_string(job.request);
      us.push_back(us_since(t0));
      if (request.walkers == 0) ctx.result.note_problem("parsed a zero-walker request");
    }
  }
  ctx.result.set("api.request_parse_us", median(us), "us");
}

}  // namespace

Result run_trace(const TraceOptions& options) {
  Result result;
  SpanRecorder spans(true);
  Ctx ctx{options, result, spans, {}, 1};
  measure_kernels(ctx);
  measure_engine_checkpoint(ctx);
  measure_warm_chain(ctx);
  measure_warm_batching(ctx);
  measure_fused(ctx);
  measure_threads(ctx);
  measure_pool_checkpoint(ctx);
  measure_service_chain(ctx);
  measure_preemption(ctx);
  measure_http(ctx);
  measure_parse(ctx);
  result.detail.set("spans", static_cast<std::uint64_t>(spans.spans().size()));
  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    out << spans.to_json().dump(0) << "\n";
  }
  return result;
}

}  // namespace perfbench
