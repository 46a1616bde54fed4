#include "api/solver.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/stop_token.hpp"
#include "parallel/fused.hpp"
#include "problems/spec.hpp"

namespace cspls::api {

namespace {

WalkerReport walker_report_of(const parallel::WalkerOutcome& outcome) {
  WalkerReport report;
  report.id = outcome.walker_id;
  report.solved = outcome.result.solved;
  report.interrupted = outcome.result.interrupted;
  report.cost = outcome.result.cost;
  report.iterations = outcome.result.stats.iterations;
  report.swaps = outcome.result.stats.swaps;
  report.plateau_moves = outcome.result.stats.plateau_moves;
  report.local_minima = outcome.result.stats.local_minima;
  report.resets = outcome.result.stats.resets;
  report.restarts = outcome.result.stats.restarts;
  report.cost_evaluations = outcome.result.stats.cost_evaluations;
  report.seconds = outcome.result.stats.seconds;
  report.failed = outcome.failed();
  report.error = outcome.result.error;
  return report;
}

/// MultiWalkReport -> SolveReport conversion shared by the solo and fused
/// paths (identical interpretation is what makes the fused byte-identity
/// guarantee meaningful at this layer).
SolveReport report_of(const problems::ProblemSpec& spec,
                      const parallel::MultiWalkReport& pool_report) {
  SolveReport report;
  report.problem = problems::format_spec(spec);
  report.solved = pool_report.solved;
  // Exactly one termination cause per run, taken from what the walkers'
  // polls actually observed — not from re-reading the flag or the clock
  // here, which would misreport a run that completed normally just before
  // a late cancel / deadline crossing.
  report.cancelled = pool_report.interrupt_cause == core::StopCause::kCancel;
  report.deadline_expired =
      pool_report.interrupt_cause == core::StopCause::kDeadline;
  report.preempted =
      pool_report.interrupt_cause == core::StopCause::kPreempted;
  report.winner = pool_report.winner;
  report.cost = pool_report.best.cost;
  report.wall_seconds = pool_report.wall_seconds;
  report.time_to_solution_seconds = pool_report.time_to_solution_seconds;
  report.total_iterations = pool_report.total_iterations();
  report.comm_publishes = pool_report.comm_publishes;
  report.elite_accepted = pool_report.elite_accepted;
  report.comm_adoptions = pool_report.comm_adoptions;
  report.failed_walkers = pool_report.failed_walkers;
  report.solution = pool_report.best.solution;
  report.walkers.reserve(pool_report.walkers.size());
  for (const parallel::WalkerOutcome& outcome : pool_report.walkers) {
    report.walkers.push_back(walker_report_of(outcome));
  }
  return report;
}

void validate_retry(const RetryPolicy& retry) {
  if (retry.max_attempts == 0) {
    throw std::invalid_argument(
        "SolveRequest: retry.max_attempts must be at least 1 (the first "
        "attempt counts)");
  }
  if (!(retry.multiplier >= 1.0)) {
    throw std::invalid_argument(
        "SolveRequest: retry.multiplier must be >= 1 (backoff never "
        "shrinks)");
  }
  if (!(retry.jitter >= 0.0 && retry.jitter <= 1.0)) {
    throw std::invalid_argument(
        "SolveRequest: retry.jitter must be in [0, 1]");
  }
}

void check_configuration(const csp::Problem& problem,
                         std::span<const int> values,
                         const std::string& what) {
  if (!problem.is_configuration(values)) {
    throw std::invalid_argument(
        "SolveRequest: " + what + " is not a configuration of " +
        problem.instance_description() + " (expected " +
        std::to_string(problem.num_variables()) +
        " values forming a permutation of the model's value set)");
  }
}

/// Client-supplied configurations reach PermutationProblem::assign, which
/// trusts them; a value outside the model's multiset would index past the
/// kernels' tables, a duplicate would "solve" to a non-permutation.
void check_configurations(const SolveRequest& request,
                          const csp::Problem& problem) {
  if (request.warm_start.has_value()) {
    check_configuration(problem, *request.warm_start, "warm_start");
  }
  if (!request.resume_from.has_value()) return;
  const parallel::PoolCheckpoint& checkpoint = *request.resume_from;
  using Stage = parallel::PoolCheckpoint::WalkerStage;
  for (std::size_t w = 0; w < checkpoint.walkers.size(); ++w) {
    const auto& entry = checkpoint.walkers[w];
    const std::string where = "resume_from walker " + std::to_string(w);
    if (entry.stage == Stage::kRunning) {
      check_configuration(problem, entry.checkpoint.values, where + " values");
      check_configuration(problem, entry.checkpoint.best, where + " best");
    } else if (entry.stage == Stage::kDone &&
               !entry.result.solution.empty()) {
      check_configuration(problem, entry.result.solution,
                          where + " solution");
    }
  }
  for (std::size_t s = 0; s < checkpoint.elite.size(); ++s) {
    if (checkpoint.elite[s].has_entry) {
      check_configuration(problem, checkpoint.elite[s].values,
                          "resume_from elite slot " + std::to_string(s));
    }
  }
}

}  // namespace

void Solver::validate(const SolveRequest& request) {
  const problems::ProblemSpec spec = problems::parse_spec(request.problem);
  parallel::validate_options(request.to_pool_options());
  if (request.warm_start.has_value() || request.resume_from.has_value()) {
    check_configurations(request, *problems::instantiate(spec));
  }
}

SolveReport Solver::solve(const SolveRequest& request, core::StopToken token,
                          const SolveCallbacks& callbacks) {
  validate_retry(request.retry);
  const problems::ProblemSpec spec = problems::parse_spec(request.problem);
  const std::unique_ptr<csp::Problem> problem = problems::instantiate(spec);
  check_configurations(request, *problem);

  if (request.deadline_ms != 0) {
    token = token.expiring_at(
        core::StopToken::Clock::now() +
        std::chrono::milliseconds(request.deadline_ms));
  }

  parallel::WalkerPoolOptions options = request.to_pool_options();
  options.heartbeat = callbacks.heartbeat;
  if (callbacks.sample_sink && callbacks.sample_period != 0) {
    options.sample_sink = callbacks.sample_sink;
    options.sample_sink_period = callbacks.sample_period;
  }
  options.preempt = callbacks.preempt;
  options.checkpoint_out = callbacks.checkpoint_out;
  const parallel::WalkerPool pool(std::move(options));
  const parallel::MultiWalkReport pool_report = pool.run(*problem, token);
  return report_of(spec, pool_report);
}

std::vector<std::size_t> Solver::solve_fused(
    std::span<const FusedSolveJob> jobs, const FusedSolveOptions& options,
    const FusedSolveSink& sink) {
  // Validate and instantiate the whole batch before any member runs: a
  // malformed request throws here, with no sibling half-solved.  The
  // instances must outlive the fused run (prototypes are borrowed).
  std::vector<problems::ProblemSpec> specs;
  std::vector<std::unique_ptr<csp::Problem>> problems;
  std::vector<parallel::FusedJob> fused;
  specs.reserve(jobs.size());
  problems.reserve(jobs.size());
  fused.reserve(jobs.size());
  const auto launch = core::StopToken::Clock::now();
  for (const FusedSolveJob& job : jobs) {
    validate_retry(job.request.retry);
    specs.push_back(problems::parse_spec(job.request.problem));
    problems.push_back(problems::instantiate(specs.back()));
    check_configurations(job.request, *problems.back());

    parallel::FusedJob member;
    member.prototype = problems.back().get();
    member.options = job.request.to_pool_options();
    member.options.heartbeat = job.callbacks.heartbeat;
    if (job.callbacks.sample_sink && job.callbacks.sample_period != 0) {
      member.options.sample_sink = job.callbacks.sample_sink;
      member.options.sample_sink_period = job.callbacks.sample_period;
    }
    member.options.preempt = job.callbacks.preempt;
    member.options.checkpoint_out = job.callbacks.checkpoint_out;
    // Each member's time budget runs from the batch launch — the fused
    // analogue of the solo path stamping the deadline at solve() entry.
    member.stop = job.request.deadline_ms != 0
                      ? job.token.expiring_at(
                            launch + std::chrono::milliseconds(
                                         job.request.deadline_ms))
                      : job.token;
    fused.push_back(std::move(member));
  }

  parallel::FusedOptions fused_options;
  fused_options.num_threads = options.num_threads;
  fused_options.admit = options.admit;
  const parallel::FusedRun runner(std::move(fused_options));
  return runner.run(
      fused, [&](std::size_t member, parallel::MultiWalkReport pool_report) {
        if (sink) sink(member, report_of(specs[member], pool_report));
      });
}

}  // namespace cspls::api
