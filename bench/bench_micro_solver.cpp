// Hot-path measurement harness: drives the Adaptive Search engine over every
// kernel through three hot paths in the same binary —
//
//   scalar : csp::ScalarPathProblem, reproducing the pre-batched
//            per-variable virtual loop (PR 1 shape);
//   batched: the kernel's bulk overrides (cost_on_all_variables /
//            best_swap_for) with SIMD force-disabled, i.e. the literal PR 2
//            scalar kernels;
//   simd   : the same bulk overrides with the vector-extension lanes enabled
//            (util/simd.hpp), the PR 6 data-parallel rewrites.
//
// Reports iterations/sec per path plus batched/scalar and simd/batched
// speedups.  Emits machine-readable BENCH_micro.json (schema
// cspls-bench-micro/2) so CI and future PRs can track the perf trajectory;
// exits non-zero if any two paths ever disagree on a fixed-seed trajectory
// (they must be identical — both the batched API and the SIMD lanes are pure
// constant-factor optimizations).
//
// Usage: bench_micro_solver [--quick] [--out FILE] [--seed N]
//
// Every path is timed kRepeats times, interleaved, and each path reports
// its median run: single runs swing by ±30% on shared hosts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_search.hpp"
#include "csp/scalar_path.hpp"
#include "problems/registry.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace cspls;

/// Timed runs per path; the median one is reported.
constexpr std::uint64_t kRepeats = 5;

struct Workload {
  std::string problem;
  std::size_t size = 0;
  std::uint64_t iteration_budget = 0;  ///< full-mode budget; --quick /10
};

/// Paper-order workloads at (or near) paper sizes where a single walk stays
/// affordable; budgets target roughly 0.2-1 s per path in full mode.
std::vector<Workload> workloads() {
  return {
      {"costas", 18, 20'000},        {"all-interval", 100, 40'000},
      {"all-interval", 200, 15'000}, {"perfect-square", 8, 1'500},
      {"magic-square", 20, 20'000},  {"queens", 100, 20'000},
      {"langford", 32, 40'000},      {"partition", 80, 40'000},
      {"alpha", 26, 40'000},
  };
}

struct PathResult {
  double seconds = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t cost_evaluations = 0;
  csp::Cost final_cost = 0;
  std::vector<int> solution;

  [[nodiscard]] double iters_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(iterations) / seconds : 0.0;
  }
  [[nodiscard]] double evals_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(cost_evaluations) / seconds
                         : 0.0;
  }
};

/// One bounded, never-terminating walk (target_cost = -1): every path runs
/// the exact same number of engine iterations, so the wall-clock ratio is a
/// pure per-iteration cost ratio.
PathResult run_path(csp::Problem& problem, std::uint64_t budget,
                    std::uint64_t seed) {
  auto params = core::Params::from_hints(problem.tuning(),
                                         problem.num_variables());
  params.restart_limit = budget;
  params.max_restarts = 0;
  params.target_cost = -1;  // unreachable: always run the full budget
  const core::AdaptiveSearch engine(params);
  util::Xoshiro256 rng(seed);
  const auto result = engine.solve(problem, rng);
  PathResult out;
  out.seconds = result.stats.seconds;
  out.iterations = result.stats.iterations;
  out.cost_evaluations = result.stats.cost_evaluations;
  out.final_cost = result.cost;
  out.solution = result.solution;
  return out;
}

/// The run with the median wall time (the lower middle for even counts).
PathResult median_run(std::vector<PathResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const PathResult& a, const PathResult& b) {
              return a.seconds < b.seconds;
            });
  return runs[(runs.size() - 1) / 2];
}

bool paths_match(const PathResult& a, const PathResult& b) {
  return a.iterations == b.iterations &&
         a.cost_evaluations == b.cost_evaluations &&
         a.final_cost == b.final_cost && a.solution == b.solution;
}

void append_json_path(std::string& json, const char* key,
                      const PathResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"seconds\": %.6f, \"iters_per_sec\": %.1f, "
                "\"evals_per_sec\": %.1f}",
                key, r.seconds, r.iters_per_sec(), r.evals_per_sec());
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_micro_solver",
                       "Hot-path throughput: scalar vs batched vs SIMD engine "
                       "path per kernel, emitting BENCH_micro.json");
  args.add_flag("quick", "CI smoke mode: 1/10 iteration budgets");
  args.add_string("out", "BENCH_micro.json", "JSON output path");
  args.add_uint64("seed", 0xB5EED, "master RNG seed");
  if (!args.parse(argc, argv)) {
    return args.help_requested() ? 0 : 2;
  }
  const bool quick = args.flag("quick");
  const auto seed = args.get_uint64("seed");

  std::printf("# bench_micro_solver — scalar vs batched vs SIMD hot path%s\n",
              quick ? " (--quick)" : "");
  std::printf("# SIMD tier: %s\n", util::simd::tier_name());

  util::Table table({"instance", "vars", "iters", "scalar it/s",
                     "batched it/s", "simd it/s", "batched/scalar",
                     "simd/batched"});

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"cspls-bench-micro/2\",\n";
  json += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  json += std::string("  \"simd_tier\": \"") + util::simd::tier_name() +
          "\",\n";
  json += "  \"results\": [\n";

  bool paths_agree = true;
  bool first = true;
  for (const auto& w : workloads()) {
    const std::uint64_t budget =
        quick ? std::max<std::uint64_t>(200, w.iteration_budget / 10)
              : w.iteration_budget;

    // Batched/simd paths: the kernel's own bulk overrides; which inner loop
    // they run is toggled per measurement via simd::set_force_scalar.
    auto batched_problem = problems::make_problem(w.problem, w.size, 7);
    auto simd_problem = problems::make_problem(w.problem, w.size, 7);
    const std::string instance = batched_problem->instance_description();
    const std::size_t vars = batched_problem->num_variables();
    // Scalar path: same kernel behind the de-optimizing adapter.
    csp::ScalarPathProblem scalar_problem(
        problems::make_problem(w.problem, w.size, 7));

    // Warm-up on throwaway clones (touch caches, fault pages) — the measured
    // problems must keep their pristine canonical state so all paths start
    // from the identical configuration.
    {
      const auto warm_budget = std::max<std::uint64_t>(budget / 10, 50);
      util::simd::set_force_scalar(true);
      auto warm = batched_problem->clone();
      (void)run_path(*warm, warm_budget, seed ^ 0xFFFF);
      auto warm_scalar = scalar_problem.clone();
      (void)run_path(*warm_scalar, warm_budget, seed ^ 0xFFFF);
      util::simd::set_force_scalar(false);
      auto warm_simd = simd_problem->clone();
      (void)run_path(*warm_simd, warm_budget, seed ^ 0xFFFF);
    }
    // Every timed run walks from a fresh clone of the pristine problems.
    std::vector<PathResult> batched_runs, scalar_runs, simd_runs;
    for (std::uint64_t r = 0; r < kRepeats; ++r) {
      util::simd::set_force_scalar(true);
      batched_runs.push_back(
          run_path(*batched_problem->clone(), budget, seed));
      scalar_runs.push_back(run_path(*scalar_problem.clone(), budget, seed));
      util::simd::set_force_scalar(false);
      simd_runs.push_back(run_path(*simd_problem->clone(), budget, seed));
    }

    // The three paths must walk the identical trajectory, every time: same
    // iteration count, same evaluation count, same final configuration.
    bool agree = true;
    for (std::uint64_t r = 0; r < kRepeats; ++r) {
      agree = agree && paths_match(batched_runs[0], batched_runs[r]) &&
              paths_match(batched_runs[0], scalar_runs[r]) &&
              paths_match(batched_runs[0], simd_runs[r]);
    }
    const PathResult batched = median_run(batched_runs);
    const PathResult scalar = median_run(scalar_runs);
    const PathResult simd = median_run(simd_runs);
    if (!agree) {
      std::fprintf(stderr,
                   "ERROR: scalar/batched/simd paths diverged on %s\n",
                   instance.c_str());
      paths_agree = false;
    }

    const double speedup = scalar.seconds > 0.0 && batched.seconds > 0.0
                               ? scalar.seconds / batched.seconds
                               : 0.0;
    const double simd_speedup = batched.seconds > 0.0 && simd.seconds > 0.0
                                    ? batched.seconds / simd.seconds
                                    : 0.0;

    char cell[64];
    std::vector<std::string> row;
    row.push_back(instance);
    row.push_back(std::to_string(vars));
    row.push_back(std::to_string(batched.iterations));
    std::snprintf(cell, sizeof(cell), "%.0f", scalar.iters_per_sec());
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.0f", batched.iters_per_sec());
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.0f", simd.iters_per_sec());
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.2fx", speedup);
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.2fx", simd_speedup);
    row.push_back(cell);
    table.add_row(row);

    if (!first) json += ",\n";
    first = false;
    json += "    {\n";
    json += "      \"problem\": \"" + w.problem + "\",\n";
    json += "      \"instance\": \"" + instance + "\",\n";
    json += "      \"variables\": " + std::to_string(vars) + ",\n";
    json += "      \"iterations\": " + std::to_string(batched.iterations) +
            ",\n";
    json += "      \"cost_evaluations\": " +
            std::to_string(batched.cost_evaluations) + ",\n";
    append_json_path(json, "scalar", scalar);
    json += ",\n";
    append_json_path(json, "batched", batched);
    json += ",\n";
    append_json_path(json, "simd", simd);
    json += ",\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "      \"speedup\": %.3f,\n      \"simd_speedup\": %.3f,\n",
                  speedup, simd_speedup);
    json += buf;
    json += std::string("      \"paths_agree\": ") +
            (agree ? "true" : "false") + "\n";
    json += "    }";
  }
  json += "\n  ]\n}\n";

  std::fputs(table.render("hot-path throughput").c_str(), stdout);

  const std::string& out_path = args.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
    return 3;
  }
  out << json;
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!paths_agree) {
    std::fprintf(stderr,
                 "FAIL: at least one kernel's batched/simd path diverged "
                 "from the scalar reference\n");
    return 1;
  }
  return 0;
}
