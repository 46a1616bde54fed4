// The three workloads: every request line the server sees is generated here
// from the workload seed, so the end-to-end run and the traced run push the
// same inputs.
//
//   small_stdio    open loop over stdio, 1-walker sequential fixed-seed
//                  solves of seven small kernels, priorities in thirds;
//                  a burst (capacity), a low-rate reference segment
//                  (latency) and a ladder of fixed arrival rates.
//   race_http      closed loop, one HTTP/1.1 keep-alive client, streamed
//                  4-walker threaded first-finisher races over a fixed
//                  seed set per instance (the paper's experiment).
//   preempt_stdio  stdio; a constant population of low-priority
//                  fixed-budget 4-walker exchanging jobs keeps the service
//                  path saturated while high-priority 2-walker solves
//                  arrive on an open-loop schedule.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Deterministic stream of workload randomness (mt19937_64 raw draws are
/// specified by the standard, so a seed means the same inputs everywhere).
class WorkloadRng {
 public:
  explicit WorkloadRng(std::uint64_t seed) : engine_(seed) {}
  std::uint64_t next() { return engine_(); }
  /// Uniform in [0, n) (n small; modulo bias is irrelevant here).
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 engine_;
};

/// One generated solve: the full wire envelope plus what the client needs
/// to account for it.
struct Job {
  std::string tag;       ///< unique per run, echoed by the server
  std::string priority;  ///< "high" | "normal" | "low"
  std::string line;      ///< the ndjson command (no trailing newline)
  std::string request;   ///< the SolveRequest member alone, as JSON text
};

[[nodiscard]] std::string_view priority_name(std::uint64_t third);

// --- small_stdio -------------------------------------------------------

/// The seven-kernel mix of small_stdio (spec strings).
[[nodiscard]] const std::vector<std::string>& small_mix();
/// small_stdio's job stream, 1-walker sequential fixed-seed solves of the
/// mix kernels: a fixed deck of kSmallDeckSeeds solve seeds
/// per mix kernel, dealt in an order reshuffled from the workload seed each
/// time it runs out.  Every run therefore solves the same jobs in about the
/// same proportions (the per-job solve time is heavy-tailed, and drawing
/// fresh seeds would let a handful of slow jobs decide the tail), while the
/// order and the priorities follow the seed.
inline constexpr std::uint64_t kSmallDeckSeeds = 50;
class SmallDeck {
 public:
  explicit SmallDeck(WorkloadRng& rng) : rng_(rng) {}
  [[nodiscard]] Job deal(const std::string& tag);

 private:
  WorkloadRng& rng_;
  std::vector<std::pair<std::size_t, std::uint64_t>> cards_;  ///< (kernel, seed)
  std::size_t next_ = 0;
};

/// Open-loop arrival ladder (jobs/s), ascending; fixed, never derived from
/// a measurement, so two builds are offered identical load.  The top rung
/// lies well above the stdio capacity, so max_rate_per_s has headroom.
[[nodiscard]] const std::vector<double>& small_ladder();
/// Jobs per capacity burst (one burst per round of the run).
inline constexpr std::size_t kSmallBurstJobs = 1000;
/// Jobs per ladder segment: enough that the per-round tail percentile of
/// every rung leaves 10 samples beyond it.
inline constexpr std::size_t kSmallSegmentJobs = 1000;
/// The reference segment's rate (jobs/s), whose latencies are the
/// workload's latency_p50/tail: about an eighth of the stdio capacity, low
/// enough that a slower host stretches each job instead of building a
/// queue.
inline constexpr double kSmallReferenceRate = 250.0;
/// Jobs per reference segment: one whole pass of a deck of its own (seven
/// mix kernels x kSmallDeckSeeds), so every segment solves the same jobs.
inline constexpr std::size_t kSmallReferenceJobs = 7 * kSmallDeckSeeds;
/// Seconds of the run per round (burst, reference segment, one segment
/// per rung).
inline constexpr double kSmallRoundSeconds = 5.0;
/// max_rate_per_s limit: a rung passes when its tail latency is at most
/// this and it built no backlog.
inline constexpr double kSmallTailLimitMs = 100.0;

// --- race_http ---------------------------------------------------------

/// The race instances and the fixed seed set raced on each.
[[nodiscard]] const std::vector<std::string>& race_instances();
inline constexpr std::uint64_t kRaceSeedsPerInstance = 12;
/// One pass over the fixed race set, in a seed-dependent order; priorities
/// are fixed per race, in thirds.
[[nodiscard]] std::vector<Job> race_pass(WorkloadRng& rng, std::size_t pass);

// --- preempt_stdio -----------------------------------------------------

inline constexpr std::string_view kPreemptLowProblem = "langford:14";
inline constexpr std::uint64_t kPreemptLowRestartLimit = 500'000;
/// Low jobs kept outstanding: one running on the whole thread budget, the
/// rest queued inside the service and in the low lane.
inline constexpr std::size_t kPreemptLowPopulation = 6;
/// Mean high-priority arrival rate (jobs/s), jittered +-50% per gap.
inline constexpr double kPreemptHighRate = 25.0;
[[nodiscard]] const std::vector<std::string>& preempt_high_mix();
[[nodiscard]] Job preempt_low_job(WorkloadRng& rng, const std::string& tag);
[[nodiscard]] Job preempt_high_job(WorkloadRng& rng, const std::string& tag);

/// Tail percentile fixed per workload (the highest with >= 10 samples
/// beyond it at the workload's sample counts).
[[nodiscard]] double tail_quantile(std::string_view workload);

}  // namespace perfbench
