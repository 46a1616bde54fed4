#include "workloads.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace perfbench {

using cspls::util::Json;

namespace {

Job make_job(const std::string& tag, std::string_view priority, Json request,
             bool stream) {
  Job job;
  job.tag = tag;
  job.priority = std::string(priority);
  job.request = request.dump(0);
  Json envelope = Json::object();
  envelope.set("op", "solve").set("request", std::move(request));
  envelope.set("priority", priority);
  if (stream) envelope.set("stream", true);
  envelope.set("tag", tag);
  job.line = envelope.dump(0);
  return job;
}

}  // namespace

std::string_view priority_name(std::uint64_t third) {
  switch (third % 3) {
    case 0:
      return "high";
    case 1:
      return "normal";
    default:
      return "low";
  }
}

const std::vector<std::string>& small_mix() {
  static const std::vector<std::string> mix = {
      "costas:9",       "queens:32",  "langford:11",     "all-interval:12",
      "magic-square:6", "partition:24", "perfect-square:5"};
  return mix;
}

Job SmallDeck::deal(const std::string& tag) {
  if (next_ == cards_.size()) {
    cards_.clear();
    for (std::size_t k = 0; k < small_mix().size(); ++k) {
      for (std::uint64_t s = 1; s <= kSmallDeckSeeds; ++s) cards_.emplace_back(k, s);
    }
    for (std::size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng_.below(i)]);
    }
    next_ = 0;
  }
  const auto [kernel, seed] = cards_[next_++];
  Json request = Json::object();
  request.set("problem", small_mix()[kernel])
      .set("walkers", std::uint64_t{1})
      .set("scheduling", "sequential")
      .set("seed", seed);
  return make_job(tag, priority_name(rng_.below(3)), std::move(request), false);
}

const std::vector<double>& small_ladder() {
  static const std::vector<double> ladder = {1000.0, 2000.0, 2500.0, 3000.0,
                                             5000.0};
  return ladder;
}

const std::vector<std::string>& race_instances() {
  static const std::vector<std::string> instances = {
      "costas:16", "magic-square:30", "all-interval:20"};
  return instances;
}

std::vector<Job> race_pass(WorkloadRng& rng, std::size_t pass) {
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < race_instances().size(); ++k) {
    const std::string& instance = race_instances()[k];
    for (std::uint64_t s = 1; s <= kRaceSeedsPerInstance; ++s) {
      Json request = Json::object();
      request.set("problem", instance)
          .set("walkers", std::uint64_t{4})
          .set("scheduling", "threads")
          .set("seed", s);
      jobs.push_back(make_job(
          "race-" + std::to_string(pass) + "-" + instance + "-" +
              std::to_string(s),
          priority_name(k + s), std::move(request), true));
    }
  }
  // Seeded Fisher-Yates: the order, not the set (nor each race's
  // priority), depends on the seed.
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.below(i)]);
  }
  return jobs;
}

const std::vector<std::string>& preempt_high_mix() {
  static const std::vector<std::string> mix = {"costas:9", "queens:32",
                                               "all-interval:12"};
  return mix;
}

Job preempt_low_job(WorkloadRng& rng, const std::string& tag) {
  // An unsolvable instance under best-after-budget: every walker runs
  // exactly restart_limit iterations, gossip or not.
  Json params = Json::object();
  params.set("restart_limit", kPreemptLowRestartLimit)
      .set("max_restarts", std::uint64_t{0});
  Json request = Json::object();
  request.set("problem", std::string(kPreemptLowProblem))
      .set("walkers", std::uint64_t{4})
      .set("scheduling", "threads")
      .set("seed", rng.next() >> 1)
      .set("neighborhood", "hypercube")
      .set("exchange", "elite")
      .set("comm_mode", "async")
      .set("termination", "best-after-budget")
      .set("params", std::move(params));
  return make_job(tag, "low", std::move(request), false);
}

Job preempt_high_job(WorkloadRng& rng, const std::string& tag) {
  const std::string& problem =
      preempt_high_mix()[rng.below(preempt_high_mix().size())];
  Json request = Json::object();
  request.set("problem", problem)
      .set("walkers", std::uint64_t{2})
      .set("scheduling", "threads")
      .set("seed", rng.next() >> 1);
  return make_job(tag, "high", std::move(request), false);
}

double tail_quantile(std::string_view workload) {
  if (workload == "race_http") return 0.90;
  if (workload == "preempt_stdio") return 0.95;
  return 0.97;
}

}  // namespace perfbench
