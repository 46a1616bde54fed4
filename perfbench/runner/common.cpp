#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "problems/spec.hpp"
#include "util/rng.hpp"

namespace perfbench {

using cspls::util::Json;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool percentile_supported(std::size_t n, double q, std::size_t beyond) {
  return static_cast<double>(n) * (1.0 - q) >= static_cast<double>(beyond);
}

std::string ReportChecker::check(const Json& report) {
  const std::string spec = report.at("problem").as_string();
  std::vector<int> solution;
  for (const Json& v : report.at("solution").elements()) {
    solution.push_back(static_cast<int>(v.as_int64()));
  }
  const bool solved = report.at("solved").as_bool();
  const Json& cost_json = report.at("cost");

  std::lock_guard lock(m_);
  auto& slot = problems_[spec];
  if (!slot) slot = cspls::problems::instantiate(cspls::problems::parse_spec(spec));
  cspls::csp::Problem& problem = *slot;

  if (solution.size() != problem.num_variables()) {
    return spec + ": solution has " + std::to_string(solution.size()) +
           " values, instance has " + std::to_string(problem.num_variables());
  }
  // The canonical value multiset is whatever a fresh configuration holds;
  // compare before assign() so a malformed solution never reaches a kernel.
  cspls::util::Xoshiro256 rng(1);
  problem.randomize(rng);
  std::vector<int> canonical(problem.values().begin(), problem.values().end());
  std::vector<int> sorted = solution;
  std::sort(canonical.begin(), canonical.end());
  std::sort(sorted.begin(), sorted.end());
  if (canonical != sorted) return spec + ": solution is not a configuration";

  if (solved && !problem.verify(solution)) {
    return spec + ": solved report fails verify()";
  }
  const cspls::csp::Cost cost = problem.assign(solution);
  if (!cost_json.is_number() ||
      cost_json.as_int64() != static_cast<std::int64_t>(cost)) {
    return spec + ": reported cost " + cost_json.dump() +
           " != recomputed " + std::to_string(cost);
  }
  if (solved != (cost == 0)) return spec + ": solved flag disagrees with cost";
  return {};
}

std::int64_t SpanRecorder::open(std::string_view name, std::uint64_t request,
                                std::int64_t parent) {
  if (!enabled_) return -1;
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(Span{std::string(name), request, parent, now, now});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

std::map<std::string, double> SpanRecorder::self_us() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += std::max(0.0, s.end_us - s.start_us - covered[i]);
  }
  return self;
}

Json SpanRecorder::to_json() const {
  Json out = Json::array();
  for (const Span& s : spans_) {
    Json span = Json::object();
    span.set("name", s.name)
        .set("request", s.request)
        .set("parent", s.parent)
        .set("start_us", s.start_us)
        .set("end_us", s.end_us);
    out.push_back(std::move(span));
  }
  return out;
}

std::string Result::dump() const {
  Json metrics_json = Json::object();
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) continue;  // never emit inf/nan
    Json m = Json::object();
    m.set("value", metric.value).set("unit", metric.unit);
    metrics_json.set(name, std::move(m));
  }
  Json problems_json = Json::array();
  for (const std::string& p : problems) problems_json.push_back(p);
  Json out = Json::object();
  out.set("correct", correct())
      .set("attempted", attempted)
      .set("failed", failed + incorrect)
      .set("metrics", std::move(metrics_json))
      .set("problems", std::move(problems_json))
      .set("detail", detail);
  return out.dump(0);
}

Json without_timing(const Json& report) {
  Json out = report;
  out.set("wall_seconds", 0.0).set("time_to_solution_seconds", 0.0);
  if (const Json* walkers = report.find("walkers"); walkers != nullptr) {
    Json zeroed = Json::array();
    for (Json w : walkers->elements()) {
      w.set("seconds", 0.0);
      zeroed.push_back(std::move(w));
    }
    out.set("walkers", std::move(zeroed));
  }
  return out;
}

}  // namespace perfbench
