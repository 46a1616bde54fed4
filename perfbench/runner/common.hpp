// Shared plumbing of the perfbench runner: clocks, order statistics, the
// report correctness gate, the in-memory span recorder and the result
// document every mode prints as its last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "csp/problem.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// True when percentile `q` of `n` samples leaves at least `beyond` samples
/// above it (the rule each workload's fixed tail percentile must meet).
[[nodiscard]] bool percentile_supported(std::size_t n, double q,
                                        std::size_t beyond = 10);

/// Re-checks reports against the problem models: a solved report's
/// solution must pass verify(); any report's solution must be a
/// configuration of the instance whose recomputed cost equals the reported
/// cost.  Problem instances are cached per spec string; thread-safe.
class ReportChecker {
 public:
  /// "" when the report is correct, else a one-line diagnostic.
  [[nodiscard]] std::string check(const cspls::util::Json& report);

 private:
  std::mutex m_;
  std::map<std::string, std::unique_ptr<cspls::csp::Problem>> problems_;
};

/// One traced interval around a call into a layer's public function.
struct Span {
  std::string name;
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
  double start_us = 0.0;      ///< since the recorder's epoch
  double end_us = 0.0;
};

/// In-memory span store; written out once, when the benchmark ends.
/// Disabled recorders record nothing (the untraced comparison run).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t open(std::string_view name, std::uint64_t request,
                    std::int64_t parent = -1);
  void close(std::int64_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per-name self time in microseconds: duration minus the part covered
  /// by child spans.
  [[nodiscard]] std::map<std::string, double> self_us() const;
  [[nodiscard]] cspls::util::Json to_json() const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// A named value with its unit, as the result line carries it.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The document a runner mode prints as its last stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errors, refusals, non-done reports
  std::uint64_t incorrect = 0;   ///< reports that failed the gate
  std::vector<std::string> problems;  ///< first few diagnostics
  std::map<std::string, Metric> metrics;
  cspls::util::Json detail = cspls::util::Json::object();

  void set(const std::string& name, double value, std::string unit) {
    metrics[name] = Metric{value, std::move(unit)};
  }
  void note_problem(std::string text) {
    if (problems.size() < 20) problems.push_back(std::move(text));
  }
  [[nodiscard]] bool correct() const {
    return incorrect == 0 && problems.empty();
  }
  [[nodiscard]] std::string dump() const;
};

/// Copy of `report` with the timing members (wall_seconds,
/// time_to_solution_seconds, walkers[].seconds) zeroed: what the
/// determinism contract pins byte-for-byte.
[[nodiscard]] cspls::util::Json without_timing(const cspls::util::Json& report);

}  // namespace perfbench
