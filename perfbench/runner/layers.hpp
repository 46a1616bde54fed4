// Traced mode: push the workload's generated inputs through each layer's
// public functions in-process and report what each layer adds.
//
// Every measurement brackets a call into one layer with a span recorded by
// this file (the program itself is not instrumented).  For one fixed-seed
// request the runner calls successively deeper entry points — Session,
// Scheduler, Solver, WalkerPool, AdaptiveSearch — and links each span to
// the span of the next layer out, so a span's self time (its duration minus
// its child's) is the latency that layer adds.  Spans stay in memory and
// are written to `spans_path` when the run ends.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct TraceOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string spans_path;  ///< where the span list is written ("" = nowhere)
};

[[nodiscard]] Result run_trace(const TraceOptions& options);

}  // namespace perfbench
