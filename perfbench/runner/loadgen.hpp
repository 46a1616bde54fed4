// End-to-end mode: drive the shipped cspls_serve binary with one workload
// and measure what its users see.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct E2eOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string serve_path;  ///< the cspls_serve binary under test
};

/// Runs the workload and returns every end-to-end metric; reports that fail
/// the correctness gate are counted in the result.
[[nodiscard]] Result run_e2e(const E2eOptions& options);

/// SIGKILLs and reaps every server child still running (the run watchdog's
/// last act before exiting).
void kill_servers() noexcept;

}  // namespace perfbench
