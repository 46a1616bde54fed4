// perfbench_runner — the measuring half of the cspls benchmark
// (perfbench/run.py builds it and formats its result).
//
//   perfbench_runner e2e   --workload W --seed N --seconds S --serve PATH
//   perfbench_runner trace --workload W --seed N --seconds S [--spans FILE]
//
// `e2e` drives the cspls_serve binary at PATH with workload W and measures
// the end-to-end metrics; `trace` pushes the same generated inputs through
// each layer in-process and measures the per-layer metrics.  Either way the
// last stdout line is one JSON result document.  A watchdog ends the run
// (and every server it started) after kTimeoutSeconds.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "fingerprint.hpp"
#include "layers.hpp"
#include "loadgen.hpp"

namespace {

struct Args {
  std::string mode, workload, serve, spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Hard limit on one run, inside the 180 s a benchmark run may take.
constexpr double kTimeoutSeconds = 170.0;

/// Ends the run, and every server it started, when it overstays its
/// timeout; disarmed and joined on destruction.
class Watchdog {
 public:
  explicit Watchdog(double timeout_s)
      : thread_([this, timeout_s] {
          std::unique_lock lock(m_);
          if (cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                           [this] { return done_; })) {
            return;
          }
          std::fputs("perfbench_runner: watchdog timeout, stopping\n", stderr);
          perfbench::kill_servers();
          std::_Exit(3);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(m_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: uses the members above
};

bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--serve") args.serve = value;
    else if (key == "--spans") args.spans = value;
    else return false;
  }
  return (args.mode == "e2e" && !args.serve.empty()) || args.mode == "trace";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) || args.workload.empty() || args.seconds <= 0.0) {
    std::cerr << "usage: perfbench_runner e2e|trace --workload W --seed N "
                 "--seconds S [--serve PATH] [--spans FILE]\n";
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  const Watchdog watchdog(kTimeoutSeconds);

  try {
    perfbench::Result result =
        args.mode == "e2e"
            ? perfbench::run_e2e({args.workload, args.seed, args.seconds, args.serve})
            : perfbench::run_trace({args.workload, args.seed, args.seconds, args.spans});
    result.detail.set("fingerprint", perfbench::fingerprint());
    std::cout << result.dump() << std::endl;
  } catch (const std::exception& e) {
    perfbench::kill_servers();
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
