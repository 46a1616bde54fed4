#include "loadgen.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "api/solve.hpp"
#include "api/solver.hpp"
#include "net.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cspls::util::Json;

// --- The server under test ----------------------------------------------

/// Live children, so the run watchdog can stop them before exiting.
std::mutex g_children_m;
std::set<pid_t> g_children;

/// cspls_serve as a child process: stdin/stdout pipes (stdout discarded in
/// HTTP mode), stderr drained by a thread that also catches the HTTP port
/// announcement.  The destructor stops the child and waits for it.
/// Constructed on the main thread only (the death signal follows the
/// thread that forked).
class ServerProcess {
 public:
  ServerProcess(const std::string& path, bool http) {
    int in[2], out[2], err[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0 ||
        ::pipe2(err, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    std::vector<std::string> args = {path};
    if (http) args.insert(args.end(), {"--http", "--port", "0"});
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: async-signal-safe calls only.  The server dies with the
      // runner even when the runner is SIGKILLed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(in[0], 0);
      if (http) {
        const int null = ::open("/dev/null", O_WRONLY);
        ::dup2(null, 1);
        ::close(null);
      } else {
        ::dup2(out[1], 1);
      }
      ::dup2(err[1], 2);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    ::close(err[1]);
    in_fd_ = in[1];
    out_fd_ = out[0];
    err_fd_ = err[0];
    if (pid_ < 0) {
      close_fds();
      throw std::runtime_error("cannot fork for " + path);
    }
    {
      std::lock_guard lock(g_children_m);
      g_children.insert(pid_);
    }
    stderr_thread_ = std::thread([this] { drain_stderr(); });
  }

  ~ServerProcess() {
    stop();
    close_fds();
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int out_fd() const { return out_fd_; }

  bool write_line(std::string_view line) {
    std::string framed(line);
    framed.push_back('\n');
    return in_fd_ >= 0 && write_all(in_fd_, framed);
  }

  /// The HTTP port announced on stderr (0 on timeout / exit).
  std::uint16_t wait_port(Clock::time_point deadline) {
    std::unique_lock lock(err_m_);
    err_cv_.wait_until(lock, deadline, [&] { return port_ != 0 || err_eof_; });
    return port_;
  }

  /// Peak resident set (VmHWM) in MB; 0 when unreadable.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        status >> kb;
        return kb / 1024.0;
      }
      status.ignore(4096, '\n');
    }
    return 0.0;
  }

  /// Close stdin (the stdio server drains and exits), SIGTERM an HTTP
  /// server, and wait; SIGKILL after the grace period.  Returns the exit
  /// status, -1 when it had to be killed.
  int stop(double grace_s = 30.0) {
    if (pid_ <= 0) return exit_status_;
    if (in_fd_ >= 0) {
      ::close(in_fd_);
      in_fd_ = -1;
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(grace_s));
    bool termed = false;
    int status = 0;
    while (true) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      if (!termed && wants_term_) {
        ::kill(pid_, SIGTERM);
        termed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      std::lock_guard lock(g_children_m);
      g_children.erase(pid_);
    }
    pid_ = -1;
    exit_status_ = status == -1 ? -1 : (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    if (stderr_thread_.joinable()) stderr_thread_.join();
    return exit_status_;
  }

  /// HTTP servers keep serving after stdin EOF; stop() then sends SIGTERM.
  void terminate_on_stop() { wants_term_ = true; }

 private:
  void drain_stderr() {
    FdReader reader(err_fd_);
    std::string line;
    const auto forever = Clock::now() + std::chrono::hours(24);
    while (reader.read_line(line, forever)) {
      const std::string marker = "http on 127.0.0.1:";
      const std::size_t at = line.find(marker);
      std::lock_guard lock(err_m_);
      if (at != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(line.substr(at + marker.size())));
      }
      err_cv_.notify_all();
    }
    std::lock_guard lock(err_m_);
    err_eof_ = true;
    err_cv_.notify_all();
  }

  void close_fds() {
    for (int* fd : {&in_fd_, &out_fd_, &err_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  pid_t pid_ = -1;
  int in_fd_ = -1, out_fd_ = -1, err_fd_ = -1;
  int exit_status_ = 0;
  bool wants_term_ = false;
  std::mutex err_m_;
  std::condition_variable err_cv_;
  std::uint16_t port_ = 0;
  bool err_eof_ = false;
  std::thread stderr_thread_;  // declared last: uses the members above
};

// --- Per-request accounting ----------------------------------------------

struct Record {
  Clock::time_point due{}, done{};
  std::string priority;
  std::string request;  ///< SolveRequest JSON text
  int phase = -1;
  bool reported = false;
  std::string status;   ///< report status, or "error:<code>"
  std::string event;    ///< the terminal event line, verbatim
};

/// The SolveReport member of a record's report event.
[[nodiscard]] Json report_of(const Record& r) {
  const std::optional<Json> event = Json::parse(r.event);
  return event && event->contains("report") ? event->at("report") : Json::object();
}

[[nodiscard]] double latency_ms(const Record& r) { return ms_between(r.due, r.done); }

/// Everything one run sent and received, keyed by tag.
struct Ledger {
  std::mutex m;
  std::condition_variable cv;
  std::unordered_map<std::string, Record> records;
  std::vector<std::string> order;  ///< tags in send order
  std::size_t reported = 0;
  std::uint64_t untagged_errors = 0;
  std::uint64_t preempted_events = 0;
  std::optional<Json> stats;

  void add(const Job& job, int phase, Clock::time_point due) {
    std::lock_guard lock(m);
    Record& r = records[job.tag];
    r.due = due;
    r.priority = job.priority;
    r.request = job.request;
    r.phase = phase;
    order.push_back(job.tag);
  }

  /// Accounts one server event line received at `at`; returns the tag of
  /// a terminal event ("" otherwise).  Runs on the receive path, so it
  /// only slices the fixed-order envelope; full parsing waits for the
  /// correctness gate after the run.
  std::string on_event(std::string_view line, Clock::time_point at) {
    const std::string_view kind = member(line, "event");
    if (kind == "accepted" || kind == "sample") return {};
    std::lock_guard lock(m);
    if (kind == "preempted") {
      ++preempted_events;
      return {};
    }
    if (kind == "stats") {
      stats = Json::parse(line);
      cv.notify_all();
      return {};
    }
    auto it = kind == "report" || kind == "error"
                  ? records.find(std::string(member(line, "tag")))
                  : records.end();
    if (it == records.end()) {
      ++untagged_errors;
      cv.notify_all();
      return {};
    }
    Record& r = it->second;
    if (!r.reported) ++reported;
    r.reported = true;
    r.done = at;
    r.status = kind == "report" ? std::string(member(line, "status"))
                                : "error:" + std::string(member(line, "code"));
    r.event = std::string(line);
    cv.notify_all();
    return it->first;
  }

  /// The string value of a top-level `"key":"..."` member ("" if absent).
  static std::string_view member(std::string_view line, std::string_view key) {
    const std::string needle = "\"" + std::string(key) + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string_view::npos) return {};
    const std::size_t start = at + needle.size();
    const std::size_t end = line.find('"', start);
    return end == std::string_view::npos ? std::string_view{}
                                         : line.substr(start, end - start);
  }

  bool wait_reported(std::size_t count, Clock::time_point deadline) {
    std::unique_lock lock(m);
    return cv.wait_until(lock, deadline, [&] { return reported >= count; });
  }
};

/// Reads the stdio server's event stream into a ledger on its own thread.
class StdioReader {
 public:
  StdioReader(ServerProcess& server, Ledger& ledger,
              std::function<void(const std::string&)> on_terminal = {})
      : server_(server), ledger_(ledger), on_terminal_(std::move(on_terminal)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~StdioReader() { join(); }

  /// Stops the server (EOF on the event stream ends the loop) and waits
  /// until every event it wrote has been accounted.
  void join() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }
  StdioReader(const StdioReader&) = delete;
  StdioReader& operator=(const StdioReader&) = delete;

 private:
  void loop() {
    FdReader reader(server_.out_fd());
    std::string line;
    const auto forever = Clock::now() + std::chrono::hours(24);
    while (reader.read_line(line, forever)) {
      const Clock::time_point at = Clock::now();
      const std::string tag = ledger_.on_event(line, at);
      if (!tag.empty() && on_terminal_) on_terminal_(tag);
    }
  }

  ServerProcess& server_;
  Ledger& ledger_;
  std::function<void(const std::string&)> on_terminal_;
  std::thread thread_;
};

/// Asks a stdio server for stats and waits for the answer.
std::optional<Json> stdio_stats(ServerProcess& server, Ledger& ledger,
                                Clock::time_point deadline) {
  {
    std::lock_guard lock(ledger.m);
    ledger.stats.reset();
  }
  server.write_line(R"({"op":"stats"})");
  std::unique_lock lock(ledger.m);
  ledger.cv.wait_until(lock, deadline, [&] { return ledger.stats.has_value(); });
  return ledger.stats;
}

// --- Set-up --------------------------------------------------------------

constexpr int kSetupSpawns = 31;

/// Spawn -> first answered stats, for a stdio server.
double stdio_setup_s(const std::string& path) {
  const Clock::time_point t0 = Clock::now();
  ServerProcess server(path, false);
  server.write_line(R"({"op":"stats"})");
  FdReader reader(server.out_fd());
  std::string line;
  const auto deadline = t0 + std::chrono::seconds(30);
  while (reader.read_line(line, deadline)) {
    if (line.find("\"event\":\"stats\"") != std::string::npos) {
      return ms_between(t0, Clock::now()) / 1000.0;
    }
  }
  throw std::runtime_error("stdio server never answered stats");
}

/// Spawn -> first answered GET /stats, for an HTTP server.
double http_setup_s(const std::string& path, std::unique_ptr<ServerProcess>* keep,
                    std::unique_ptr<HttpConnection>* conn) {
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(path, true);
  server->terminate_on_stop();
  const auto deadline = t0 + std::chrono::seconds(30);
  const std::uint16_t port = server->wait_port(deadline);
  if (port == 0) throw std::runtime_error("http server never announced a port");
  auto connection = std::make_unique<HttpConnection>(port);
  bool answered = false;
  const int status = connection->request(
      "GET", "/stats", "", deadline, [&](std::string_view line, Clock::time_point) {
        answered = answered || line.find("\"event\":\"stats\"") != std::string::npos;
      });
  if (status != 200 || !answered) {
    throw std::runtime_error("http server never answered GET /stats");
  }
  const double seconds = ms_between(t0, Clock::now()) / 1000.0;
  if (keep != nullptr) *keep = std::move(server);
  if (conn != nullptr) *conn = std::move(connection);
  return seconds;
}

// --- Shared post-processing ---------------------------------------------

/// Runs the correctness gate over every record and fills the attempted /
/// failed / success counts.
void account(Ledger& ledger, Result& result, ReportChecker& checker) {
  std::uint64_t ok = 0;
  std::map<std::string, std::uint64_t> statuses;
  for (const std::string& tag : ledger.order) {
    const Record& r = ledger.records.at(tag);
    ++result.attempted;
    if (!r.reported) {
      ++result.failed;
      result.note_problem(tag + ": no report");
      continue;
    }
    ++statuses[r.status];
    if (r.status != "done") {
      ++result.failed;
      result.note_problem(tag + ": status " + r.status);
      continue;
    }
    std::string problem;
    try {
      problem = checker.check(report_of(r));
    } catch (const std::exception& e) {
      problem = std::string("malformed report: ") + e.what();
    }
    if (!problem.empty()) {
      ++result.incorrect;
      result.note_problem(tag + ": " + problem);
      continue;
    }
    ++ok;
  }
  result.failed += ledger.untagged_errors;
  result.attempted += ledger.untagged_errors;
  Json status_json = Json::object();
  for (const auto& [status, count] : statuses) status_json.set(status, count);
  result.detail.set("statuses", std::move(status_json));
  result.set("success_share",
             result.attempted == 0
                 ? 0.0
                 : static_cast<double>(ok) / static_cast<double>(result.attempted),
             "ratio");
}

std::uint64_t total_iterations(const Record& r) {
  if (r.status != "done") return 0;
  const Json report = report_of(r);
  const Json* iterations = report.find("total_iterations");
  return iterations == nullptr ? 0 : iterations->as_uint64();
}

/// The determinism contract on a seeded sample: each sampled wire report
/// must equal an in-process api::Solver::solve of the same request,
/// timing fields excepted.
void check_determinism(Ledger& ledger, WorkloadRng& rng, std::size_t samples,
                       Result& result) {
  std::vector<std::string> done;
  for (const std::string& tag : ledger.order) {
    if (ledger.records.at(tag).status == "done") done.push_back(tag);
  }
  std::size_t compared = 0, mismatched = 0;
  for (std::size_t i = 0; i < samples && !done.empty(); ++i) {
    const Record& r = ledger.records.at(done[rng.below(done.size())]);
    const cspls::api::SolveReport local = cspls::api::Solver::solve(
        cspls::api::SolveRequest::from_json_string(r.request));
    const std::string wire = without_timing(report_of(r)).dump(0);
    const std::string mine = without_timing(local.to_json()).dump(0);
    ++compared;
    if (wire != mine) {
      ++mismatched;
      result.note_problem("determinism: wire report differs from in-process "
                          "solve for " + r.request);
    }
  }
  result.incorrect += mismatched;
  result.detail.set("determinism_compared", static_cast<std::uint64_t>(compared));
  result.detail.set("determinism_mismatched", static_cast<std::uint64_t>(mismatched));
}

Json phase_json(const std::vector<double>& lat, double q) {
  Json j = Json::object();
  j.set("n", static_cast<std::uint64_t>(lat.size()))
      .set("p50_ms", median(lat))
      .set("tail_q", q)
      .set("tail_ms", quantile(lat, q))
      .set("tail_supported", percentile_supported(lat.size(), q));
  return j;
}

/// A headline tail percentile must leave >= 10 samples beyond it; a run
/// that cannot support its own percentile is flagged, not reported.
void require_tail_support(Result& result, const std::string& what, std::size_t n, double q) {
  if (!percentile_supported(n, q)) {
    result.note_problem(what + ": " + std::to_string(n) + " samples cannot support p" +
                        std::to_string(static_cast<int>(std::lround(q * 100.0))));
  }
}

/// preempt_stdio claims the running-preemption path: the server must have
/// suspended at least one running job to a checkpoint and resumed every
/// suspended job (a job preempted again while queued after its resume is
/// resubmitted with the same checkpoint, so resumed may exceed
/// preempted_running).
void require_running_preemption(const std::optional<Json>& stats, Result& result) {
  if (!stats || !stats->contains("scheduler")) {
    result.note_problem("preempt_stdio: server stats unavailable");
    return;
  }
  result.detail.set("server_stats", *stats);
  const Json& scheduler = stats->at("scheduler");
  const std::uint64_t suspended = scheduler.at("preempted_running").as_uint64();
  const std::uint64_t resumed = scheduler.at("resumed").as_uint64();
  if (suspended == 0 || resumed < suspended) {
    result.note_problem("preempt_stdio: running preemption not exercised (preempted_running " +
                        std::to_string(suspended) + ", resumed " + std::to_string(resumed) + ")");
  }
}

/// Honest open loop: scheduling jitter of a few ms is measured (latency
/// runs from the due time) and reported; a generator whose typical send is
/// late, or whose p99 is late by more than any latency it could hide, fell
/// behind and the run is invalid rather than slow.
bool fell_behind(const std::vector<double>& lateness_ms) {
  return median(lateness_ms) > 1.0 || quantile(lateness_ms, 0.99) > 25.0;
}

Clock::duration seconds_d(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// "<prefix><a>-<b>-..." request tags.
std::string tag_of(char prefix, std::initializer_list<std::size_t> parts) {
  std::string tag(1, prefix);
  for (const std::size_t part : parts) {
    tag += std::to_string(part);
    tag += '-';
  }
  tag.pop_back();
  return tag;
}

/// Sends one job through a stdio server, accounted in the ledger.
void send(ServerProcess& server, Ledger& ledger, const Job& job, int phase,
          Clock::time_point due) {
  ledger.add(job, phase, due);
  server.write_line(job.line);
}

std::vector<double> phase_latencies(Ledger& ledger, int phase,
                                    std::string_view priority = {}) {
  std::vector<double> out;
  std::lock_guard lock(ledger.m);
  for (const std::string& tag : ledger.order) {
    const Record& r = ledger.records.at(tag);
    if (r.phase == phase && r.reported && r.status == "done" &&
        (priority.empty() || r.priority == priority)) {
      out.push_back(latency_ms(r));
    }
  }
  return out;
}

/// Records the server's peak RSS, then stops it; a non-zero exit is a
/// problem.
void finish(ServerProcess& server, Result& result) {
  result.set("peak_rss_mb", server.peak_rss_mb(), "MB");
  const int status = server.stop();
  if (status != 0) result.note_problem("server exited with status " + std::to_string(status));
}

// --- small_stdio ---------------------------------------------------------

/// Which quantile over rounds small_stdio's latency figures report; see
/// run_small_stdio.
constexpr double kQuietQuartile = 0.25;

/// Jobs of `phase` reported so far, with the latest completion time.
struct PhaseDone {
  std::size_t n = 0;
  Clock::time_point last{};
  std::uint64_t iterations = 0;
};

PhaseDone phase_done(Ledger& ledger, int phase) {
  PhaseDone out;
  std::lock_guard lock(ledger.m);
  for (const auto& [tag, r] : ledger.records) {
    if (r.phase != phase || !r.reported) continue;
    ++out.n;
    out.last = std::max(out.last, r.done);
    out.iterations += total_iterations(r);
  }
  return out;
}

/// The rate at which the rung tail crosses the limit, interpolated in log
/// tail between the last passing and the first failing rung; the top
/// rung's achieved rate when every rung passes, 0 when none does.
double crossing_rate(const std::vector<double>& rates, const std::vector<double>& tails,
                     const std::vector<bool>& pass, double limit) {
  for (std::size_t k = 0; k < rates.size(); ++k) {
    if (pass[k]) continue;
    if (k == 0) return 0.0;
    const double lo = std::log(std::max(tails[k - 1], 1e-3));
    const double hi = std::log(std::max(tails[k], limit));
    const double frac = hi > lo ? std::clamp((std::log(limit) - lo) / (hi - lo), 0.0, 1.0) : 0.0;
    return rates[k - 1] + frac * (rates[k] - rates[k - 1]);
  }
  return rates.back();
}

Result run_small_stdio(const E2eOptions& o) {
  Result result;
  WorkloadRng rng(o.seed);
  const double q = tail_quantile("small_stdio");
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupSpawns; ++i) setups.push_back(stdio_setup_s(o.serve_path));

  Ledger ledger;
  const Clock::time_point spawn = Clock::now();
  ServerProcess server(o.serve_path, false);
  StdioReader reader(server, ledger);
  if (!stdio_stats(server, ledger, spawn + std::chrono::seconds(30))) {
    throw std::runtime_error("server never answered stats");
  }
  setups.push_back(ms_between(spawn, Clock::now()) / 1000.0);
  result.set("setup_s", median(setups), "s");

  // The run is cut into rounds, each a burst, a reference segment and one
  // short segment per ladder rung, so every figure samples the whole run
  // rather than one stretch of it.  Each segment is its own phase.  The
  // reference segments deal from a deck of their own, one whole pass each.
  const std::vector<double>& ladder = small_ladder();
  const std::size_t rounds =
      std::max<std::size_t>(2, static_cast<std::size_t>(o.seconds / kSmallRoundSeconds));
  const auto segment = [&](std::size_t round, std::size_t k) {
    return static_cast<int>(round * ladder.size() + k);
  };
  const auto burst_phase = [&](std::size_t round) {
    return static_cast<int>(rounds * ladder.size() + round);
  };
  const auto reference_phase = [&](std::size_t round) {
    return static_cast<int>(rounds * (ladder.size() + 1) + round);
  };
  const int warm_up_phase = static_cast<int>(rounds * (ladder.size() + 2));
  SmallDeck deck(rng), reference_deck(rng);
  std::vector<double> capacity;
  double burst_jobs = 0.0, burst_iters = 0.0, burst_total_s = 0.0;
  std::vector<std::vector<double>> lateness(ladder.size());
  std::vector<double> reference_lateness;
  std::vector<std::vector<double>> drain(rounds, std::vector<double>(ladder.size())),
      achieved(rounds, std::vector<double>(ladder.size()));
  std::size_t sent = 0;
  // Sends `n` jobs dealt from `from` at `rate`, due times from a t0 just
  // ahead, and waits until all are reported; returns t0 and the last due.
  const auto paced = [&](SmallDeck& from, double rate, std::size_t n, int phase,
                         std::vector<double>& late, const auto& tag) {
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    Clock::time_point last_due = t0;
    for (std::size_t i = 0; i < n; ++i) {
      last_due = t0 + seconds_d(static_cast<double>(i) / rate);
      std::this_thread::sleep_until(last_due);
      late.push_back(ms_between(last_due, Clock::now()));
      send(server, ledger, from.deal(tag(i)), phase, last_due);
    }
    sent += n;
    ledger.wait_reported(sent, last_due + std::chrono::seconds(60));
    return std::pair{t0, last_due};
  };
  // An untimed warm-up burst first: the server's first burst after start
  // runs at about half its later rate.
  const Clock::time_point warm_t0 = Clock::now();
  for (std::size_t i = 0; i < kSmallBurstJobs; ++i) {
    send(server, ledger, deck.deal(tag_of('w', {i})), warm_up_phase, warm_t0);
  }
  sent += kSmallBurstJobs;
  ledger.wait_reported(sent, warm_t0 + std::chrono::seconds(60));
  for (std::size_t round = 0; round < rounds; ++round) {
    // Burst: every job due at once; the completion rate is the capacity
    // of the stdio -> warm-path stack.
    const Clock::time_point burst_t0 = Clock::now();
    for (std::size_t i = 0; i < kSmallBurstJobs; ++i) {
      send(server, ledger, deck.deal(tag_of('b', {round, i})), burst_phase(round), burst_t0);
    }
    sent += kSmallBurstJobs;
    ledger.wait_reported(sent, burst_t0 + std::chrono::seconds(60));
    const PhaseDone burst = phase_done(ledger, burst_phase(round));
    const double burst_s = ms_between(burst_t0, burst.last) / 1000.0;
    capacity.push_back(static_cast<double>(burst.n) / burst_s);
    burst_jobs += static_cast<double>(burst.n);
    burst_iters += static_cast<double>(burst.iterations);
    burst_total_s += burst_s;

    // Reference and ladder segments: fixed open-loop rates, timed from the
    // due time.
    paced(reference_deck, kSmallReferenceRate, kSmallReferenceJobs, reference_phase(round),
          reference_lateness, [&](std::size_t i) { return tag_of('q', {round, i}); });
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const auto [t0, last_due] =
          paced(deck, ladder[k], kSmallSegmentJobs, segment(round, k), lateness[k],
                [&](std::size_t i) { return tag_of('r', {round, k, i}); });
      const PhaseDone done = phase_done(ledger, segment(round, k));
      drain[round][k] = ms_between(last_due, done.last);
      achieved[round][k] = static_cast<double>(done.n) / (ms_between(t0, done.last) / 1000.0);
    }
  }
  // Pooled over every burst: a burst's rate is bimodal on a shared host, and
  // the pooled rate weighs both modes by the time they took.
  result.set("throughput_per_s", burst_jobs / burst_total_s, "req/s");
  result.set("walker_iters_per_s", burst_iters / burst_total_s, "it/s");

  // Headline latencies take each round's statistic and report its quiet
  // quartile (25th percentile) over rounds: on a shared host a minority of
  // rounds lands in a noisy stretch and reads 1.5-3x slow, which moves a
  // median from run to run; a change in the program moves every round.  The
  // rate is the median over rounds: a round's crossing also reads fast now
  // and then, when the host does.  The per-round values are in the result
  // document.  Within a round a rung meets the limit when its tail
  // and its drain (backlog left at the last due time) are both within it
  // and every job completed.
  std::vector<double> p50s, tails, low_p50s, crossings;
  std::vector<std::size_t> passes(ladder.size(), 0);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::vector<double> ref_lat = phase_latencies(ledger, reference_phase(round));
    require_tail_support(result, "small_stdio reference segment", ref_lat.size(), q);
    p50s.push_back(median(ref_lat));
    tails.push_back(quantile(ref_lat, q));
    low_p50s.push_back(median(phase_latencies(ledger, reference_phase(round), "low")));
    std::vector<double> rates, rung_tails;
    std::vector<bool> pass;
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const std::vector<double> lat = phase_latencies(ledger, segment(round, k));
      rates.push_back(achieved[round][k]);
      rung_tails.push_back(quantile(lat, q));
      pass.push_back(lat.size() == kSmallSegmentJobs && rung_tails.back() <= kSmallTailLimitMs &&
                     drain[round][k] <= kSmallTailLimitMs);
      passes[k] += pass.back() ? 1 : 0;
    }
    crossings.push_back(crossing_rate(rates, rung_tails, pass, kSmallTailLimitMs));
  }
  result.set("latency_p50_ms", quantile(p50s, kQuietQuartile), "ms");
  result.set("latency_tail_ms", quantile(tails, kQuietQuartile), "ms");
  result.set("background_p50_s", quantile(low_p50s, kQuietQuartile) / 1000.0, "s");
  result.set("max_rate_per_s", median(crossings), "req/s");
  // Honest open loop: a generator that could not keep its own schedule at
  // the reference segments invalidates the run instead of reading slow.
  if (fell_behind(reference_lateness)) {
    result.note_problem("invalid run: generator fell behind at the reference segments (p99 " +
                        std::to_string(quantile(reference_lateness, 0.99)) + " ms late)");
  }

  // Per-rung detail, pooled over rounds.
  Json rungs = Json::array();
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    std::vector<double> lat, rates, drains;
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::vector<double> part = phase_latencies(ledger, segment(round, k));
      lat.insert(lat.end(), part.begin(), part.end());
      rates.push_back(achieved[round][k]);
      drains.push_back(drain[round][k]);
    }
    Json rung = phase_json(lat, q);
    rung.set("rate_per_s", ladder[k])
        .set("achieved_per_s", median(rates))
        .set("worst_drain_ms", *std::max_element(drains.begin(), drains.end()))
        .set("generator_late_p99_ms", quantile(lateness[k], 0.99))
        .set("rounds_meeting_limit", static_cast<std::uint64_t>(passes[k]));
    rungs.push_back(std::move(rung));
  }
  std::vector<double> reference_lat;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::vector<double> part = phase_latencies(ledger, reference_phase(round));
    reference_lat.insert(reference_lat.end(), part.begin(), part.end());
  }
  Json reference = phase_json(reference_lat, q);
  reference.set("rate_per_s", kSmallReferenceRate)
      .set("generator_late_p99_ms", quantile(reference_lateness, 0.99));
  result.detail.set("reference", std::move(reference));
  result.detail.set("tail_quantile", q).set("tail_limit_ms", kSmallTailLimitMs);
  result.detail.set("rounds", static_cast<std::uint64_t>(rounds));
  Json round_p50s = Json::array(), round_tails = Json::array(), round_rates = Json::array();
  for (std::size_t round = 0; round < rounds; ++round) {
    round_p50s.push_back(p50s[round]);
    round_tails.push_back(tails[round]);
    round_rates.push_back(crossings[round]);
  }
  result.detail.set("reference_round_p50_ms", std::move(round_p50s));
  result.detail.set("reference_round_tail_ms", std::move(round_tails));
  result.detail.set("round_max_rate_per_s", std::move(round_rates));
  Json bursts = Json::array();
  for (const double c : capacity) bursts.push_back(c);
  result.detail.set("burst_capacity_per_s", std::move(bursts));
  result.detail.set("ladder", std::move(rungs));

  finish(server, result);
  reader.join();
  ReportChecker checker;
  account(ledger, result, checker);
  check_determinism(ledger, rng, 40, result);
  return result;
}

// --- race_http -----------------------------------------------------------

Result run_race_http(const E2eOptions& o) {
  Result result;
  WorkloadRng rng(o.seed);
  const double q = tail_quantile("race_http");
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupSpawns; ++i) {
    setups.push_back(http_setup_s(o.serve_path, nullptr, nullptr));
  }
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<HttpConnection> conn;
  setups.push_back(http_setup_s(o.serve_path, &server, &conn));
  result.set("setup_s", median(setups), "s");

  // Closed loop: one keep-alive client, next race sent when the previous
  // stream ended; whole passes over the fixed race set until time is up.
  Ledger ledger;
  std::vector<double> first_byte_ms;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop_at = t0 + seconds_d(o.seconds);
  const Clock::time_point hard_deadline = t0 + std::chrono::seconds(150);
  std::size_t passes = 0;
  while (passes == 0 || Clock::now() < stop_at) {
    for (const Job& job : race_pass(rng, passes)) {
      const Clock::time_point due = Clock::now();
      ledger.add(job, 0, due);
      Clock::time_point first{};
      const int status = conn->request(
          "POST", "/api", job.line, hard_deadline,
          [&](std::string_view line, Clock::time_point at) { ledger.on_event(line, at); },
          &first);
      if (status != 200) result.note_problem(job.tag + ": HTTP status " + std::to_string(status));
      if (first != Clock::time_point{}) first_byte_ms.push_back(ms_between(due, first));
      if (Clock::now() > hard_deadline) break;
    }
    ++passes;
    if (Clock::now() > hard_deadline) {
      result.note_problem("race_http: hard deadline reached");
      break;
    }
  }
  Clock::time_point end = t0;
  std::uint64_t iters = 0;
  for (const auto& [tag, r] : ledger.records) {
    if (r.reported) end = std::max(end, r.done);
    iters += total_iterations(r);
  }
  const double wall_s = ms_between(t0, end) / 1000.0;
  const std::vector<double> lat = phase_latencies(ledger, 0);
  require_tail_support(result, "race_http", lat.size(), q);
  result.set("latency_p50_ms", median(lat), "ms");
  result.set("latency_tail_ms", quantile(lat, q), "ms");
  const double rate = static_cast<double>(lat.size()) / wall_s;
  result.set("throughput_per_s", rate, "req/s");
  // A closed loop builds no backlog: its sustained rate is its completion
  // rate.
  result.set("max_rate_per_s", rate, "req/s");
  result.set("walker_iters_per_s", static_cast<double>(iters) / wall_s, "it/s");
  result.set("background_p50_s", median(phase_latencies(ledger, 0, "low")) / 1000.0, "s");
  Json races = phase_json(lat, q);
  races.set("passes", static_cast<std::uint64_t>(passes))
      .set("first_byte_p50_ms", median(first_byte_ms))
      .set("report_minus_first_byte_p50_ms", median(lat) - median(first_byte_ms));
  result.detail.set("races", std::move(races));
  conn.reset();
  finish(*server, result);
  ReportChecker checker;
  account(ledger, result, checker);
  return result;
}

// --- preempt_stdio -------------------------------------------------------

Result run_preempt_stdio(const E2eOptions& o) {
  Result result;
  WorkloadRng rng(o.seed);
  const double q = tail_quantile("preempt_stdio");
  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupSpawns; ++i) setups.push_back(stdio_setup_s(o.serve_path));

  Ledger ledger;
  std::mutex refill_m;
  std::condition_variable refill_cv;
  std::size_t refills = 0;
  const Clock::time_point spawn = Clock::now();
  ServerProcess server(o.serve_path, false);
  StdioReader reader(server, ledger, [&](const std::string& tag) {
    if (tag.rfind("low", 0) != 0) return;
    std::lock_guard lock(refill_m);
    ++refills;
    refill_cv.notify_all();
  });
  if (!stdio_stats(server, ledger, spawn + std::chrono::seconds(30))) {
    throw std::runtime_error("server never answered stats");
  }
  setups.push_back(ms_between(spawn, Clock::now()) / 1000.0);
  result.set("setup_s", median(setups), "s");

  // High arrivals: open loop, mean rate kPreemptHighRate, each gap
  // jittered uniformly in [0.5, 1.5] x the mean.
  std::vector<double> high_due_s;
  for (double t = 0.0;;) {
    t += (0.5 + rng.unit()) / kPreemptHighRate;
    if (t >= o.seconds) break;
    high_due_s.push_back(t);
  }
  // Lows: a constant population, each replaced when it reports (closed
  // loop; its latency runs from its own send).
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point stop_at = t0 + seconds_d(o.seconds);
  std::size_t lows = 0, highs = 0;
  const auto send_low = [&] {
    send(server, ledger, preempt_low_job(rng, "low" + std::to_string(lows++)), 0, Clock::now());
  };
  std::this_thread::sleep_until(t0);
  for (std::size_t i = 0; i < kPreemptLowPopulation; ++i) send_low();
  std::vector<double> lateness;
  while (highs < high_due_s.size()) {
    const Clock::time_point due = t0 + seconds_d(high_due_s[highs]);
    std::size_t take = 0;
    {
      std::unique_lock lock(refill_m);
      refill_cv.wait_until(lock, due, [&] { return refills > 0; });
      take = refills;
      refills = 0;
    }
    for (std::size_t i = 0; i < take && Clock::now() < stop_at; ++i) send_low();
    if (Clock::now() >= due) {
      lateness.push_back(ms_between(due, Clock::now()));
      send(server, ledger, preempt_high_job(rng, "high" + std::to_string(highs++)), 1, due);
    }
  }
  while (Clock::now() < stop_at) {
    std::size_t take = 0;
    {
      std::unique_lock lock(refill_m);
      refill_cv.wait_until(lock, stop_at, [&] { return refills > 0; });
      take = refills;
      refills = 0;
    }
    for (std::size_t i = 0; i < take && Clock::now() < stop_at; ++i) send_low();
  }
  ledger.wait_reported(lows + highs, Clock::now() + std::chrono::seconds(60));
  const std::optional<Json> stats =
      stdio_stats(server, ledger, Clock::now() + std::chrono::seconds(10));

  Clock::time_point end = t0;
  std::uint64_t iters = 0;
  std::size_t completed = 0;
  for (const auto& [tag, r] : ledger.records) {
    if (!r.reported) continue;
    end = std::max(end, r.done);
    iters += total_iterations(r);
    ++completed;
  }
  const double wall_s = ms_between(t0, end) / 1000.0;
  const std::vector<double> high_lat = phase_latencies(ledger, 1);
  const std::vector<double> low_lat = phase_latencies(ledger, 0);
  require_tail_support(result, "preempt_stdio high lane", high_lat.size(), q);
  const double late_p99 = quantile(lateness, 0.99);
  if (fell_behind(lateness)) {
    result.note_problem("invalid run: generator fell behind (p99 " +
                        std::to_string(late_p99) + " ms late)");
  }
  result.set("latency_p50_ms", median(high_lat), "ms");
  result.set("latency_tail_ms", quantile(high_lat, q), "ms");
  result.set("background_p50_s", median(low_lat) / 1000.0, "s");
  result.set("throughput_per_s", static_cast<double>(completed) / wall_s, "req/s");
  // The open-loop class is the high lane; its sustained rate is the rate
  // it completed at.
  result.set("max_rate_per_s", static_cast<double>(high_lat.size()) / o.seconds, "req/s");
  result.set("walker_iters_per_s", static_cast<double>(iters) / wall_s, "it/s");
  Json high = phase_json(high_lat, q);
  high.set("generator_late_p99_ms", late_p99);
  result.detail.set("high", std::move(high));
  result.detail.set("low", phase_json(low_lat, 0.5));
  result.detail.set("preempted_events", ledger.preempted_events);
  require_running_preemption(stats, result);
  finish(server, result);
  reader.join();
  ReportChecker checker;
  account(ledger, result, checker);
  return result;
}

}  // namespace

void kill_servers() noexcept {
  std::lock_guard lock(g_children_m);
  for (const pid_t pid : g_children) ::kill(pid, SIGKILL);
  for (const pid_t pid : g_children) ::waitpid(pid, nullptr, 0);
  g_children.clear();
}

Result run_e2e(const E2eOptions& options) {
  if (options.workload == "small_stdio") return run_small_stdio(options);
  if (options.workload == "race_http") return run_race_http(options);
  if (options.workload == "preempt_stdio") return run_preempt_stdio(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
