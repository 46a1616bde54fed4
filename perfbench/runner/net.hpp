// Byte-stream plumbing shared by the load generator and the traced run:
// a deadline-bounded buffered reader for pipes and sockets, and a minimal
// HTTP/1.1 keep-alive client for cspls_serve's /api and /stats.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common.hpp"

namespace perfbench {

// --- Byte streams --------------------------------------------------------

/// Buffered line/record reader over a pipe or socket with deadlines.
class FdReader {
 public:
  explicit FdReader(int fd) : fd_(fd) {}

  /// One line without its "\n" (and a trailing "\r"); false on EOF,
  /// error or deadline.
  bool read_line(std::string& line, Clock::time_point deadline) {
    while (true) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::size_t end = nl;
        if (end > pos_ && buf_[end - 1] == '\r') --end;
        line.assign(buf_, pos_, end - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (!fill(deadline)) return false;
    }
  }

  /// Exactly n bytes.
  bool read_exact(std::size_t n, std::string& out, Clock::time_point deadline) {
    while (buf_.size() - pos_ < n) {
      if (!fill(deadline)) return false;
    }
    out.assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool fill(Clock::time_point deadline) {
    if (pos_ > 0 && pos_ * 2 > buf_.size()) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, static_cast<int>(std::min<long long>(left, 1000)));
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

inline bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// --- HTTP client ---------------------------------------------------------

/// One HTTP/1.1 keep-alive connection to 127.0.0.1.
class HttpConnection {
 public:
  explicit HttpConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" +
                               std::to_string(port));
    }
    reader_.emplace(fd_);
  }
  ~HttpConnection() { ::close(fd_); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and delivers each body line (each chunk of a
  /// chunked stream, or the lines of a Content-Length body) with its
  /// arrival time; `first_byte`, when given, receives the arrival time of
  /// the status line.  Returns the HTTP status, 0 on a transport failure.
  int request(std::string_view method, std::string_view path,
              std::string_view body, Clock::time_point deadline,
              const std::function<void(std::string_view, Clock::time_point)>&
                  on_line,
              Clock::time_point* first_byte = nullptr) {
    std::string req = std::string(method) + " " + std::string(path) +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty()) {
      req += "Content-Type: application/json\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n";
    req.append(body);
    if (!write_all(fd_, req)) return 0;

    std::string line;
    if (!reader_->read_line(line, deadline)) return 0;
    if (first_byte != nullptr) *first_byte = Clock::now();
    const int status = line.size() > 12 ? std::atoi(line.c_str() + 9) : 0;
    bool chunked = false;
    std::size_t length = 0;
    while (reader_->read_line(line, deadline) && !line.empty()) {
      std::string lower = line;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower.rfind("transfer-encoding:", 0) == 0 &&
          lower.find("chunked") != std::string::npos) {
        chunked = true;
      }
      if (lower.rfind("content-length:", 0) == 0) {
        length = std::stoul(lower.substr(15));
      }
    }
    std::string data;
    if (!chunked) {
      if (!reader_->read_exact(length, data, deadline)) return 0;
      const Clock::time_point at = Clock::now();
      std::size_t start = 0;
      while (start < data.size()) {
        std::size_t nl = data.find('\n', start);
        if (nl == std::string::npos) nl = data.size();
        if (nl > start) on_line(std::string_view(data).substr(start, nl - start), at);
        start = nl + 1;
      }
      return status;
    }
    while (true) {
      if (!reader_->read_line(line, deadline)) return 0;
      const std::size_t size = std::stoul(line, nullptr, 16);
      if (size == 0) {
        reader_->read_line(line, deadline);  // the terminating CRLF
        return status;
      }
      if (!reader_->read_exact(size + 2, data, deadline)) return 0;
      const Clock::time_point at = Clock::now();
      std::string_view chunk(data.data(), size);
      while (!chunk.empty() && chunk.back() == '\n') chunk.remove_suffix(1);
      on_line(chunk, at);
    }
  }

 private:
  int fd_ = -1;
  std::optional<FdReader> reader_;
};

}  // namespace perfbench
