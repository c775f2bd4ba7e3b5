// Load generation over one pipelined connection to a ServeServer.
//
// Open loop: request i is due at start + i/rate and is sent when due,
// whatever is still in flight; its latency runs from the due time to the
// response, so a stall shows in every request that waited behind it. Between
// sends the generator blocks in ppoll() on the socket until the next due
// time, so responses are taken off the socket as they arrive rather than
// between coarse sleeps, and the send lag (actual send − due) is recorded to
// show how late the generator itself ran.
//
// Closed loop: `depth` requests are kept in flight; each response releases
// the next send. Latency runs from send to response.
//
// Both loops wait for stragglers after the window for a bounded time and
// count every request without an OK answer as failed.
#pragma once

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_schema.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "trace.hpp"

namespace wfbn::bench {

/// One client connection whose reads wait with nanosecond timeouts.
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(net::connect_tcp("127.0.0.1", port, 10000)) {}

  void send(const net::Request& request) { send(std::span(&request, 1)); }

  /// Frames every request into one buffer and writes it with as few system
  /// calls as the socket allows.
  void send(std::span<const net::Request> requests) {
    std::vector<std::uint8_t> bytes;
    for (const net::Request& r : requests) {
      net::append_frame(bytes, net::FrameKind::kRequest, net::encode_request(r));
    }
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_.get(), bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EINTR) {
        throw net::NetError("write()" + net::errno_string());
      }
    }
  }

  /// Responses that arrive before `deadline` (possibly none). Returns as
  /// soon as at least one complete response has been decoded.
  std::vector<net::Response> receive_until(Clock::time_point deadline) {
    std::vector<net::Response> out;
    while (true) {
      while (std::optional<net::DecodedFrame> frame = decoder_.next()) {
        out.push_back(net::decode_response(frame->payload));
      }
      if (!out.empty()) return out;
      const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      const timespec timeout{static_cast<time_t>(ns / 1000000000),
                             static_cast<long>(ns % 1000000000)};
      pollfd pfd{fd_.get(), POLLIN, 0};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) throw net::NetError("ppoll()" + net::errno_string());
      if (ready == 0) return out;
      std::uint8_t buf[65536];
      const ssize_t n = ::read(fd_.get(), buf, sizeof buf);
      if (n == 0) throw net::NetError("server closed the connection");
      if (n < 0 && errno != EINTR && errno != EAGAIN) {
        throw net::NetError("read()" + net::errno_string());
      }
      if (n > 0) decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  net::UniqueFd fd_;
  net::FrameDecoder decoder_;
};

/// What one generator phase saw.
struct RpcLog {
  Samples latency_ms;    ///< OK answers only
  Samples send_lag_ms;   ///< open loop: actual send − due time
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  ///< non-OK status or no answer in time
  double seconds = 0.0;      ///< window length, for throughput
};

using MakeRequest = std::function<net::Request(std::uint64_t id)>;
/// Called for every OK response, with its id.
using OnAnswer = std::function<void(const net::Response&)>;

inline constexpr double kStragglerSeconds = 10.0;
/// One RPC in this many gets a span, which bounds a traced run's memory and
/// trace file at hundreds of thousands of requests.
inline constexpr std::uint64_t kTraceEvery = 10;

/// Lets the generator thread's timed waits wake within a microsecond of
/// their deadline instead of the default 50 µs timer slack.
inline void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

namespace detail {

/// Takes responses until every sent request is answered or `deadline`.
/// `sent_at(id)` gives the latency origin of request id.
template <typename SentAt>
void collect(Connection& conn, RpcLog& log, std::uint64_t& outstanding,
             Clock::time_point deadline, const SentAt& sent_at,
             const OnAnswer& on_answer, Tracer& tracer, std::uint64_t parent,
             const char* span_name, bool record_latency, bool stop_after_one) {
  while (outstanding > 0) {
    const std::vector<net::Response> batch = conn.receive_until(deadline);
    if (batch.empty()) return;  // deadline
    const Clock::time_point now = Clock::now();
    for (const net::Response& r : batch) {
      --outstanding;
      if (r.status != net::Status::kOk) {
        ++log.failed;
        continue;
      }
      const Clock::time_point origin = sent_at(r.id);
      ++log.ok;
      if (record_latency) log.latency_ms.add(seconds_between(origin, now) * 1e3);
      if (r.id % kTraceEvery == 0) tracer.record(span_name, origin, now, parent, r.id);
      on_answer(r);
    }
    if (stop_after_one) return;
  }
}

}  // namespace detail

/// Open loop at `rate` requests/s for `seconds`; ids are id_base + i.
inline RpcLog open_loop(Connection& conn, double rate, double seconds,
                        std::uint64_t id_base, const MakeRequest& make,
                        const OnAnswer& on_answer, Tracer& tracer,
                        std::uint64_t parent, const char* span_name) {
  RpcLog log;
  log.seconds = seconds;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + from_seconds(seconds);
  const auto due = [&](std::uint64_t i) {
    return start + from_seconds(static_cast<double>(i) / rate);
  };
  const auto sent_at = [&](std::uint64_t id) { return due(id - id_base); };
  std::uint64_t next = 0;
  std::uint64_t outstanding = 0;
  while (true) {
    const Clock::time_point now = Clock::now();
    while (due(next) <= now && due(next) < end) {
      conn.send(make(id_base + next));
      log.send_lag_ms.add(seconds_between(due(next), Clock::now()) * 1e3);
      ++log.sent;
      ++outstanding;
      ++next;
    }
    if (due(next) >= end) break;
    // Block on the socket until the next request is due; answers that
    // arrive meanwhile are timed on arrival.
    detail::collect(conn, log, outstanding, due(next), sent_at, on_answer, tracer,
                    parent, span_name, true, true);
  }
  detail::collect(conn, log, outstanding, end + from_seconds(kStragglerSeconds), sent_at,
                  on_answer, tracer, parent, span_name, true, false);
  log.failed += outstanding;
  return log;
}

/// Closed loop keeping `depth` requests in flight for `seconds`. Without
/// `record_latency` only counts are kept, so memory does not grow with
/// throughput.
inline RpcLog closed_loop(Connection& conn, std::size_t depth, double seconds,
                          std::uint64_t id_base, const MakeRequest& make,
                          const OnAnswer& on_answer, Tracer& tracer,
                          std::uint64_t parent, const char* span_name,
                          bool record_latency) {
  RpcLog log;
  std::unordered_map<std::uint64_t, Clock::time_point> sent_time;
  const auto sent_at = [&](std::uint64_t id) {
    const auto it = sent_time.find(id);
    if (it == sent_time.end()) throw std::runtime_error("answer to an unsent request");
    const Clock::time_point t = it->second;
    sent_time.erase(it);
    return t;
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + from_seconds(seconds);
  std::uint64_t next = 0;
  std::uint64_t outstanding = 0;
  std::vector<net::Request> batch;
  while (Clock::now() < end) {
    // Refill the window with one write, so the client's system calls do not
    // cap the throughput it measures.
    batch.clear();
    const Clock::time_point now = Clock::now();
    for (; outstanding < depth; ++outstanding, ++log.sent) {
      const std::uint64_t id = id_base + next++;
      sent_time.emplace(id, now);
      batch.push_back(make(id));
    }
    conn.send(batch);
    detail::collect(conn, log, outstanding, end, sent_at, on_answer, tracer, parent,
                    span_name, record_latency, true);
  }
  detail::collect(conn, log, outstanding, Clock::now() + from_seconds(kStragglerSeconds),
                  sent_at, on_answer, tracer, parent, span_name, record_latency, false);
  // Every answer counted in `ok` arrived by now, stragglers included.
  log.seconds = seconds_between(start, Clock::now());
  log.failed += outstanding;
  return log;
}

}  // namespace wfbn::bench
