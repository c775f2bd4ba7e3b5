// ServeClient: the client half of the serving protocol.
//
// One client owns one TCP connection. Two usage styles:
//
//   call(request)        — send one request, block for its response. The
//                          simple RPC shape examples use.
//   send() / receive()   — pipelined: queue many requests onto the socket,
//                          then collect responses as they arrive. Responses
//                          come back in completion order, not send order —
//                          match them by Response::id. This is what the
//                          open-loop load generator uses to measure latency
//                          without one-request-at-a-time serialization.
//
// Failure model mirrors the server: a transport failure (including injected
// net.read/net.write faults) or a framing violation (bad magic, checksum
// mismatch) poisons the connection — the client throws (NetError for
// transport, DataError for protocol) and connected() goes false. Responses
// with Status != kOk are *not* exceptions: OVERLOADED and BAD_REQUEST are
// ordinary answers the caller inspects.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"

namespace wfbn::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int timeout_ms = 5000;  ///< connect + default receive timeout
  std::size_t max_frame_payload = kMaxPayloadBytes;
};

class ServeClient {
 public:
  /// Connects immediately; throws NetError on failure.
  explicit ServeClient(ClientOptions options);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Writes one framed request to the socket (blocking). Throws NetError on
  /// transport failure; the connection is closed afterwards.
  void send(const Request& request);

  /// Next response frame. `timeout_ms` < 0 uses options.timeout_ms. Throws
  /// NetError on disconnect/timeout, DataError on a protocol violation.
  Response receive(int timeout_ms = -1);

  /// Polling receive: nullopt when no complete response arrives within
  /// `timeout_ms` (the connection stays usable — unlike receive(), a timeout
  /// is not an error). Transport/protocol failures still throw and close.
  std::optional<Response> try_receive(int timeout_ms = 0);

  /// try_receive() until `deadline`, waiting with nanosecond resolution —
  /// what the open-loop load generator drains with between sends, so each
  /// response is timestamped when it arrives, not when the next send is due.
  std::optional<Response> try_receive_until(
      std::chrono::steady_clock::time_point deadline);

  /// send() + receive(): the synchronous RPC shape.
  Response call(const Request& request);

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }
  void close() noexcept { fd_.reset(); }

  /// Requests already framed and sent minus responses received — the
  /// pipelining depth the load generator throttles on.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  ClientOptions options_;
  UniqueFd fd_;
  FrameDecoder decoder_;
  std::size_t in_flight_ = 0;
};

}  // namespace wfbn::net
