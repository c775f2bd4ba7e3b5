#include "net/serve_client.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn::net {

ServeClient::ServeClient(ClientOptions options)
    : options_(std::move(options)),
      fd_(connect_tcp(options_.host, options_.port, options_.timeout_ms)),
      decoder_(options_.max_frame_payload) {}

ServeClient::~ServeClient() = default;

void ServeClient::send(const Request& request) {
  if (!fd_.valid()) throw NetError("send on a closed client");
  const std::vector<std::uint8_t> frame =
      encode_frame(FrameKind::kRequest, encode_request(request));
  std::size_t sent = 0;
  try {
    while (sent < frame.size()) {
      WFBN_FAULT_POINT(fault::Point::kNetWrite);
      const ssize_t n =
          ::write(fd_.get(), frame.data() + sent, frame.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      throw NetError("write()" + errno_string());
    }
  } catch (...) {
    fd_.reset();
    throw;
  }
  ++in_flight_;
}

std::optional<Response> ServeClient::try_receive(int timeout_ms) {
  return try_receive_until(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(timeout_ms));
}

std::optional<Response> ServeClient::try_receive_until(
    std::chrono::steady_clock::time_point deadline) {
  try {
    while (true) {
      if (std::optional<DecodedFrame> frame = decoder_.next()) {
        if (frame->kind != FrameKind::kResponse) {
          throw DataError("client: server sent a non-response frame");
        }
        if (in_flight_ > 0) --in_flight_;
        return decode_response(frame->payload);
      }
      if (!fd_.valid()) throw NetError("receive on a closed client");
      const auto wait = std::max(std::chrono::steady_clock::duration::zero(),
                                 deadline - std::chrono::steady_clock::now());
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      const timespec timeout{static_cast<time_t>(ns / 1000000000),
                             static_cast<long>(ns % 1000000000)};
      pollfd pfd{fd_.get(), POLLIN, 0};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw NetError("ppoll()" + errno_string());
      }
      if (ready == 0) return std::nullopt;
      WFBN_FAULT_POINT(fault::Point::kNetRead);
      std::uint8_t buf[65536];
      const ssize_t n = ::read(fd_.get(), buf, sizeof buf);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw NetError("server closed the connection");
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw NetError("read()" + errno_string());
    }
  } catch (...) {
    fd_.reset();
    throw;
  }
}

Response ServeClient::receive(int timeout_ms) {
  if (timeout_ms < 0) timeout_ms = options_.timeout_ms;
  std::optional<Response> response = try_receive(timeout_ms);
  if (!response.has_value()) {
    fd_.reset();
    throw NetError("receive timed out");
  }
  return *std::move(response);
}

Response ServeClient::call(const Request& request) {
  send(request);
  return receive();
}

}  // namespace wfbn::net
