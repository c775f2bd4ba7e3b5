#include "net/serve_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn::net {

namespace {

/// Best-effort request id from a payload that failed to decode, so the
/// BAD_REQUEST answer can still be correlated by the client. The id is the
/// first field, so any payload with 8 bytes has one.
std::uint64_t scrape_request_id(std::span<const std::uint8_t> payload) {
  if (payload.size() < sizeof(std::uint64_t)) return 0;
  std::uint64_t id = 0;
  std::memcpy(&id, payload.data(), sizeof id);
  return id;
}

Opcode scrape_opcode(std::span<const std::uint8_t> payload) {
  if (payload.size() > sizeof(std::uint64_t) &&
      opcode_valid(payload[sizeof(std::uint64_t)])) {
    return static_cast<Opcode>(payload[sizeof(std::uint64_t)]);
  }
  return Opcode::kVersion;
}

}  // namespace

template <typename K>
struct BasicServeServer<K>::Impl {
  // The wire numbers a key width by its word count less one.
  static constexpr auto kWidth =
      static_cast<KeyWidth>(KeyTraits<K>::kWords - 1);

  struct WorkItem {
    std::uint64_t conn_id = 0;
    Request request;
  };
  using Queue = BoundedQueue<WorkItem>;

  struct Connection {
    UniqueFd fd;
    FrameDecoder decoder;
    std::vector<std::uint8_t> outbox;
    std::size_t outbox_sent = 0;
  };

  struct Outgoing {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> frame;
  };

  Impl(Engine& engine_in, ThreadPool& pool_in, ServerOptions options_in,
       Durable* durable_in)
      : engine(engine_in),
        pool(pool_in),
        options(std::move(options_in)),
        durable(durable_in),
        admission(options.admission) {}

  Engine& engine;
  ThreadPool& pool;
  ServerOptions options;
  Durable* durable;
  AdmissionController admission;

  UniqueFd listen_fd;
  UniqueFd wake_read;
  UniqueFd wake_write;
  std::uint16_t bound_port = 0;
  bool started = false;
  std::atomic<bool> running{false};

  std::thread event_thread;
  std::vector<std::thread> dispatchers;

  /// Event-loop-thread-private connection table.
  std::unordered_map<std::uint64_t, Connection> conns;
  std::uint64_t next_conn_id = 1;

  /// Dispatcher → event loop response mailbox.
  std::mutex out_mutex;
  std::vector<Outgoing> outgoing;

  /// Per-class queues (admission enabled) or one shared FIFO (disabled).
  std::array<std::unique_ptr<Queue>, kRequestClassCount> class_queues;
  std::unique_ptr<Queue> shared_queue;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> decoded{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched{0};

  // ---- lifecycle -------------------------------------------------------

  void start() {
    WFBN_EXPECT(!started, "server already started");
    std::uint16_t port = options.port;
    listen_fd = listen_tcp(options.bind_address, port);
    bound_port = port;
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      listen_fd.reset();
      throw NetError("pipe2()" + errno_string());
    }
    wake_read = UniqueFd(pipe_fds[0]);
    wake_write = UniqueFd(pipe_fds[1]);
    running.store(true, std::memory_order_release);
    if (options.admission.enabled) {
      for (std::size_t c = 0; c < kRequestClassCount; ++c) {
        class_queues[c] = std::make_unique<Queue>(
            options.admission.per_class[c].queue_capacity);
      }
      dispatchers.emplace_back([this] {
        interactive_loop(
            *class_queues[static_cast<std::size_t>(RequestClass::kInteractive)]);
      });
      dispatchers.emplace_back([this] {
        single_loop(
            *class_queues[static_cast<std::size_t>(RequestClass::kIngest)]);
      });
      dispatchers.emplace_back([this] {
        single_loop(
            *class_queues[static_cast<std::size_t>(RequestClass::kAdmin)]);
      });
    } else {
      // The naive baseline: one effectively-unbounded FIFO, one dispatcher,
      // strict arrival order. Ingest folds head-of-line block every query
      // behind them — which is what the overload sweep measures.
      shared_queue = std::make_unique<Queue>(std::size_t{1} << 20);
      dispatchers.emplace_back([this] { single_loop(*shared_queue); });
    }
    event_thread = std::thread([this] { event_loop(); });
    started = true;
  }

  void stop() {
    if (!started) return;
    running.store(false, std::memory_order_release);
    wake();
    event_thread.join();
    for (auto& q : class_queues) {
      if (q) q->close();
    }
    if (shared_queue) shared_queue->close();
    for (std::thread& t : dispatchers) t.join();
    dispatchers.clear();
    for (auto& q : class_queues) q.reset();
    shared_queue.reset();
    conns.clear();
    listen_fd.reset();
    wake_read.reset();
    wake_write.reset();
    started = false;
  }

  void wake() noexcept {
    if (!wake_write.valid()) return;
    const std::uint8_t byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write.get(), &byte, 1);  // full pipe = wakeup pending
  }

  // ---- event loop ------------------------------------------------------

  void event_loop() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> owner;  ///< conn id per pollfd; 0 = internal
    while (running.load(std::memory_order_acquire)) {
      fds.clear();
      owner.clear();
      fds.push_back({wake_read.get(), POLLIN, 0});
      owner.push_back(0);
      std::ptrdiff_t listen_index = -1;
      if (conns.size() < options.max_connections) {
        listen_index = static_cast<std::ptrdiff_t>(fds.size());
        fds.push_back({listen_fd.get(), POLLIN, 0});
        owner.push_back(0);
      }
      for (const auto& [id, conn] : conns) {
        short events = POLLIN;
        if (conn.outbox_sent < conn.outbox.size()) events |= POLLOUT;
        fds.push_back({conn.fd.get(), events, 0});
        owner.push_back(id);
      }
      const int ready = ::poll(fds.data(), fds.size(), 100);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;  // poll itself failing is unrecoverable; stop() cleans up
      }
      if (fds[0].revents & POLLIN) drain_wake_pipe();
      deliver_outgoing();
      if (listen_index >= 0 &&
          (fds[static_cast<std::size_t>(listen_index)].revents & POLLIN)) {
        accept_pending();
      }
      for (std::size_t i = 1; i < fds.size(); ++i) {
        const std::uint64_t id = owner[i];
        if (id == 0) continue;
        auto it = conns.find(id);
        if (it == conns.end()) continue;  // closed earlier this round
        if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          close_conn(id, /*was_failure=*/false);
          continue;
        }
        if (fds[i].revents & POLLIN) handle_readable(id);
        it = conns.find(id);
        if (it != conns.end() && (fds[i].revents & POLLOUT)) {
          flush_writes(id);
        }
      }
    }
  }

  void drain_wake_pipe() noexcept {
    std::uint8_t sink[256];
    while (::read(wake_read.get(), sink, sizeof sink) > 0) {
    }
  }

  void deliver_outgoing() {
    std::vector<Outgoing> pending;
    {
      std::lock_guard<std::mutex> lock(out_mutex);
      pending.swap(outgoing);
    }
    for (Outgoing& out : pending) {
      auto it = conns.find(out.conn_id);
      if (it == conns.end()) continue;  // connection died; drop the response
      Connection& conn = it->second;
      conn.outbox.insert(conn.outbox.end(), out.frame.begin(),
                         out.frame.end());
      sent.fetch_add(1, std::memory_order_relaxed);
    }
    // Opportunistic flush so a response does not wait out the poll timeout.
    for (Outgoing& out : pending) {
      if (conns.count(out.conn_id) != 0) flush_writes(out.conn_id);
    }
  }

  void accept_pending() {
    while (conns.size() < options.max_connections) {
      const int raw =
          ::accept4(listen_fd.get(), nullptr, nullptr,
                    SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (raw < 0) return;  // EAGAIN and friends: nothing pending
      UniqueFd fd(raw);
      try {
        WFBN_FAULT_POINT(fault::Point::kNetAccept);
      } catch (const InjectedFault&) {
        // The accept is abandoned; the listener keeps serving.
        failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      Connection conn;
      conn.fd = std::move(fd);
      conn.decoder = FrameDecoder(options.max_frame_payload);
      conns.emplace(next_conn_id, std::move(conn));
      ++next_conn_id;
      accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void close_conn(std::uint64_t id, bool was_failure) {
    if (conns.erase(id) == 0) return;
    closed.fetch_add(1, std::memory_order_relaxed);
    if (was_failure) failed.fetch_add(1, std::memory_order_relaxed);
  }

  void handle_readable(std::uint64_t id) {
    Connection& conn = conns.at(id);
    try {
      while (true) {
        WFBN_FAULT_POINT(fault::Point::kNetRead);
        std::uint8_t buf[65536];
        const ssize_t n = ::read(conn.fd.get(), buf, sizeof buf);
        if (n > 0) {
          conn.decoder.feed(buf, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof buf) break;
          continue;
        }
        if (n == 0) {  // orderly EOF
          close_conn(id, /*was_failure=*/false);
          return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw NetError("read()" + errno_string());
      }
    } catch (const std::exception&) {
      // Injected fault, socket failure, or a torn/corrupt frame (DataError
      // from the decoder, including a forced net.frame_checksum mismatch).
      // The stream is untrustworthy: this one connection dies, nothing else.
      close_conn(id, /*was_failure=*/true);
      return;
    }
    while (std::optional<DecodedFrame> frame = conn.decoder.next()) {
      if (frame->kind != FrameKind::kRequest) {
        close_conn(id, /*was_failure=*/true);
        return;
      }
      if (!handle_request_frame(id, *frame)) return;  // connection closed
    }
    flush_writes(id);
  }

  /// Returns false when the connection was closed.
  bool handle_request_frame(std::uint64_t id, const DecodedFrame& frame) {
    Request request;
    try {
      request = decode_request(frame.payload);
    } catch (const DataError& e) {
      // The frame was intact (checksum passed) but the payload is not a
      // valid request: answer BAD_REQUEST and keep the connection — frame
      // boundaries are still trustworthy.
      bad.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.id = scrape_request_id(frame.payload);
      response.opcode = scrape_opcode(frame.payload);
      response.status = Status::kBadRequest;
      response.error = e.what();
      respond_now(id, response);
      return true;
    }
    decoded.fetch_add(1, std::memory_order_relaxed);
    if (request.width != Impl::kWidth) {
      bad.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.id = request.id;
      response.opcode = request.opcode;
      response.status = Status::kBadRequest;
      response.error = std::string("server serves ") +
                       KeyTraits<K>::kWidthName +
                       " keys; request asked for the other width";
      respond_now(id, response);
      return true;
    }
    const RequestClass cls = request.request_class();
    const AdmissionDecision decision =
        admission.admit(cls, monotonic_now_ns());
    if (!decision.admitted) {
      respond_overloaded(id, request, decision.retry_after_ms);
      return true;
    }
    Queue& queue = queue_for(cls);
    const std::uint64_t request_id = request.id;
    const Opcode opcode = request.opcode;
    if (!queue.try_push(WorkItem{id, std::move(request)})) {
      const std::uint16_t retry = admission.note_queue_full(cls);
      Request rejected;
      rejected.id = request_id;
      rejected.opcode = opcode;
      respond_overloaded(id, rejected, retry);
    }
    return true;
  }

  void respond_overloaded(std::uint64_t conn_id, const Request& request,
                          std::uint16_t retry_after_ms) {
    Response response;
    response.id = request.id;
    response.opcode = request.opcode;
    response.status = Status::kOverloaded;
    response.retry_after_ms = retry_after_ms;
    response.error = "overloaded";
    respond_now(conn_id, response);
  }

  /// Event-loop-thread response: straight into the outbox, no mailbox hop.
  void respond_now(std::uint64_t conn_id, const Response& response) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    append_frame(it->second.outbox, FrameKind::kResponse,
                 encode_response(response));
    sent.fetch_add(1, std::memory_order_relaxed);
  }

  void flush_writes(std::uint64_t id) {
    Connection& conn = conns.at(id);
    try {
      while (conn.outbox_sent < conn.outbox.size()) {
        WFBN_FAULT_POINT(fault::Point::kNetWrite);
        const ssize_t n =
            ::write(conn.fd.get(), conn.outbox.data() + conn.outbox_sent,
                    conn.outbox.size() - conn.outbox_sent);
        if (n > 0) {
          conn.outbox_sent += static_cast<std::size_t>(n);
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw NetError("write()" + errno_string());
      }
    } catch (const std::exception&) {
      close_conn(id, /*was_failure=*/true);
      return;
    }
    if (conn.outbox_sent == conn.outbox.size()) {
      conn.outbox.clear();
      conn.outbox_sent = 0;
    } else if (conn.outbox_sent > (64u << 10)) {
      conn.outbox.erase(conn.outbox.begin(),
                        conn.outbox.begin() +
                            static_cast<std::ptrdiff_t>(conn.outbox_sent));
      conn.outbox_sent = 0;
    }
  }

  Queue& queue_for(RequestClass cls) {
    if (shared_queue) return *shared_queue;
    return *class_queues[static_cast<std::size_t>(cls)];
  }

  // ---- dispatchers -----------------------------------------------------

  void post(std::uint64_t conn_id, const Response& response) {
    Outgoing out;
    out.conn_id = conn_id;
    out.frame = encode_frame(FrameKind::kResponse, encode_response(response));
    {
      std::lock_guard<std::mutex> lock(out_mutex);
      outgoing.push_back(std::move(out));
    }
    wake();
  }

  void interactive_loop(Queue& queue) {
    while (std::optional<WorkItem> first = queue.pop()) {
      std::vector<WorkItem> items;
      items.push_back(std::move(*first));
      while (items.size() < options.batch_max) {
        std::optional<WorkItem> more = queue.try_pop();
        if (!more) break;
        items.push_back(std::move(*more));
      }
      std::vector<serve::ServeQuery> queries;
      queries.reserve(items.size());
      for (const WorkItem& item : items) queries.push_back(item.request.query);
      const std::vector<serve::ServeResult> results =
          engine.serve_batch(queries, pool);
      batches.fetch_add(1, std::memory_order_relaxed);
      batched.fetch_add(items.size(), std::memory_order_relaxed);
      for (std::size_t i = 0; i < items.size(); ++i) {
        post(items[i].conn_id,
             make_query_response(items[i].request, results[i]));
      }
    }
  }

  /// Strict-FIFO dispatcher: the ingest and admin classes, and the whole
  /// shared queue when admission is disabled.
  void single_loop(Queue& queue) {
    while (std::optional<WorkItem> item = queue.pop()) {
      post(item->conn_id, handle_one(item->request));
    }
  }

  Response handle_one(const Request& request) {
    switch (class_of(request.opcode)) {
      case RequestClass::kInteractive: {
        serve::ServeResult result;
        try {
          result = engine.serve(request.query);
        } catch (const std::exception& e) {
          result.ok = false;
          result.error = e.what();
        }
        return make_query_response(request, result);
      }
      case RequestClass::kIngest:
        return handle_ingest(request);
      case RequestClass::kAdmin:
        return handle_admin(request);
    }
    Response response;
    response.id = request.id;
    response.opcode = request.opcode;
    response.status = Status::kBadRequest;
    response.error = "unroutable opcode";
    return response;
  }

  Response make_query_response(const Request& request,
                               const serve::ServeResult& result) {
    Response response;
    response.id = request.id;
    response.opcode = request.opcode;
    if (!result.ok) {
      response.status = Status::kError;
      response.error = result.error;
      return response;
    }
    response.version = result.version;
    response.cache_hit = result.cache_hit;
    response.values = result.values;
    return response;
  }

  Response handle_ingest(const Request& request) {
    Response response;
    response.id = request.id;
    response.opcode = Opcode::kIngest;
    try {
      const Dataset batch = request.ingest_dataset();
      const serve::IngestStats stats =
          durable ? durable->ingest(batch) : engine.ingest(batch);
      if (durable) engine.note_published(stats.published_version);
      response.published_version = stats.published_version;
      response.batch_rows = stats.batch_rows;
    } catch (const std::exception& e) {
      response.status = Status::kError;
      response.error = e.what();
    }
    return response;
  }

  Response handle_admin(const Request& request) {
    Response response;
    response.id = request.id;
    response.opcode = request.opcode;
    switch (request.opcode) {
      case Opcode::kVersion:
        response.served_version = engine.store().version();
        response.durable_version =
            durable ? durable->last_durable_version() : 0;
        break;
      case Opcode::kStats: {
        response.served_version = engine.store().version();
        const serve::CacheStats cache = engine.cache_stats();
        response.cache_hits = cache.hits;
        response.cache_misses = cache.misses;
        const AdmissionStats adm = admission.stats();
        response.admitted = adm.total_admitted();
        response.rejected = adm.total_rejected();
        break;
      }
      case Opcode::kFlush:
        try {
          response.flushed = durable ? durable->flush() : true;
        } catch (const std::exception& e) {
          response.status = Status::kError;
          response.error = e.what();
          break;
        }
        response.served_version = engine.store().version();
        response.durable_version =
            durable ? durable->last_durable_version() : 0;
        break;
      case Opcode::kLearn: {
        // The learn job runs right here on the admin dispatcher thread with
        // its own (clamped) pool — strict admin FIFO means one learn at a
        // time, bounded by admission's admin queue, while the interactive
        // dispatcher keeps answering queries from the snapshot unimpeded.
        try {
          serve::LearnRequest job = request.learn;
          job.threads = std::max<std::size_t>(
              1, std::min(job.threads, options.learn_max_threads));
          const serve::LearnedStructure learned = engine.learn_structure(job);
          response.version = learned.version;
          response.learn_nodes = learned.nodes;
          response.learn_ci_tests = learned.ci_tests;
          response.learn_seconds = learned.seconds;
          response.learn_skeleton = learned.skeleton_edges;
          response.learn_edges = learned.directed_edges;
        } catch (const std::exception& e) {
          response.status = Status::kError;
          response.error = e.what();
        }
        break;
      }
      default:
        response.status = Status::kBadRequest;
        response.error = "not an admin opcode";
        break;
    }
    return response;
  }
};

template <typename K>
BasicServeServer<K>::BasicServeServer(Engine& engine, ThreadPool& pool,
                                      ServerOptions options, Durable* durable)
    : impl_(std::make_unique<Impl>(engine, pool, std::move(options),
                                   durable)) {}

template <typename K>
BasicServeServer<K>::~BasicServeServer() {
  impl_->stop();
}

template <typename K>
void BasicServeServer<K>::start() {
  impl_->start();
}

template <typename K>
void BasicServeServer<K>::stop() {
  impl_->stop();
}

template <typename K>
std::uint16_t BasicServeServer<K>::port() const noexcept {
  return impl_->bound_port;
}

template <typename K>
ServerStats BasicServeServer<K>::stats() const {
  ServerStats out;
  out.connections_accepted = impl_->accepted.load(std::memory_order_relaxed);
  out.connections_closed = impl_->closed.load(std::memory_order_relaxed);
  out.connections_failed = impl_->failed.load(std::memory_order_relaxed);
  out.requests_decoded = impl_->decoded.load(std::memory_order_relaxed);
  out.responses_sent = impl_->sent.load(std::memory_order_relaxed);
  out.bad_requests = impl_->bad.load(std::memory_order_relaxed);
  out.batches_served = impl_->batches.load(std::memory_order_relaxed);
  out.batched_queries = impl_->batched.load(std::memory_order_relaxed);
  return out;
}

template <typename K>
AdmissionStats BasicServeServer<K>::admission_stats() const {
  return impl_->admission.stats();
}

template <typename K>
const ServerOptions& BasicServeServer<K>::options() const noexcept {
  return impl_->options;
}

template class BasicServeServer<Key>;
template class BasicServeServer<WideKey>;

}  // namespace wfbn::net
