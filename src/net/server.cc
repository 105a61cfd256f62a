#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

namespace treediff {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// The control-operation pool (open/commit/metrics/status): one thread,
/// up to 64 queued operations.
constexpr int kControlThreads = 1;
constexpr size_t kControlQueue = 64;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

/// Per-connection state. Owned by exactly one event loop; every field is
/// touched only on that loop's thread (completions cross threads as posted
/// tasks, never as direct field access).
struct NetServer::Connection
    : public std::enable_shared_from_this<Connection> {
  int fd = -1;
  EventLoop* loop = nullptr;

  FrameDecoder decoder;
  std::string out;       // Encoded responses waiting for the socket.
  size_t out_pos = 0;    // Bytes of `out` already written.
  size_t inflight = 0;   // Decoded frames without a queued response yet.

  bool want_write = false;     // EPOLLOUT armed.
  bool write_paused = false;   // Flow control: output backlog over cap.
  bool pipeline_paused = false;  // Pipelining depth at cap.
  bool peer_closed = false;    // Read EOF; close once drained.
  bool close_after_flush = false;  // Fatal protocol error pending.
  bool counted_pending = false;    // In conns_with_pending_writes_.
  bool closed = false;

  Connection(int fd_in, EventLoop* loop_in, size_t max_frame)
      : fd(fd_in), loop(loop_in), decoder(max_frame) {}

  bool CanProcess() const {
    return !closed && !write_paused && !pipeline_paused &&
           !close_after_flush;
  }
};

NetServer::NetServer(DiffService* service, NetServerOptions options)
    : service_(service),
      options_(std::move(options)),
      control_pool_(ThreadPool::Options{kControlThreads, kControlQueue}) {
  scheduler_ = std::make_unique<TenantScheduler>(options_.admission,
                                                 &service_->metrics());
  frontend_ = std::make_unique<Frontend>(service_, &control_pool_,
                                         options_.store_dir);

  MetricsRegistry& m = service_->metrics();
  accepted_ = m.counter("net_connections_accepted_total");
  closed_ = m.counter("net_connections_closed_total");
  rejected_ = m.counter("net_connections_rejected_total");
  frames_ = m.counter("net_frames_total");
  protocol_errors_ = m.counter("net_protocol_errors_total");
  responses_ = m.counter("net_responses_total");
  responses_dropped_ = m.counter("net_responses_dropped_total");
  flow_pauses_ = m.counter("net_flow_control_pauses_total");
  pipeline_pauses_ = m.counter("net_pipeline_pauses_total");
  drain_rejects_ = m.counter("net_drain_rejected_total");
  request_seconds_ = m.histogram("net_request_seconds");
}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("NetServer::Start called twice");
  }

  StatusOr<OwnedFd> listener = ListenTcp(options_.host, options_.port, 512);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  Status nonblocking = SetNonBlocking(listener_.get());
  if (!nonblocking.ok()) return nonblocking;
  StatusOr<uint16_t> port = LocalPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = *port;

  const int n = std::max(options_.num_event_threads, 1);
  loops_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto loop = std::make_unique<EventLoop>();
    Status init = loop->Init();
    if (!init.ok()) return init;
    loops_.push_back(std::move(loop));
  }

  // The listener lives on loop 0. Registering before the threads spawn is
  // safe: epoll_ctl is thread-independent, and no event fires until Run().
  Status add = loops_[0]->Add(listener_.get(), EPOLLIN,
                              [this](uint32_t) { AcceptReady(); });
  if (!add.ok()) return add;

  for (auto& loop : loops_) {
    loop_threads_.emplace_back([raw = loop.get()] { raw->Run(); });
  }

  if (options_.enable_metrics_endpoint) {
    metrics_http_ = std::make_unique<MetricsHttpServer>(
        &service_->metrics(),
        MetricsHttpServer::Options{options_.host, options_.metrics_port});
    Status started = metrics_http_->Start();
    if (!started.ok()) return started;
    metrics_port_ = metrics_http_->port();
  }
  return Status::Ok();
}

void NetServer::AcceptReady() {
  // Edge-triggered: accept until EAGAIN or the listener is gone.
  for (;;) {
    const int fd =
        ::accept4(listener_.get(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener closed under drain.
    }
    if (draining_.load(std::memory_order_relaxed) ||
        active_connections() >= options_.max_connections) {
      rejected_->Increment();
      (void)::close(fd);
      continue;
    }
    SetNoDelay(fd).IgnoreError();
    accepted_->Increment();
    EventLoop* target =
        loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
               loops_.size()]
            .get();
    target->Post([this, fd] { SetupConnection(fd); });
  }
}

void NetServer::SetupConnection(int fd) {
  EventLoop* loop = nullptr;
  for (auto& candidate : loops_) {
    if (candidate->OnLoopThread()) {
      loop = candidate.get();
      break;
    }
  }
  auto conn = std::make_shared<Connection>(fd, loop, options_.max_frame_bytes);
  {
    MutexLock lock(&conns_mu_);
    conns_[fd] = conn;
  }
  std::weak_ptr<Connection> weak = conn;
  const Status added =
      conn->loop->Add(fd, EPOLLIN, [this, weak](uint32_t events) {
        if (std::shared_ptr<Connection> c = weak.lock()) {
          HandleConnEvent(c, events);
        }
      });
  if (!added.ok()) CloseConnection(conn);
}

void NetServer::HandleConnEvent(const std::shared_ptr<Connection>& conn,
                                uint32_t events) {
  if (conn->closed) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConnection(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) FlushWrites(conn);
  if ((events & EPOLLIN) != 0) ReadReady(conn);
}

void NetServer::ReadReady(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  // Flow control: while paused the socket is left unread, so the kernel
  // buffer fills and TCP backpressure reaches the client. MaybeResume
  // re-runs this read when the pause lifts (the edge was consumed here).
  if (conn->write_paused || conn->pipeline_paused) return;

  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      conn->decoder.Append(buf, static_cast<size_t>(n));
      // Decode between reads: a pause tripped mid-buffer must stop the
      // socket drain too, and answering early overlaps compute with I/O.
      ProcessFrames(conn);
      if (conn->closed || conn->write_paused || conn->pipeline_paused) {
        return;
      }
      continue;
    }
    if (n == 0) {
      // FIN. Serve what was pipelined, then close once drained.
      conn->peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }
  ProcessFrames(conn);
  if (!conn->closed && conn->peer_closed && conn->inflight == 0 &&
      conn->out_pos == conn->out.size()) {
    CloseConnection(conn);
  }
}

void NetServer::ProcessFrames(const std::shared_ptr<Connection>& conn) {
  while (conn->CanProcess()) {
    WireRequest request;
    Status error = Status::Ok();
    const DecodeResult result = conn->decoder.NextRequest(&request, &error);
    if (result == DecodeResult::kNeedMore) return;
    if (result == DecodeResult::kFrame) {
      frames_->Increment();
      HandleFrame(conn, std::move(request));
      continue;
    }
    protocol_errors_->Increment();
    // Both error tiers answer with an error frame; only a broken outer
    // framing (kError) poisons the stream and closes the connection.
    QueueResponse(conn, Frontend::ErrorResponse(request, error));
    if (result == DecodeResult::kError) {
      conn->close_after_flush = true;
      FlushWrites(conn);
      return;
    }
  }
}

void NetServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            WireRequest request) {
  if (draining_.load(std::memory_order_relaxed)) {
    drain_rejects_->Increment();
    QueueResponse(conn,
                  Frontend::ErrorResponse(
                      request, Status::Unavailable(
                                   "server draining: request rejected")));
    return;
  }

  // Correlation header the completion paths need after `request` moves.
  WireRequest header;
  header.opcode = request.opcode;
  header.request_id = request.request_id;
  const std::string tenant = request.tenant;

  ++conn->inflight;
  if (conn->inflight >= options_.max_pipeline && !conn->pipeline_paused) {
    conn->pipeline_paused = true;
    pipeline_pauses_->Increment();
  }

  std::weak_ptr<Connection> weak = conn;
  const Clock::time_point started = Clock::now();

  auto run = [this, weak, started, request = std::move(request)](
                 TenantScheduler::Done done) mutable {
    frontend_->Execute(
        std::move(request),
        [this, weak, started, done = std::move(done)](WireResponse response) {
          request_seconds_->Observe(Seconds(Clock::now() - started));
          CompleteRequest(weak, std::move(response));
          done();
        });
  };
  auto cancel = [this, weak, header](const Status& reason) {
    CompleteRequest(weak, Frontend::ErrorResponse(header, reason));
  };

  const Status admitted =
      scheduler_->Enqueue(tenant, std::move(run), std::move(cancel));
  if (!admitted.ok()) {
    // Shed at admission: answer inline (we are on the loop thread).
    --conn->inflight;
    MaybeResume(conn);
    QueueResponse(conn, Frontend::ErrorResponse(header, admitted));
  }
}

void NetServer::CompleteRequest(const std::weak_ptr<Connection>& weak,
                                WireResponse response) {
  // Encode off the loop thread (we may be on a worker): the loop task
  // just splices bytes and flushes.
  std::string encoded = EncodeResponse(response);
  std::shared_ptr<Connection> conn = weak.lock();
  if (conn == nullptr) {
    responses_dropped_->Increment();
    return;
  }
  EventLoop* loop = conn->loop;
  conn.reset();  // The task owns liveness; don't pin from here.
  loop->Post([this, weak, encoded = std::move(encoded)]() mutable {
    std::shared_ptr<Connection> c = weak.lock();
    if (c == nullptr || c->closed) {
      responses_dropped_->Increment();
      return;
    }
    --c->inflight;
    responses_->Increment();
    c->out += encoded;
    FlushWrites(c);
    if (c->closed) return;
    const size_t pending = c->out.size() - c->out_pos;
    if (pending > options_.write_buffer_limit && !c->write_paused) {
      c->write_paused = true;
      flow_pauses_->Increment();
    }
    MaybeResume(c);
    if (c->peer_closed && c->inflight == 0 &&
        c->out_pos == c->out.size()) {
      CloseConnection(c);
    }
  });
}

void NetServer::QueueResponse(const std::shared_ptr<Connection>& conn,
                              const WireResponse& response) {
  if (conn->closed) {
    responses_dropped_->Increment();
    return;
  }
  responses_->Increment();
  AppendResponse(response, &conn->out);
  FlushWrites(conn);
  if (conn->closed) return;
  const size_t pending = conn->out.size() - conn->out_pos;
  if (pending > options_.write_buffer_limit && !conn->write_paused) {
    conn->write_paused = true;
    flow_pauses_->Increment();
  }
}

void NetServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_pos,
                              conn->out.size() - conn->out_pos);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        conn->loop->Mod(conn->fd, EPOLLIN | EPOLLOUT).IgnoreError();
      }
      break;
    }
    CloseConnection(conn);  // EPIPE/ECONNRESET and friends.
    return;
  }

  const size_t pending = conn->out.size() - conn->out_pos;
  if (pending == 0) {
    conn->out.clear();
    conn->out_pos = 0;
    if (conn->want_write) {
      conn->want_write = false;
      conn->loop->Mod(conn->fd, EPOLLIN).IgnoreError();
    }
    if (conn->close_after_flush) {
      CloseConnection(conn);
      return;
    }
  } else if (conn->out_pos > (1u << 20) &&
             conn->out_pos * 2 > conn->out.size()) {
    // Reclaim the written prefix once it dominates the buffer.
    conn->out.erase(0, conn->out_pos);
    conn->out_pos = 0;
  }

  // Track "has unflushed bytes" for Shutdown's flush wait.
  const bool has_pending = conn->out_pos < conn->out.size();
  if (has_pending != conn->counted_pending) {
    conn->counted_pending = has_pending;
    if (has_pending) {
      conns_with_pending_writes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      conns_with_pending_writes_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Flow-control resume at the low watermark (half the cap), so resume
  // doesn't flap on every write.
  if (conn->write_paused && pending < options_.write_buffer_limit / 2) {
    conn->write_paused = false;
    MaybeResume(conn);
  }
}

void NetServer::MaybeResume(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  if (conn->pipeline_paused &&
      conn->inflight < options_.max_pipeline) {
    conn->pipeline_paused = false;
  }
  if (!conn->CanProcess()) return;
  // Frames already buffered first, then the socket: the read edge that
  // arrived while paused was consumed without a read, so poll the fd once.
  ProcessFrames(conn);
  if (conn->CanProcess()) ReadReady(conn);
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->counted_pending) {
    conn->counted_pending = false;
    conns_with_pending_writes_.fetch_sub(1, std::memory_order_relaxed);
  }
  conn->loop->Del(conn->fd);
  // Unmap before close: once closed, the fd number can be reused by the
  // next accept, and erasing after that would drop the new connection.
  {
    MutexLock lock(&conns_mu_);
    conns_.erase(conn->fd);
  }
  (void)::close(conn->fd);
  closed_->Increment();
}

size_t NetServer::active_connections() const {
  MutexLock lock(&conns_mu_);
  return conns_.size();
}

void NetServer::Shutdown() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (shut_down_.exchange(true)) return;

  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          std::max(options_.drain_deadline_seconds, 0.0)));

  // 1. Stop the acceptor: no new connections, and frames arriving on
  //    existing connections are now answered with kUnavailable errors.
  draining_.store(true, std::memory_order_relaxed);
  {
    // Deregister + close the listener on its loop so the acceptor handler
    // can never race the close.
    std::promise<void> done;
    loops_[0]->Post([this, &done] {
      loops_[0]->Del(listener_.get());
      listener_.Reset();
      done.set_value();
    });
    done.get_future().wait();
  }

  // 2. Let admitted requests finish, up to the deadline.
  scheduler_->Drain();
  const double wait = Seconds(deadline - Clock::now());
  if (!scheduler_->AwaitIdle(std::max(wait, 0.0))) {
    // 3. Deadline hit: everything still *queued* is cancelled — each job's
    //    cancel path emits an error response, so no admitted request goes
    //    dark. Already-dispatched requests are on service workers and
    //    bounded by per-request budgets; give them a short grace.
    scheduler_->CancelQueued(
        Status::Unavailable("server shutting down: request cancelled"));
    (void)scheduler_->AwaitIdle(2.0);
  }

  // 4. Flush what the sockets will take (responses queued by step 2/3 are
  //    posted tasks; loops are still running and execute them in order).
  const Clock::time_point flush_until =
      std::max(deadline, Clock::now() + std::chrono::milliseconds(200));
  while (conns_with_pending_writes_.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < flush_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 5. Close every connection on its own loop, then stop the loops.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(&conns_mu_);
    for (auto& [fd, conn] : conns_) conns.push_back(conn);
  }
  for (auto& conn : conns) {
    std::promise<void> done;
    conn->loop->Post([this, conn, &done] {
      CloseConnection(conn);
      done.set_value();
    });
    done.get_future().wait();
  }
  for (auto& loop : loops_) loop->Stop();
  for (auto& thread : loop_threads_) {
    if (thread.joinable()) thread.join();
  }

  if (metrics_http_ != nullptr) metrics_http_->Stop();
  control_pool_.Shutdown();
}

}  // namespace net
}  // namespace treediff
