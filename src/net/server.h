#ifndef TREEDIFF_NET_SERVER_H_
#define TREEDIFF_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admission.h"
#include "net/event_loop.h"
#include "net/frontend.h"
#include "net/http_metrics.h"
#include "net/wire.h"
#include "service/diff_service.h"
#include "util/mutex.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace treediff {
namespace net {

struct NetServerOptions {
  std::string host = "127.0.0.1";

  /// Binary-protocol port; 0 binds an ephemeral port (read it back with
  /// port()).
  uint16_t port = 0;

  /// HTTP /metrics text endpoint on its own port (0 = ephemeral).
  bool enable_metrics_endpoint = true;
  uint16_t metrics_port = 0;

  /// Event-loop (reactor) threads. Connections are assigned round-robin
  /// at accept and stay on their loop for life.
  int num_event_threads = 2;

  /// Ceiling on one request frame's payload; a larger declared length is
  /// a fatal protocol error before any payload is buffered.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-connection write-buffer flow control: once this many encoded
  /// response bytes are waiting on a connection, the server stops reading
  /// (and decoding) from it until the client drains below half the cap.
  /// A slow reader throttles itself, never the event loop or other
  /// connections.
  size_t write_buffer_limit = 4u << 20;

  /// Most decoded-but-unanswered requests per connection; at the cap the
  /// connection's stream pauses (frames stay in the kernel buffer) until
  /// responses complete. Pipelining depth, bounded.
  size_t max_pipeline = 128;

  /// Most simultaneous connections; beyond it new accepts are closed
  /// immediately.
  size_t max_connections = 8192;

  /// Graceful shutdown budget: how long Shutdown() lets admitted requests
  /// finish before cancelling whatever is still queued (each cancelled
  /// request gets an error response, not silence).
  double drain_deadline_seconds = 5.0;

  /// Directory for the replica logs of a replicated kOpen.
  std::string store_dir = ".";

  /// Multi-tenant admission (quotas + DRR fair share) ahead of the
  /// DiffService pool. `max_dispatched` should stay at or below the
  /// service's queue capacity so admitted work is never shed by the pool.
  TenantSchedulerOptions admission;
};

/// The network front end: an edge-triggered epoll TCP server speaking the
/// length-prefixed binary protocol (net/wire.h) with request pipelining,
/// per-connection write-buffer flow control, weighted-fair multi-tenant
/// admission, and an HTTP /metrics exposition endpoint — the serving skin
/// over an existing DiffService.
///
/// Wiring: one listener socket on loop 0, N event-loop threads owning
/// connections round-robin; decoded frames pass the TenantScheduler
/// (quotas + deficit-round-robin fair share) and ride the DiffService's
/// async Submit path; completions post the encoded response back to the
/// connection's loop, which writes it out under flow control.
///
/// Counters land in the DiffService's MetricsRegistry under net_*.
class NetServer {
 public:
  /// `service` is borrowed and must outlive the server.
  NetServer(DiffService* service, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, registers the listener, spawns event threads and the metrics
  /// endpoint. Call once.
  Status Start();

  /// Bound binary-protocol / metrics ports (valid after Start).
  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }

  /// Graceful shutdown: stops the acceptor, rejects frames that arrive
  /// while draining (with kUnavailable error responses), lets admitted
  /// requests finish for up to drain_deadline_seconds, cancels the rest
  /// with error responses, flushes what the sockets will take, then
  /// closes. Idempotent; also run by the destructor.
  void Shutdown();

  /// Connections currently open. For tests and status surfaces.
  size_t active_connections() const EXCLUDES(conns_mu_);

 private:
  struct Connection;

  void AcceptReady();
  void SetupConnection(int fd);  // Runs on the owning loop.
  void HandleConnEvent(const std::shared_ptr<Connection>& conn,
                       uint32_t events);
  void ReadReady(const std::shared_ptr<Connection>& conn);
  void ProcessFrames(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   WireRequest request);
  void QueueResponse(const std::shared_ptr<Connection>& conn,
                     const WireResponse& response);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void MaybeResume(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  /// Posts the encoded response to the connection's loop; drops it (with a
  /// counter) if the connection died first.
  void CompleteRequest(const std::weak_ptr<Connection>& weak,
                       WireResponse response);

  DiffService* service_;
  NetServerOptions options_;

  ThreadPool control_pool_;
  std::unique_ptr<TenantScheduler> scheduler_;
  std::unique_ptr<Frontend> frontend_;
  std::unique_ptr<MetricsHttpServer> metrics_http_;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> loop_threads_;
  std::atomic<size_t> next_loop_{0};

  OwnedFd listener_;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shut_down_{false};

  /// Connections with responses still waiting in their write buffer —
  /// read by Shutdown's flush wait from outside the loop threads.
  std::atomic<size_t> conns_with_pending_writes_{0};

  mutable Mutex conns_mu_;
  std::map<int, std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  // Hot-path metric handles (service registry; recording is atomics).
  Counter* accepted_ = nullptr;
  Counter* closed_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* frames_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* responses_ = nullptr;
  Counter* responses_dropped_ = nullptr;
  Counter* flow_pauses_ = nullptr;
  Counter* pipeline_pauses_ = nullptr;
  Counter* drain_rejects_ = nullptr;
  Histogram* request_seconds_ = nullptr;
};

}  // namespace net
}  // namespace treediff

#endif  // TREEDIFF_NET_SERVER_H_
