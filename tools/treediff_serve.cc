// treediff_serve: the DiffService behind the binary-protocol TCP server.
//
// The server (src/net) listens on --port (default 0 = ephemeral) and speaks
// the length-prefixed protocol of docs/network.md: pipelining, multi-tenant
// fair-share admission, and a Prometheus /metrics endpoint on
// --metrics-port (default 0 = ephemeral). Once bound it prints
//
//   treediff_serve: listening on HOST:PORT (metrics :MPORT)
//
// to stderr. Every serving verb is a wire opcode: kDiff, kVdiff, kOpen
// (in-memory, or an n-replica group whose logs go under --store-dir),
// kCommit, kStatus, kMetrics and kPing. tools/treediff_client drives each
// one from the shell.
//
// SIGTERM (or SIGINT) triggers a graceful shutdown: the acceptor stops,
// in-flight requests drain up to --drain seconds, whatever is still queued
// is answered with an error response, then the process exits 0. Standard
// input is never read, so a closed stdin does not stop the server.
//
// Usage: treediff_serve [--threads N] [--queue N] [--deadline SECONDS]
//                        [--store-dir DIR] [--port N] [--metrics-port N]
//                        [--net-threads N] [--drain SECONDS] [--no-stdin]
//
// --threads and --net-threads each take 1 to 256; any other value is
// rejected with the usage text and exit status 2.
//
// The server serves the way every DiffService does, under the one diff
// rule that commits and the commit log use: the share-map pre-pass prunes
// unchanged subtrees out of every diff, a repeated diff of the same
// document pair is answered from the diff cache of finished answers, and
// adjacent version diffs (kVdiff) are answered straight from the store's
// commit log.
//
// --no-stdin is accepted and ignored, so existing command lines that pass
// it keep working.

#include <pthread.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/server.h"
#include "service/diff_service.h"

namespace {

constexpr char kUsage[] =
    "usage: treediff_serve [--threads N] [--queue N] [--deadline SECONDS] "
    "[--store-dir DIR] [--port N] [--metrics-port N] [--net-threads N] "
    "[--drain SECONDS] [--no-stdin]\n";

/// Most worker or event threads a flag may ask for: each is an OS thread
/// started at once, so a typo must not start millions of them.
constexpr long kMaxThreads = 256;

/// Strict base-10 integer in [lo, hi]. std::atoi silently maps garbage to
/// 0, which would turn a typo into a plausible setting.
bool ParseInt(const char* text, long lo, long hi, long* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// A non-negative number of seconds.
bool ParseSeconds(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !(v >= 0)) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  treediff::DiffServiceOptions options;
  treediff::net::NetServerOptions net;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-stdin") continue;  // Accepted no-op; see above.
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    long n = 0;
    bool ok = true;
    if (arg == "--threads") {
      ok = ParseInt(v, 1, kMaxThreads, &n);
      options.num_threads = static_cast<int>(n);
    } else if (arg == "--queue") {
      ok = ParseInt(v, 1, INT_MAX, &n);
      options.queue_capacity = static_cast<size_t>(n);
    } else if (arg == "--deadline") {
      ok = ParseSeconds(v, &options.default_deadline_seconds);
    } else if (arg == "--store-dir") {
      ok = v != nullptr && *v != '\0';
      if (ok) net.store_dir = v;
    } else if (arg == "--port") {
      ok = ParseInt(v, 0, 65535, &n);
      net.port = static_cast<uint16_t>(n);
    } else if (arg == "--metrics-port") {
      ok = ParseInt(v, 0, 65535, &n);
      net.metrics_port = static_cast<uint16_t>(n);
    } else if (arg == "--net-threads") {
      ok = ParseInt(v, 1, kMaxThreads, &n);
      net.num_event_threads = static_cast<int>(n);
    } else if (arg == "--drain") {
      ok = ParseSeconds(v, &net.drain_deadline_seconds);
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "treediff_serve: bad value for %s\n%s",
                   arg.c_str(), kUsage);
      return 2;
    }
  }

  // SIGTERM/SIGINT stay blocked in every thread (the service and server
  // threads inherit this mask) and are collected by sigwait below, so the
  // graceful drain always runs on the main thread.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  treediff::DiffService service(options);
  treediff::net::NetServer server(&service, net);
  const treediff::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "treediff_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "treediff_serve: listening on %s:%u (metrics :%u)\n",
               net.host.c_str(), server.port(), server.metrics_port());

  int received = 0;
  while (sigwait(&stop_signals, &received) != 0) {
  }

  // Graceful shutdown: stop accepting, drain in-flight requests up to the
  // drain deadline (late ones get error responses, not silence), then stop
  // the service pool.
  std::fprintf(stderr, "treediff_serve: draining\n");
  server.Shutdown();
  service.Shutdown();
  return 0;
}
