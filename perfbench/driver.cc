// perfbench driver: the wire benchmark of the deployed treediff_serve.
//
// One invocation measures one workload for one seed:
//
//   perfbench_driver --server PATH --workload unique|hot-pairs|chain
//                    --seed N --seconds S --trace 0|1
//
// It launches the real server binary as a child with its deployed flags,
// drives it over loopback from this single thread (at most 4 connections),
// reads the server's cost from outside the process (/proc/<pid>/stat CPU,
// /proc/<pid>/status VmHWM, the kMetrics counters), verifies a sample of the
// answers on a fresh server, and prints one JSON result line. With --trace 1
// it also replays the same inputs in-process, timing the public entry point
// of every layer, and prints the per-layer metrics instead. NOTES.md in this
// directory explains the workloads, the metrics and their normalisation.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/diff.h"
#include "core/diff_context.h"
#include "core/matcher.h"
#include "core/post_process.h"
#include "core/script_io.h"
#include "core/share_map.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "gen/vocab.h"
#include "net/client.h"
#include "net/wire.h"
#include "service/diff_service.h"
#include "service/tree_cache.h"
#include "store/version_store.h"
#include "tree/builder.h"
#include "tree/tree_index.h"
#include "util/random.h"
#include "util/socket.h"

namespace {

using namespace treediff;
using net::Opcode;
using net::WireRequest;
using net::WireResponse;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload shape. Every constant here is part of the benchmark definition:
// changing one changes what the benchmark measures.

constexpr int kServerThreads = 2;      // --threads of the deployed server.
constexpr int kServerNetThreads = 1;   // --net-threads.
constexpr int kSetupRepeats = 7;       // setup_s is the median of these.
constexpr int kCheckSamples = 24;      // Responses re-verified per run.
constexpr int kPingProbes = 200;
// peak_rss_mb is the server's VmHWM once the timed phase has completed this
// many requests: a fixed amount of work, so a faster server is not charged
// for the extra chain stores it opens by doing more work in the window.
constexpr uint64_t kRssAfterUnique = 4000;
constexpr uint64_t kRssAfterHot = 20000;
constexpr uint64_t kRssAfterChain = 600;  // Past 4 doc rotations.

// unique / hot-pairs: 4-section Section 8 documents, paper edit mix.
constexpr int kPairSections = 4;
constexpr int kPairEdits = 6;
constexpr int kHotPairs = 32;
constexpr int kUniquePool = 256;       // Base pairs behind the unique stream.
constexpr int kUniqueConnections = 2;
constexpr int kUniquePipeline = 1;
constexpr int kHotConnections = 2;
constexpr int kHotPipeline = 4;
constexpr int kUniqueReplay = 200;     // Traced requests after warm-up.
constexpr int kHotReplay = 200;

// chain: 64-section documents, 1%-edit versions.
constexpr int kChainSections = 64;
constexpr double kChainEditRate = 0.01;
constexpr int kChainPreload = 7;       // Commits before a doc takes reads.
constexpr int kChainVersions = 40;     // Commits per doc_id before rotation.
constexpr int kChainDocs = 4;          // Distinct documents; doc_id r uses r % 4.
constexpr int kChainMaxBack = 8;       // k in kVdiff(v - k, v) is 1..8.
constexpr int kChainReadsPerCommit = 3;
constexpr int kChainWriterLead = 2;    // Versions the writer may run ahead.

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void KillLiveServer();

/// Reports a failed run: no result line, the live server killed, exit 1.
[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", message.c_str());
  std::fflush(stdout);
  KillLiveServer();
  std::_Exit(1);
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

EditMix PaperEditMix() {
  EditMix mix;
  mix.update_sentence = 0.32;
  mix.insert_sentence = 0.13;
  mix.delete_sentence = 0.13;
  mix.move_sentence = 0.08;
  mix.move_paragraph = 0.14;
  mix.insert_paragraph = 0.04;
  mix.delete_paragraph = 0.04;
  mix.move_section = 0.12;
  return mix;
}

const Vocabulary& Vocab() {
  static const Vocabulary vocab(3000, 1.0);
  return vocab;
}

struct Pair {
  std::string old_doc;
  std::string new_doc;
  uint32_t intended_ops = 0;  // Edit operations the simulator applied.
};

/// Pair `index` of a seed's pair stream: a fresh 4-section document and a
/// 6-edit version of it. Pure in (seed, index), so any pair can be rebuilt.
Pair MakePair(uint64_t seed, uint64_t index) {
  Rng rng(Mix(seed, index));
  DocGenParams params;
  params.sections = kPairSections;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  Tree base = GenerateDocument(params, Vocab(), &rng);
  SimulatedVersion next =
      SimulateNewVersion(base, kPairEdits, PaperEditMix(), Vocab(), &rng);
  return {base.ToDebugString(), next.new_tree.ToDebugString(),
          static_cast<uint32_t>(next.intended_ops)};
}

/// Request `index` of the unique stream: pool pair index % pool size with
/// the request index written into the root value of both documents. The
/// texts (and so the server's content fingerprints) are never seen before;
/// the diff is the pool pair's, since equal root values cost no operation.
Pair TagPair(const std::vector<Pair>& pool, uint64_t index) {
  const Pair& base = pool[index % pool.size()];
  static const std::string kRoot = "(document ";
  if (base.old_doc.rfind(kRoot, 0) != 0 || base.new_doc.rfind(kRoot, 0) != 0) {
    Fail("generated document does not start with " + kRoot);
  }
  const std::string tag = "(document \"request " + std::to_string(index) +
                          "\" ";
  return {tag + base.old_doc.substr(kRoot.size()),
          tag + base.new_doc.substr(kRoot.size()), base.intended_ops};
}

/// One chain document: texts[0] is the base, texts[v] the v-th committed
/// version, intended_ops[v] the edit operations that produced it.
struct Chain {
  std::vector<std::string> texts;
  std::vector<uint32_t> intended_ops;
};

Chain MakeChain(uint64_t seed, int doc) {
  Rng rng(Mix(seed, 0xC4A1 + static_cast<uint64_t>(doc)));
  DocGenParams params;
  params.sections = kChainSections;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  params.duplicate_sentence_probability = 0.1;
  Tree tree = GenerateDocument(params, Vocab(), &rng);
  const int edits = std::max(
      1, static_cast<int>(kChainEditRate *
                          static_cast<double>(tree.Leaves().size())));
  Chain chain;
  chain.texts.push_back(tree.ToDebugString());
  chain.intended_ops.push_back(0);
  for (int v = 1; v <= kChainVersions; ++v) {
    SimulatedVersion next =
        SimulateNewVersion(tree, edits, PaperEditMix(), Vocab(), &rng);
    tree = std::move(next.new_tree);
    chain.texts.push_back(tree.ToDebugString());
    chain.intended_ops.push_back(static_cast<uint32_t>(next.intended_ops));
  }
  return chain;
}

/// k of the j-th read of version v: pure in (seed, v, j), so the live run,
/// the check pass and the replay draw the same reads.
int ChainBack(uint64_t seed, int version, int j) {
  return 1 + static_cast<int>(
                 Mix(Mix(seed, 0xBAC4), static_cast<uint64_t>(version * 8 + j)) %
                 kChainMaxBack);
}

std::string ChainDocId(int rotation) {
  return "chain-" + std::to_string(rotation);
}

// ---------------------------------------------------------------------------
// Host and process probes.

/// CPU seconds a process has used, all threads: the kernel counter behind
/// utime + stime in /proc/<pid>/stat, read in nanoseconds instead of clock
/// ticks so a set-up of a few milliseconds can be measured.
double ProcessCpuSeconds(pid_t pid) {
  clockid_t clock;
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
    Fail("cannot read the server's CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcessHwmMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("no VmHWM in /proc/<pid>/status");
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

struct HostCpu {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu host;
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    in >> v;
    host.total += v;
    if (i == 7) host.steal = v;
  }
  return host;
}

/// A fixed CPU kernel owned by the benchmark: the same instructions on every
/// run, so its time tracks how much CPU the host is giving this process.
double CalibrationMs() {
  const double start = Now();
  uint64_t acc = 1;
  for (uint64_t i = 0; i < 4'000'000; ++i) acc = Mix(acc, i);
  const double ms = (Now() - start) * 1e3;
  if (acc == 42) std::fprintf(stderr, " ");  // Keeps the loop observable.
  return ms;
}

// ---------------------------------------------------------------------------
// The server child process.

class ServerProcess {
 public:
  /// Spawns the server with its deployed flags and waits for the port line.
  void Start(const std::string& binary) {
    port_ = 0;
    int err_pipe[2];
    if (pipe(err_pipe) != 0) Fail("pipe failed");
    pid_ = fork();
    if (pid_ < 0) Fail("fork failed");
    if (pid_ == 0) {
      const int devnull = open("/dev/null", O_RDWR);
      dup2(devnull, 0);
      dup2(devnull, 1);
      dup2(err_pipe[1], 2);
      close(err_pipe[0]);
      close(err_pipe[1]);
      const std::string threads = std::to_string(kServerThreads);
      const std::string net_threads = std::to_string(kServerNetThreads);
      execl(binary.c_str(), binary.c_str(), "--threads", threads.c_str(),
            "--net-threads", net_threads.c_str(), "--port", "0",
            "--no-stdin", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(err_pipe[1]);
    err_fd_ = err_pipe[0];
    std::string text;
    const double deadline = Now() + 30.0;
    while (port_ == 0) {
      pollfd p{err_fd_, POLLIN, 0};
      const int wait_ms = static_cast<int>((deadline - Now()) * 1e3);
      if (wait_ms <= 0 || poll(&p, 1, wait_ms) <= 0) {
        Fail("server did not report its port");
      }
      char buf[512];
      const ssize_t n = read(err_fd_, buf, sizeof buf);
      if (n <= 0) Fail("server exited before listening: " + text);
      text.append(buf, static_cast<size_t>(n));
      const size_t at = text.find("listening on ");
      const size_t nl = at == std::string::npos ? at : text.find('\n', at);
      if (nl != std::string::npos) {
        const size_t colon = text.rfind(':', text.find(" (metrics", at));
        port_ = static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
        if (port_ == 0) Fail("cannot parse server port from: " + text);
      }
    }
  }

  /// SIGTERM, then waits for the graceful drain; the exit status must be 0.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = Now() + 30.0;
    for (;;) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (Now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        Fail("server did not exit after SIGTERM");
      }
      usleep(2000);
    }
    pid_ = -1;
    close(err_fd_);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Fail("server exit status " + std::to_string(status) +
           " after SIGTERM drain");
    }
  }

  /// Last-resort cleanup on the failure path (no status check).
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
};

ServerProcess* g_live_server = nullptr;

void KillLiveServer() {
  if (g_live_server != nullptr) g_live_server->Kill();
}

net::SimpleClient ConnectControl(uint16_t port) {
  net::SimpleClient client;
  const double deadline = Now() + 10.0;
  for (;;) {
    Status status = client.Connect("127.0.0.1", port);
    if (status.ok()) status = client.Ping();
    if (status.ok()) return client;
    if (Now() > deadline) {
      Fail("server on port " + std::to_string(port) +
           " never answered kPing: " + status.ToString());
    }
    usleep(1000);
  }
}

/// Parses the Prometheus text of kMetrics into name -> value (counters,
/// histogram _sum and _count; bucket lines are skipped).
std::map<std::string, double> ScrapeMetrics(net::SimpleClient* client) {
  std::string text;
  if (!client->Metrics(&text).ok()) Fail("kMetrics failed");
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return values;
}

// ---------------------------------------------------------------------------
// The load engine: one thread, a few non-blocking connections, closed loop.

/// What drives the engine. Next() offers the next request for a connection
/// (false: nothing to send on it right now); Done() sees every response.
class Source {
 public:
  virtual ~Source() = default;
  virtual bool Next(int conn, WireRequest* request, uint64_t* tag) = 0;
  virtual void Done(int conn, uint64_t tag, const WireResponse& response) = 0;
  /// Edit operations the generator applied between the two documents of
  /// diff request `tag` (the base of the ops_per_edit quality metric).
  virtual uint32_t IntendedOps(uint64_t tag) const = 0;
};

bool IsDiff(Opcode op) { return op == Opcode::kDiff || op == Opcode::kVdiff; }

/// Counts of one phase, reported with every run.
struct PhaseCounts {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

/// Timed-window accounting shared by all workloads.
struct Window {
  double t0 = 0.0;
  double t1 = 0.0;
  uint64_t sent_in_window = 0;
  uint64_t ok_in_window = 0;          // Of those sent in the window.
  uint64_t completed = 0;             // Completions inside [t0, t1].
  std::vector<double> read_latency;   // Seconds, reads completed in window.
  std::vector<double> write_latency;  // Seconds, commits completed in window.
  uint64_t ops_sum = 0;
  uint64_t intended_sum = 0;
  uint64_t ops_n = 0;
  uint64_t bytes_in = 0;   // Request frame bytes sent in window.
  uint64_t frames_in = 0;
  uint64_t bytes_out = 0;  // Response frame bytes received in window.
  uint64_t frames_out = 0;
};

class Engine {
 public:
  Engine(uint16_t port, const std::vector<int>& depths) {
    for (int depth : depths) {
      StatusOr<OwnedFd> fd = ConnectTcp("127.0.0.1", port);
      if (!fd.ok()) Fail("connect: " + fd.status().ToString());
      if (!SetNoDelay(fd->get()).ok() || !SetNonBlocking(fd->get()).ok()) {
        Fail("socket options");
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = std::move(*fd);
      conn->depth = depth;
      conns_.push_back(std::move(conn));
    }
  }

  /// Runs until `stop_at` (stop issuing) or until the source has nothing
  /// left and nothing is in flight; then waits out every in-flight response.
  /// `window` (optional) is filled for completions inside [t0, t1];
  /// `on_tick` runs once per loop turn.
  void Run(Source* source, double stop_at, PhaseCounts* counts,
           Window* window, const std::function<void(double)>& on_tick) {
    std::vector<pollfd> fds(conns_.size());
    stop_at_ = stop_at;
    double drain_deadline = 0.0;
    for (;;) {
      double now = Now();
      const bool issuing = now < stop_at;
      if (issuing) {
        for (size_t c = 0; c < conns_.size(); ++c) {
          Issue(source, c, counts, window);
        }
      }
      size_t inflight = 0;
      for (const auto& conn : conns_) inflight += conn->inflight.size();
      // Nothing in flight: either the window closed or the source is
      // exhausted (count-based setup phases).
      if (inflight == 0) return;
      if (!issuing && drain_deadline == 0.0) drain_deadline = now + 60.0;
      if (drain_deadline != 0.0 && now > drain_deadline) {
        Fail("responses lost: " + std::to_string(inflight) +
             " requests never answered");
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        Flush(c);
        fds[c] = {conns_[c]->fd.get(),
                  static_cast<short>(POLLIN | (conns_[c]->out.size() >
                                                       conns_[c]->out_off
                                                   ? POLLOUT
                                                   : 0)),
                  0};
      }
      const int wait_ms =
          issuing ? std::max(1, static_cast<int>((stop_at - now) * 1e3))
                  : 100;
      const int ready = poll(fds.data(), fds.size(), std::min(wait_ms, 100));
      if (ready < 0 && errno != EINTR) Fail("poll failed");
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          Fail("server closed a connection");
        }
        if (fds[c].revents & POLLIN) Read(source, c, counts, window);
      }
      if (on_tick) on_tick(Now());
    }
  }

 private:
  struct InFlight {
    double sent_at = 0.0;
    uint64_t tag = 0;
    bool in_window = false;
  };
  struct Conn {
    OwnedFd fd;
    int depth = 1;
    net::FrameDecoder decoder;
    std::string out;
    size_t out_off = 0;
    std::unordered_map<uint64_t, InFlight> inflight;
  };

  void Issue(Source* source, size_t c, PhaseCounts* counts, Window* window) {
    Conn& conn = *conns_[c];
    while (conn.inflight.size() < static_cast<size_t>(conn.depth) &&
           Now() < stop_at_) {
      WireRequest request;
      uint64_t tag = 0;
      if (!source->Next(static_cast<int>(c), &request, &tag)) return;
      request.request_id = next_id_++;
      const size_t before = conn.out.size();
      net::AppendRequest(request, &conn.out);
      const double sent_at = Now();
      const bool in_window =
          window != nullptr && sent_at >= window->t0 && sent_at < window->t1;
      conn.inflight[request.request_id] = {sent_at, tag, in_window};
      ++counts->sent;
      if (in_window) {
        ++window->sent_in_window;
        window->bytes_in += conn.out.size() - before;
        ++window->frames_in;
      }
      Flush(c);
    }
  }

  void Flush(size_t c) {
    Conn& conn = *conns_[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = send(conn.fd.get(), conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        Fail("send failed");
      }
      conn.out_off += static_cast<size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  void Read(Source* source, size_t c, PhaseCounts* counts, Window* window) {
    Conn& conn = *conns_[c];
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(conn.fd.get(), buf, sizeof buf, 0);
      if (n == 0) Fail("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        Fail("recv failed");
      }
      conn.decoder.Append(buf, static_cast<size_t>(n));
    }
    const double now = Now();
    for (;;) {
      WireResponse response;
      Status error;
      const net::DecodeResult r = conn.decoder.NextResponse(&response, &error);
      if (r == net::DecodeResult::kNeedMore) break;
      if (r != net::DecodeResult::kFrame) {
        Fail("undecodable response: " + error.ToString());
      }
      auto it = conn.inflight.find(response.request_id);
      if (it == conn.inflight.end()) Fail("response for unknown request id");
      const InFlight sent = it->second;
      conn.inflight.erase(it);
      if (response.ok()) {
        ++counts->ok;
      } else {
        ++counts->failed;
      }
      if (window != nullptr) {
        if (sent.in_window && response.ok()) ++window->ok_in_window;
        if (now >= window->t0 && now <= window->t1) {
          ++window->completed;
          window->bytes_out += net::kLenPrefixBytes +
                               net::kResponseHeaderBytes +
                               response.payload.size();
          ++window->frames_out;
          if (response.ok()) {
            if (IsDiff(response.opcode)) {
              window->read_latency.push_back(now - sent.sent_at);
              window->ops_sum += response.value;
              window->intended_sum += source->IntendedOps(sent.tag);
              ++window->ops_n;
            } else if (response.opcode == Opcode::kCommit) {
              window->write_latency.push_back(now - sent.sent_at);
            }
          }
        }
      }
      source->Done(static_cast<int>(c), sent.tag, response);
    }
    Issue(source, c, counts, window);
  }

  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_id_ = 1;
  double stop_at_ = 0.0;
};

// ---------------------------------------------------------------------------
// Workload sources.

/// unique: request i of the seed's tagged stream, never repeated.
class UniqueSource : public Source {
 public:
  UniqueSource(const std::vector<Pair>* pool, uint64_t first, uint64_t limit)
      : pool_(pool), next_(first), first_(first), limit_(limit) {}

  bool Next(int, WireRequest* request, uint64_t* tag) override {
    if (next_ >= limit_) return false;
    Pair pair = TagPair(*pool_, next_);
    request->opcode = Opcode::kDiff;
    request->old_doc = std::move(pair.old_doc);
    request->new_doc = std::move(pair.new_doc);
    *tag = next_++;
    return true;
  }

  void Done(int, uint64_t tag, const WireResponse& response) override {
    if (!response.ok()) return;
    const uint64_t slot = tag - first_;
    if (ops_.size() <= slot) ops_.resize(slot + 1, UINT32_MAX);
    ops_[slot] = response.value;
  }

  uint32_t IntendedOps(uint64_t tag) const override {
    return (*pool_)[tag % pool_->size()].intended_ops;
  }

  /// Ops of request `index`, or UINT32_MAX if it was not answered OK.
  uint32_t OpsOf(uint64_t index) const {
    const uint64_t slot = index - first_;
    return slot < ops_.size() ? ops_[slot] : UINT32_MAX;
  }
  uint64_t first() const { return first_; }
  uint64_t next() const { return next_; }

 private:
  const std::vector<Pair>* pool_;
  uint64_t next_;
  uint64_t first_;
  uint64_t limit_;
  std::vector<uint32_t> ops_;
};

/// hot-pairs: cycles over a fixed set of pairs. The answer for a pair never
/// changes, so every response is checked against the first one seen.
class HotSource : public Source {
 public:
  HotSource(const std::vector<Pair>* pairs, std::vector<uint32_t>* ops,
            uint64_t limit)
      : pairs_(pairs), ops_(ops), limit_(limit) {}

  bool Next(int, WireRequest* request, uint64_t* tag) override {
    if (issued_ >= limit_) return false;
    const size_t j = issued_++ % pairs_->size();
    request->opcode = Opcode::kDiff;
    request->old_doc = (*pairs_)[j].old_doc;
    request->new_doc = (*pairs_)[j].new_doc;
    *tag = j;
    return true;
  }

  void Done(int, uint64_t tag, const WireResponse& response) override {
    if (!response.ok()) return;
    uint32_t& ops = (*ops_)[tag];
    if (ops == UINT32_MAX) ops = response.value;
    if (ops != response.value) {
      Fail("hot pair " + std::to_string(tag) + " answered " +
           std::to_string(response.value) + " ops, earlier " +
           std::to_string(ops));
    }
  }

  uint32_t IntendedOps(uint64_t tag) const override {
    return (*pairs_)[tag].intended_ops;
  }

 private:
  const std::vector<Pair>* pairs_;
  std::vector<uint32_t>* ops_;
  uint64_t limit_;
  uint64_t issued_ = 0;
};

/// One read of the chain workload, as issued and answered.
struct ChainRead {
  int rotation = 0;
  int from = 0;
  int to = 0;
  uint32_t ops = 0;
};

/// chain: connection 0 writes (kOpen, then kCommit of versions 1..N, then
/// rotation to a fresh doc_id holding the next of kChainDocs documents),
/// connection 1 reads. Each committed version v > kChainPreload queues
/// kChainReadsPerCommit reads kVdiff(v-k, v); the writer waits while more
/// than kChainWriterLead versions of reads are outstanding, so the
/// read/write mix is fixed by count, not by speed.
class ChainSource : public Source {
 public:
  ChainSource(uint64_t seed, const std::vector<Chain>* chains)
      : seed_(seed), chains_(chains) {}

  /// Setup mode: only the first doc's open + preload commits.
  void set_preload_only(bool preload_only) { preload_only_ = preload_only; }

  bool Next(int conn, WireRequest* request, uint64_t* tag) override {
    if (conn == 0) {
      if (writer_busy_) return false;
      if (preload_only_ && next_version_ > kChainPreload) return false;
      if (backlog() > static_cast<size_t>(kChainReadsPerCommit *
                                          kChainWriterLead)) {
        return false;
      }
      const Chain& chain = ChainOf(rotation_);
      request->doc_id = ChainDocId(rotation_);
      if (!opened_) {
        request->opcode = Opcode::kOpen;
        request->old_doc = chain.texts[0];
        *tag = 0;
      } else {
        request->opcode = Opcode::kCommit;
        request->old_doc = chain.texts[static_cast<size_t>(next_version_)];
        *tag = static_cast<uint64_t>(next_version_);
      }
      writer_busy_ = true;
      return true;
    }
    if (reads_.empty()) return false;
    const ChainRead read = reads_.front();
    reads_.pop_front();
    ++reads_inflight_;
    request->opcode = Opcode::kVdiff;
    request->doc_id = ChainDocId(read.rotation);
    request->from_version = read.from;
    request->to_version = read.to;
    *tag = issued_.size();
    issued_.push_back(read);
    return true;
  }

  void Done(int conn, uint64_t tag, const WireResponse& response) override {
    if (conn == 1) {
      --reads_inflight_;
      if (response.ok()) {
        issued_[tag].ops = response.value;
        answered_.push_back(tag);
      }
      return;
    }
    writer_busy_ = false;
    if (!response.ok()) {
      Fail("chain write failed: " + response.payload);
    }
    if (!opened_) {
      opened_ = true;
      next_version_ = 1;
      return;
    }
    const int v = static_cast<int>(tag);
    if (response.value != static_cast<uint32_t>(v)) {
      Fail("commit of version " + std::to_string(v) + " answered version " +
           std::to_string(response.value));
    }
    if (v > kChainPreload) {
      for (int j = 0; j < kChainReadsPerCommit; ++j) {
        reads_.push_back({rotation_, v - ChainBack(seed_, v, j), v, 0});
      }
    }
    next_version_ = v + 1;
    if (next_version_ > kChainVersions) {
      ++rotation_;
      opened_ = false;
      next_version_ = 0;
    }
  }

  uint32_t IntendedOps(uint64_t tag) const override {
    const ChainRead& read = issued_[tag];
    const Chain& chain = ChainOf(read.rotation);
    uint32_t sum = 0;
    for (int v = read.from + 1; v <= read.to; ++v) {
      sum += chain.intended_ops[static_cast<size_t>(v)];
    }
    return sum;
  }

  const Chain& ChainOf(int rotation) const {
    return (*chains_)[static_cast<size_t>(rotation) % chains_->size()];
  }

  /// Reads answered OK, in answer order (for the check sample).
  std::vector<ChainRead> AnsweredReads() const {
    std::vector<ChainRead> out;
    for (uint64_t tag : answered_) out.push_back(issued_[tag]);
    return out;
  }

 private:
  size_t backlog() const { return reads_.size() + reads_inflight_; }

  uint64_t seed_;
  const std::vector<Chain>* chains_;
  bool preload_only_ = false;
  bool writer_busy_ = false;
  bool opened_ = false;
  int rotation_ = 0;
  int next_version_ = 0;
  std::deque<ChainRead> reads_;
  size_t reads_inflight_ = 0;
  std::vector<ChainRead> issued_;
  std::vector<uint64_t> answered_;
};

// ---------------------------------------------------------------------------
// Correctness: an answered script must turn the old tree into the new one.

void VerifyScript(const std::string& what, const std::string& script_text,
                  Tree old_tree, const Tree& new_tree, uint32_t ops) {
  StatusOr<EditScript> script =
      ParseEditScript(script_text, old_tree.label_table().get());
  if (!script.ok()) Fail(what + ": unparsable script: " +
                         script.status().ToString());
  if (script->size() != ops) {
    Fail(what + ": header says " + std::to_string(ops) + " ops, script has " +
         std::to_string(script->size()));
  }
  const Status applied = script->ApplyTo(&old_tree);
  if (!applied.ok()) Fail(what + ": script does not apply: " +
                          applied.ToString());
  if (!Tree::Isomorphic(old_tree, new_tree)) {
    Fail(what + ": script does not reproduce the new document");
  }
}

Tree MustParse(const std::string& text,
               const std::shared_ptr<LabelTable>& labels) {
  StatusOr<Tree> tree = ParseSexpr(text, labels);
  if (!tree.ok()) Fail("generated document does not parse: " +
                       tree.status().ToString());
  return std::move(tree).value();
}

// ---------------------------------------------------------------------------
// Traced replay: the same inputs, stage by stage, in this process.

struct Trace {
  double parse_s = 0, index_s = 0, share_s = 0, match_s = 0, post_s = 0;
  double gen_s = 0, format_s = 0, encode_s = 0, decode_s = 0;
  double difftrees_s = 0, submit_s = 0;
  double commit_s = 0, commit_diff_s = 0, materialize_s = 0, delta_s = 0;
  uint64_t parsed_nodes = 0, settled_nodes = 0, t2_nodes = 0;
  uint64_t compare_calls = 0, script_bytes = 0, scripts = 0;
  uint64_t requests = 0, pipelines = 0, submits = 0;
  uint64_t commits = 0, materializes = 0, deltas = 0;
};

template <typename F>
void Timed(double* acc, F&& f) {
  const double start = Now();
  f();
  *acc += Now() - start;
}

/// Mirrors what the incremental service does for one request, calling each
/// layer's public entry point separately and checking the result against an
/// undivided DiffTrees with the server's options.
class Replayer {
 public:
  explicit Replayer(Trace* trace) : trace_(trace) {}

  std::shared_ptr<LabelTable> labels() const { return labels_; }

  /// Tree-cache resolution of an inline document: parse + index on a miss.
  std::shared_ptr<const CachedTree> ResolveText(const std::string& text) {
    const uint64_t key = TreeCache::FingerprintText("sexpr", text);
    if (auto hit = cache_.Lookup(key)) return hit;
    std::optional<Tree> tree;
    Timed(&trace_->parse_s, [&] { tree.emplace(MustParse(text, labels_)); });
    trace_->parsed_nodes += tree->size();
    std::shared_ptr<const CachedTree> entry;
    Timed(&trace_->index_s,
          [&] { entry = cache_.Insert(key, std::move(*tree)); });
    return entry;
  }

  /// Tree-cache resolution of a stored version: Materialize + index.
  std::shared_ptr<const CachedTree> ResolveVersion(const VersionStore& store,
                                                   const std::string& doc_id,
                                                   int version) {
    const uint64_t key = TreeCache::FingerprintVersion(doc_id, version);
    if (auto hit = cache_.Lookup(key)) return hit;
    std::optional<StatusOr<Tree>> tree;
    Timed(&trace_->materialize_s,
          [&] { tree.emplace(store.Materialize(version)); });
    ++trace_->materializes;
    if (!tree->ok()) Fail("replay Materialize failed");
    std::shared_ptr<const CachedTree> entry;
    Timed(&trace_->index_s,
          [&] { entry = cache_.Insert(key, std::move(**tree)); });
    return entry;
  }

  /// The diff pipeline over two resolved trees; returns the script text.
  std::string Diff(const std::shared_ptr<const CachedTree>& a,
                   const std::shared_ptr<const CachedTree>& b) {
    DiffOptions options;
    options.index1 = &a->index;
    options.index2 = &b->index;
    options.share_mode = ShareMode::kIndexed;
    const Matching* reused = nullptr;
    for (auto it = match_cache_.begin(); it != match_cache_.end(); ++it) {
      if (it->key_old == a->key && it->key_new == b->key) {
        match_cache_.splice(match_cache_.begin(), match_cache_, it);
        reused = &match_cache_.front().matching;
        break;
      }
    }
    options.reuse_matching = reused;

    std::optional<StatusOr<DiffResult>> reference;
    Timed(&trace_->difftrees_s,
          [&] { reference.emplace(DiffTrees(a->tree, b->tree, options)); });
    if (!reference->ok()) Fail("replay DiffTrees failed");
    ++trace_->pipelines;

    const Tree& t1 = a->tree;
    const Tree& t2 = b->tree;
    DiffContext ctx(t1, t2, options);
    std::optional<Matching> matching;
    std::vector<std::pair<NodeId, NodeId>> settled;
    if (reused != nullptr) {
      matching = *reused;
    } else {
      Matching seed(t1.id_bound(), t2.id_bound());
      ShareStats share;
      Timed(&trace_->share_s, [&] {
        seed = PrematchSharedSubtrees(ctx, true, &share, &settled);
      });
      trace_->settled_nodes += share.settled_nodes;
      Timed(&trace_->match_s, [&] {
        for (DiffRung rung = options.start_rung;;
             rung = static_cast<DiffRung>(static_cast<int>(rung) + 1)) {
          MatchResult attempt = MatcherForRung(rung).Run(ctx, seed);
          if (attempt.matching.has_value()) {
            matching = std::move(attempt.matching);
            break;
          }
        }
      });
    }
    trace_->t2_nodes += t2.size();
    if (matching->PartnerOfT2(t2.root()) != t1.root() &&
        !matching->HasT1(t1.root()) && !matching->HasT2(t2.root()) &&
        t1.label(t1.root()) == t2.label(t2.root())) {
      matching->Add(t1.root(), t2.root());
    }
    Timed(&trace_->post_s, [&] {
      if (reused == nullptr) {
        if (options.post_process) {
          PostProcessMatching(t1, t2, ctx.evaluator(), &matching.value());
        }
        if (options.complete_context) {
          CompleteContextMatching(t1, t2, &matching.value());
        }
      }
      FilterIntactSettled(t1, t2, *matching, &settled);
    });
    trace_->compare_calls += ctx.evaluator().compare_calls();
    std::optional<StatusOr<EditScriptResult>> gen;
    Timed(&trace_->gen_s, [&] {
      gen.emplace(GenerateEditScript(t1, t2, *matching, &ctx.comparator(),
                                     /*use_lcs_alignment=*/true,
                                     options.cost_model, nullptr,
                                     settled.empty() ? nullptr : &settled));
    });
    if (!gen->ok()) Fail("replay GenerateEditScript failed");
    std::string text;
    Timed(&trace_->format_s,
          [&] { text = FormatEditScript((*gen)->script, t1.labels()); });
    if (text != FormatEditScript((*reference)->script, t1.labels())) {
      Fail("traced replay diverges from DiffTrees (script differs)");
    }
    if (reused == nullptr && !(*reference)->report.degraded) {
      match_cache_.push_front({a->key, b->key, (*reference)->matching, a, b});
      while (match_cache_.size() > kMatchCacheEntries) match_cache_.pop_back();
    }
    trace_->script_bytes += text.size();
    ++trace_->scripts;
    return text;
  }

  /// The wire layer around one request/response pair.
  void Wire(const WireRequest& request, const std::string& script,
            uint32_t ops) {
    std::string frame;
    WireResponse response;
    response.opcode = request.opcode;
    response.request_id = request.request_id;
    response.value = ops;
    response.payload = script;
    std::string reply;
    Timed(&trace_->encode_s, [&] {
      frame = net::EncodeRequest(request);
      reply = net::EncodeResponse(response);
    });
    Timed(&trace_->decode_s, [&] {
      net::FrameDecoder server_side;
      server_side.Append(frame.data(), frame.size());
      WireRequest decoded;
      Status error;
      if (server_side.NextRequest(&decoded, &error) !=
          net::DecodeResult::kFrame) {
        Fail("replay request frame did not decode");
      }
      net::FrameDecoder client_side;
      client_side.Append(reply.data(), reply.size());
      WireResponse back;
      if (client_side.NextResponse(&back, &error) !=
          net::DecodeResult::kFrame) {
        Fail("replay response frame did not decode");
      }
    });
  }

 private:
  static constexpr size_t kMatchCacheEntries = 64;
  struct MatchSlot {
    uint64_t key_old;
    uint64_t key_new;
    Matching matching;
    std::shared_ptr<const CachedTree> old_tree;  // Pins the ids.
    std::shared_ptr<const CachedTree> new_tree;
  };

  Trace* trace_;
  std::shared_ptr<LabelTable> labels_ = std::make_shared<LabelTable>();
  TreeCache cache_{TreeCache::Options{}};
  std::list<MatchSlot> match_cache_;
};

DiffServiceOptions ServerServiceOptions() {
  DiffServiceOptions options;
  options.num_threads = kServerThreads;
  options.incremental = true;  // treediff_serve's default.
  return options;
}

/// SubmitSync on an in-process service with the server's options; the
/// script must match the staged replay's.
void TimedSubmit(DiffService* service, DiffRequest request,
                 const std::string& expected, Trace* trace) {
  DiffResponse response;
  Timed(&trace->submit_s,
        [&] { response = service->SubmitSync(std::move(request)); });
  ++trace->submits;
  if (!response.status.ok()) Fail("replay SubmitSync failed");
  if (response.script != expected) {
    Fail("in-process SubmitSync script differs from the staged replay");
  }
}

/// Store-layer probe for inline pairs: commit the new document onto a store
/// holding the old one (the operation chain runs on every write).
void ReplayStoreForPair(const Pair& pair, Trace* trace) {
  auto labels = std::make_shared<LabelTable>();
  Tree base = MustParse(pair.old_doc, labels);
  Tree next = MustParse(pair.new_doc, labels);
  Timed(&trace->commit_diff_s,
        [&] { (void)DiffTrees(base, next, DiffOptions{}); });
  VersionStore store(base.Clone(), DiffOptions{});
  Timed(&trace->commit_s, [&] {
    if (!store.Commit(next).ok()) Fail("replay Commit failed");
  });
  ++trace->commits;
  Timed(&trace->materialize_s, [&] {
    if (!store.Materialize(1).ok()) Fail("replay Materialize failed");
  });
  ++trace->materializes;
  Timed(&trace->delta_s, [&] {
    if (store.DeltaFor(1) == nullptr) Fail("replay DeltaFor failed");
  });
  ++trace->deltas;
}

void ReplayInline(const std::vector<Pair>& requests, Trace* trace) {
  Replayer replayer(trace);
  DiffService service(ServerServiceOptions());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Pair& pair = requests[i];
    WireRequest wire;
    wire.opcode = Opcode::kDiff;
    wire.request_id = i + 1;
    wire.old_doc = pair.old_doc;
    wire.new_doc = pair.new_doc;
    auto a = replayer.ResolveText(pair.old_doc);
    auto b = replayer.ResolveText(pair.new_doc);
    const std::string script = replayer.Diff(a, b);
    const size_t ops = static_cast<size_t>(
        std::count(script.begin(), script.end(), '\n'));
    replayer.Wire(wire, script, static_cast<uint32_t>(ops));
    DiffRequest request;
    request.old_doc = pair.old_doc;
    request.new_doc = pair.new_doc;
    TimedSubmit(&service, std::move(request), script, trace);
    ++trace->requests;
  }
  // The store layer over the distinct pairs of this workload.
  std::map<std::string, const Pair*> distinct;
  for (const Pair& pair : requests) distinct.emplace(pair.old_doc, &pair);
  size_t probed = 0;
  for (const auto& [key, pair] : distinct) {
    if (probed++ == 50) break;
    ReplayStoreForPair(*pair, trace);
  }
}

/// chain: one doc_id's whole cycle — open, preload, then every commit with
/// its reads — in the live order.
void ReplayChain(uint64_t seed, const Chain& chain, Trace* trace) {
  const std::vector<std::string>& texts = chain.texts;
  Replayer replayer(trace);
  DiffService service(ServerServiceOptions());
  const std::string doc_id = ChainDocId(0);
  std::optional<Tree> base;
  Timed(&trace->parse_s,
        [&] { base.emplace(MustParse(texts[0], replayer.labels())); });
  trace->parsed_nodes += base->size();
  VersionStore store(std::move(*base), DiffOptions{});
  if (!service.CreateStore(doc_id, texts[0]).ok()) Fail("replay open");
  ++trace->requests;
  uint64_t id = 1;
  for (int v = 1; v <= kChainVersions; ++v) {
    std::optional<Tree> next;
    Timed(&trace->parse_s,
          [&] { next.emplace(MustParse(texts[v], replayer.labels())); });
    trace->parsed_nodes += next->size();
    StatusOr<Tree> head = store.Materialize(v - 1);
    if (!head.ok()) Fail("replay Materialize(head) failed");
    Timed(&trace->commit_diff_s,
          [&] { (void)DiffTrees(*head, *next, DiffOptions{}); });
    Timed(&trace->commit_s, [&] {
      if (!store.Commit(*next).ok()) Fail("replay Commit failed");
    });
    ++trace->commits;
    if (!service.CommitVersion(doc_id, texts[v]).ok()) Fail("replay commit");
    ++trace->requests;
    if (v <= kChainPreload) continue;
    for (int j = 0; j < kChainReadsPerCommit; ++j) {
      const int from = v - ChainBack(seed, v, j);
      WireRequest wire;
      wire.opcode = Opcode::kVdiff;
      wire.request_id = id++;
      wire.doc_id = doc_id;
      wire.from_version = from;
      wire.to_version = v;
      std::string script;
      if (from + 1 == v) {
        const EditScript* delta = nullptr;
        Timed(&trace->delta_s, [&] { delta = store.DeltaFor(v); });
        ++trace->deltas;
        if (delta == nullptr) Fail("replay DeltaFor failed");
        Timed(&trace->format_s,
              [&] { script = FormatEditScript(*delta, *store.label_table()); });
      } else {
        auto a = replayer.ResolveVersion(store, doc_id, from);
        auto b = replayer.ResolveVersion(store, doc_id, v);
        script = replayer.Diff(a, b);
      }
      const size_t ops = static_cast<size_t>(
          std::count(script.begin(), script.end(), '\n'));
      replayer.Wire(wire, script, static_cast<uint32_t>(ops));
      DiffRequest request;
      request.doc_id = doc_id;
      request.from_version = from;
      request.to_version = v;
      TimedSubmit(&service, std::move(request), script, trace);
      ++trace->requests;
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) Fail("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string server;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--server") {
      args.server = value;
    } else if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else {
      Fail("unknown argument " + arg);
    }
  }
  if (args.server.empty() || args.seconds <= 0 ||
      (args.workload != "unique" && args.workload != "hot-pairs" &&
       args.workload != "chain")) {
    Fail("usage: perfbench_driver --server PATH --workload "
         "unique|hot-pairs|chain --seed N --seconds S --trace 0|1");
  }
  return args;
}

/// Number of unique pairs after which the server's tree cache (default
/// capacity, same sharding) has begun to evict: the same class, fed the same
/// documents in the same order.
uint64_t UniqueWarmupCount(const std::vector<Pair>& pool) {
  TreeCache cache{TreeCache::Options{}};
  auto labels = std::make_shared<LabelTable>();
  for (uint64_t i = 0;; ++i) {
    const Pair pair = TagPair(pool, i);
    for (const std::string* text : {&pair.old_doc, &pair.new_doc}) {
      cache.Insert(TreeCache::FingerprintText("sexpr", *text),
                   MustParse(*text, labels));
    }
    if (cache.stats().evictions > 0) return i + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  signal(SIGPIPE, SIG_IGN);
  const bool unique = args.workload == "unique";
  const bool hot = args.workload == "hot-pairs";
  const bool chain = args.workload == "chain";

  // --- Inputs (driver-side, not part of setup_s). -------------------------
  uint64_t warm_pairs = 0;
  std::vector<Pair> pool;  // unique: the base pairs; hot-pairs: the pairs.
  std::vector<Chain> chains;
  for (int j = 0; j < (unique ? kUniquePool : hot ? kHotPairs : 0); ++j) {
    pool.push_back(MakePair(args.seed, static_cast<uint64_t>(j)));
  }
  if (unique) warm_pairs = UniqueWarmupCount(pool);
  for (int c = 0; chain && c < kChainDocs; ++c) {
    chains.push_back(MakeChain(args.seed, c));
  }
  const std::vector<Pair>& hot_pairs = pool;
  std::vector<uint32_t> hot_ops(hot_pairs.size(), UINT32_MAX);
  std::vector<int> depths;
  if (unique) depths.assign(kUniqueConnections, kUniquePipeline);
  if (hot) depths.assign(kHotConnections, kHotPipeline);
  if (chain) depths = {1, 1};

  const double calib_start = CalibrationMs();

  // --- Setup, kSetupRepeats times: spawn -> first kPing OK -> warm-up. ----
  // The last server stays up for the timed phase; the chain source that
  // preloaded it carries on from there.
  PhaseCounts setup_counts;
  std::vector<double> setup_cpu;   // Server CPU seconds per set-up.
  std::vector<double> setup_wall;  // Wall seconds per set-up.
  ServerProcess server;
  g_live_server = &server;
  ChainSource chain_source(args.seed, &chains);
  // One untimed spawn first: it pages in the server binary and wakes the
  // host's CPUs, so the timed set-ups do not pay for a cold start.
  server.Start(args.server);
  ConnectControl(server.port());
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.Stop();
    const double start = Now();
    server.Start(args.server);
    net::SimpleClient probe = ConnectControl(server.port());
    Engine warm(server.port(), depths);
    if (unique) {
      UniqueSource source(&pool, 0, warm_pairs);
      warm.Run(&source, 1e300, &setup_counts, nullptr, nullptr);
    } else if (hot) {
      HotSource source(&hot_pairs, &hot_ops, hot_pairs.size());
      warm.Run(&source, 1e300, &setup_counts, nullptr, nullptr);
    } else {
      ChainSource throwaway(args.seed, &chains);
      ChainSource& source =
          rep + 1 == kSetupRepeats ? chain_source : throwaway;
      source.set_preload_only(true);
      warm.Run(&source, 1e300, &setup_counts, nullptr, nullptr);
      source.set_preload_only(false);
    }
    setup_wall.push_back(Now() - start);
    setup_cpu.push_back(ProcessCpuSeconds(server.pid()));
  }
  if (setup_counts.failed != 0) Fail("a setup request failed");

  // --- Timed phase on the last server. ------------------------------------
  net::SimpleClient control = ConnectControl(server.port());
  std::vector<double> rtts;
  for (int i = 0; i < kPingProbes; ++i) {
    const double t = Now();
    if (!control.Ping().ok()) Fail("kPing failed");
    rtts.push_back(Now() - t);
  }
  Engine engine(server.port(), depths);
  UniqueSource unique_source(&pool, warm_pairs, UINT64_MAX);
  HotSource hot_source(&hot_pairs, &hot_ops, UINT64_MAX);
  Source* source = unique ? static_cast<Source*>(&unique_source)
                   : hot  ? static_cast<Source*>(&hot_source)
                          : static_cast<Source*>(&chain_source);

  const std::map<std::string, double> m0 = ScrapeMetrics(&control);
  const HostCpu host0 = ReadHostCpu();
  const double client_cpu0 = SelfCpuSeconds();
  Window window;
  window.t0 = Now();
  window.t1 = window.t0 + args.seconds;
  const double cpu0 = ProcessCpuSeconds(server.pid());
  double cpu1 = 0.0;
  bool closed = false;
  const uint64_t rss_after =
      unique ? kRssAfterUnique : hot ? kRssAfterHot : kRssAfterChain;
  std::optional<double> peak_rss;
  PhaseCounts timed_counts;
  engine.Run(source, window.t1, &timed_counts, &window, [&](double now) {
    if (!peak_rss && window.completed >= rss_after) {
      peak_rss = ProcessHwmMb(server.pid());
    }
    if (!closed && now >= window.t1) {
      cpu1 = ProcessCpuSeconds(server.pid());
      closed = true;
    }
  });
  if (!closed) cpu1 = ProcessCpuSeconds(server.pid());
  if (!peak_rss) {
    std::fprintf(stderr,
                 "perfbench: note: only %" PRIu64 " requests completed; "
                 "peak_rss_mb read at the end of the window\n",
                 window.completed);
    peak_rss = ProcessHwmMb(server.pid());
  }
  const double client_cpu1 = SelfCpuSeconds();
  const HostCpu host1 = ReadHostCpu();
  const std::map<std::string, double> m1 = ScrapeMetrics(&control);
  auto delta = [&](const std::string& name) {
    auto a = m0.find(name);
    auto b = m1.find(name);
    return (b == m1.end() ? 0.0 : b->second) - (a == m0.end() ? 0.0 : a->second);
  };
  auto hist_mean_us = [&](const std::string& name) {
    return Ratio(delta(name + "_sum"), delta(name + "_count")) * 1e6;
  };
  if (m1.count("net_responses_dropped_total") &&
      m1.at("net_responses_dropped_total") != 0) {
    Fail("server dropped responses");
  }
  server.Stop();
  g_live_server = nullptr;

  // --- Check pass on a fresh server (untimed). -----------------------------
  PhaseCounts check_counts;
  {
    ServerProcess checker;
    g_live_server = &checker;
    checker.Start(args.server);
    net::SimpleClient client = ConnectControl(checker.port());
    auto labels = std::make_shared<LabelTable>();
    Rng pick(Mix(args.seed, 0xC8EC));
    auto check_pair = [&](const Pair& pair, uint32_t expected,
                          const std::string& what) {
      WireResponse response;
      ++check_counts.sent;
      if (!client.Diff(pair.old_doc, pair.new_doc, net::kFormatSexpr,
                       &response)
               .ok() ||
          !response.ok()) {
        Fail(what + ": check request failed");
      }
      ++check_counts.ok;
      if (response.value != expected) {
        Fail(what + ": timed run answered " + std::to_string(expected) +
             " ops, check pass " + std::to_string(response.value));
      }
      VerifyScript(what, response.payload, MustParse(pair.old_doc, labels),
                   MustParse(pair.new_doc, labels), response.value);
    };
    if (unique) {
      const uint64_t first = unique_source.first();
      const uint64_t answered = unique_source.next() - first;
      if (answered == 0) Fail("no unique request completed");
      for (int s = 0; s < kCheckSamples; ++s) {
        const uint64_t index = first + pick.Uniform(answered);
        const uint32_t ops = unique_source.OpsOf(index);
        if (ops == UINT32_MAX) continue;  // Failed in the timed run.
        check_pair(TagPair(pool, index), ops,
                   "unique request " + std::to_string(index));
      }
    } else if (hot) {
      for (size_t j = 0; j < hot_pairs.size(); ++j) {
        check_pair(hot_pairs[j], hot_ops[j], "hot pair " + std::to_string(j));
      }
    } else {
      std::vector<ChainRead> reads = chain_source.AnsweredReads();
      if (reads.empty()) Fail("no chain read completed");
      // Version content depends only on the document and the version
      // number, so one fresh doc per chain document reproduces every read.
      std::vector<ChainRead> sample;
      std::vector<int> max_to(chains.size(), 0);
      for (int s = 0; s < kCheckSamples; ++s) {
        sample.push_back(reads[pick.Uniform(reads.size())]);
        int& top = max_to[static_cast<size_t>(sample.back().rotation) %
                          chains.size()];
        top = std::max(top, sample.back().to);
      }
      auto mirror_labels = std::make_shared<LabelTable>();
      std::vector<std::unique_ptr<VersionStore>> mirrors;
      WireResponse response;
      for (size_t c = 0; c < chains.size(); ++c) {
        const std::vector<std::string>& texts = chains[c].texts;
        const std::string doc = "check-" + std::to_string(c);
        ++check_counts.sent;
        if (!client.Open(doc, texts[0], net::kFormatSexpr, &response).ok() ||
            !response.ok()) {
          Fail("check open failed");
        }
        ++check_counts.ok;
        mirrors.push_back(std::make_unique<VersionStore>(
            MustParse(texts[0], mirror_labels), DiffOptions{}));
        for (int v = 1; v <= max_to[c]; ++v) {
          ++check_counts.sent;
          if (!client.Commit(doc, texts[static_cast<size_t>(v)],
                             net::kFormatSexpr, &response)
                   .ok() ||
              !response.ok() || response.value != static_cast<uint32_t>(v)) {
            Fail("check commit failed");
          }
          ++check_counts.ok;
          if (!mirrors[c]
                   ->Commit(MustParse(texts[static_cast<size_t>(v)],
                                      mirror_labels))
                   .ok()) {
            Fail("mirror commit failed");
          }
        }
      }
      for (const ChainRead& read : sample) {
        const size_t c = static_cast<size_t>(read.rotation) % chains.size();
        const std::string what = "chain doc " + std::to_string(c) + " read v" +
                                 std::to_string(read.from) + "->v" +
                                 std::to_string(read.to);
        ++check_counts.sent;
        if (!client.Vdiff("check-" + std::to_string(c), read.from, read.to,
                          &response)
                 .ok() ||
            !response.ok()) {
          Fail(what + ": check request failed");
        }
        ++check_counts.ok;
        if (response.value != read.ops) {
          Fail(what + ": timed run answered " + std::to_string(read.ops) +
               " ops, check pass " + std::to_string(response.value));
        }
        StatusOr<Tree> old_tree = mirrors[c]->Materialize(read.from);
        if (!old_tree.ok()) Fail("mirror Materialize failed");
        VerifyScript(what, response.payload, std::move(*old_tree),
                     MustParse(chains[c].texts[static_cast<size_t>(read.to)],
                               mirror_labels),
                     response.value);
      }
    }
    const std::map<std::string, double> cm = ScrapeMetrics(&client);
    if (cm.count("net_responses_dropped_total") &&
        cm.at("net_responses_dropped_total") != 0) {
      Fail("check server dropped responses");
    }
    checker.Stop();
    g_live_server = nullptr;
  }

  const double calib_end = CalibrationMs();

  // --- End-to-end metrics. -------------------------------------------------
  const double span = window.t1 - window.t0;
  const double completed = static_cast<double>(window.completed);
  if (window.completed == 0 || window.read_latency.empty()) {
    Fail("no request completed in the timed window");
  }
  const uint64_t reads = window.read_latency.size();
  const double p99 = Quantile(window.read_latency, 0.99);
  if (reads < 1000) {
    std::fprintf(stderr,
                 "perfbench: note: p99 over %" PRIu64
                 " reads (< 1000 samples)\n",
                 reads);
  }
  // Gated end-to-end metrics: the ones that repeat on a shared host (see
  // NOTES.md). The wall-clock figures below are reported, not gated.
  std::vector<Metric> e2e = {
      {"cpu_ms_per_req", (cpu1 - cpu0) * 1e3 / completed,
       "ms", window.completed},
      {"ok_ratio", Ratio(static_cast<double>(window.ok_in_window),
                         static_cast<double>(window.sent_in_window)),
       "ratio", window.sent_in_window},
      {"ops_per_edit", Ratio(static_cast<double>(window.ops_sum),
                             static_cast<double>(window.intended_sum)),
       "ratio", window.ops_n},
      {"setup_s", Quantile(setup_cpu, 0.5), "s", setup_cpu.size()},
      {"peak_rss_mb", *peak_rss, "MB", rss_after},
  };
  std::vector<Metric> wall = {
      {"client.setup_wall_s", Quantile(setup_wall, 0.5), "s",
       setup_wall.size()},
      {"client.throughput_rps", completed / span, "1/s", window.completed},
      {"client.p50_ms", Quantile(window.read_latency, 0.5) * 1e3, "ms", reads},
      {"client.p99_ms", p99 * 1e3, "ms", reads},
      {"client.ops_per_req", Ratio(static_cast<double>(window.ops_sum),
                                   static_cast<double>(window.ops_n)),
       "ops", window.ops_n},
  };

  const double steal_ratio =
      Ratio(static_cast<double>(host1.steal - host0.steal),
            static_cast<double>(host1.total - host0.total));
  const double client_cpu_per_req =
      (client_cpu1 - client_cpu0) * 1e3 / completed;
  const double calib_ms = (calib_start + calib_end) / 2;

  // --- Per-layer metrics (traced run). ------------------------------------
  std::vector<Metric> layers;
  if (args.trace) {
    Trace t;
    if (unique) {
      std::vector<Pair> requests;
      for (int i = 0; i < kUniqueReplay; ++i) {
        requests.push_back(TagPair(pool, warm_pairs + i));
      }
      ReplayInline(requests, &t);
    } else if (hot) {
      std::vector<Pair> requests = hot_pairs;  // The warm-up, then the loop.
      for (int i = 0; i < kHotReplay; ++i) {
        requests.push_back(hot_pairs[static_cast<size_t>(i) % hot_pairs.size()]);
      }
      ReplayInline(requests, &t);
    } else {
      ReplayChain(args.seed, chains[0], &t);
    }
    const double n = static_cast<double>(t.requests);
    auto per_req_us = [&](double s) { return s * 1e6 / n; };
    auto per_call_us = [&](double s, uint64_t calls) {
      return Ratio(s * 1e6, static_cast<double>(calls));
    };
    const double staged = t.share_s + t.match_s + t.post_s + t.gen_s;
    const double tree_lookups =
        delta("tree_cache_hits_total") + delta("tree_cache_misses_total");
    const double match_lookups = delta("diff_match_cache_hits_total") +
                                 delta("diff_match_cache_misses_total");
    layers = {
        {"tree.parse_us", per_req_us(t.parse_s), "us", t.requests},
        {"tree.parse_ns_per_node",
         Ratio(t.parse_s * 1e9, static_cast<double>(t.parsed_nodes)), "ns",
         t.parsed_nodes},
        {"tree.index_us", per_req_us(t.index_s), "us", t.requests},
        {"core.share_map_us", per_req_us(t.share_s), "us", t.requests},
        {"core.settled_node_ratio",
         Ratio(static_cast<double>(t.settled_nodes),
               static_cast<double>(t.t2_nodes)),
         "ratio", t.pipelines},
        {"core.match_us", per_req_us(t.match_s), "us", t.requests},
        {"core.compare_calls", static_cast<double>(t.compare_calls) / n,
         "count", t.requests},
        {"core.post_process_us", per_req_us(t.post_s), "us", t.requests},
        {"core.gen_us", per_req_us(t.gen_s), "us", t.requests},
        {"core.format_us", per_req_us(t.format_s), "us", t.requests},
        {"core.script_bytes",
         Ratio(static_cast<double>(t.script_bytes),
               static_cast<double>(t.scripts)),
         "bytes", t.scripts},
        {"store.commit_us", per_call_us(t.commit_s, t.commits), "us",
         t.commits},
        {"store.commit_diff_us", per_call_us(t.commit_diff_s, t.commits),
         "us", t.commits},
        {"store.materialize_us",
         per_call_us(t.materialize_s, t.materializes), "us", t.materializes},
        {"store.delta_us", per_call_us(t.delta_s, t.deltas), "us", t.deltas},
        {"service.queue_wait_us", hist_mean_us("diff_queue_wait_seconds"),
         "us", static_cast<uint64_t>(delta("diff_queue_wait_seconds_count"))},
        {"service.resolve_us", hist_mean_us("diff_resolve_seconds"), "us",
         static_cast<uint64_t>(delta("diff_resolve_seconds_count"))},
        {"service.match_us", hist_mean_us("diff_match_seconds"), "us",
         static_cast<uint64_t>(delta("diff_match_seconds_count"))},
        {"service.gen_us", hist_mean_us("diff_gen_seconds"), "us",
         static_cast<uint64_t>(delta("diff_gen_seconds_count"))},
        {"service.e2e_us", hist_mean_us("diff_e2e_seconds"), "us",
         static_cast<uint64_t>(delta("diff_e2e_seconds_count"))},
        {"service.submit_sync_us", per_call_us(t.submit_s, t.submits), "us",
         t.submits},
        {"service.tree_cache_hit_ratio",
         Ratio(delta("tree_cache_hits_total"), tree_lookups), "ratio",
         static_cast<uint64_t>(tree_lookups)},
        {"service.match_cache_hit_ratio",
         Ratio(delta("diff_match_cache_hits_total"), match_lookups), "ratio",
         static_cast<uint64_t>(match_lookups)},
        {"service.chain_log_hit_ratio",
         Ratio(delta("diff_chain_log_hits_total"),
               delta("diff_requests_total")),
         "ratio", static_cast<uint64_t>(delta("diff_requests_total"))},
        {"service.shed",
         delta("diff_shed_queue_full_total") +
             delta("diff_shed_queue_deadline_total") +
             delta("net_shed_tenant_quota_total") +
             delta("net_shed_tenant_cap_total"),
         "count", 1},
        {"net.ping_rtt_us", Quantile(rtts, 0.5) * 1e6, "us", rtts.size()},
        {"net.encode_us", per_req_us(t.encode_s), "us", t.requests},
        {"net.decode_us", per_req_us(t.decode_s), "us", t.requests},
        {"net.frame_bytes_in",
         Ratio(static_cast<double>(window.bytes_in),
               static_cast<double>(window.frames_in)),
         "bytes", window.frames_in},
        {"net.frame_bytes_out",
         Ratio(static_cast<double>(window.bytes_out),
               static_cast<double>(window.frames_out)),
         "bytes", window.frames_out},
        {"net.server_request_us", hist_mean_us("net_request_seconds"), "us",
         static_cast<uint64_t>(delta("net_request_seconds_count"))},
        {"net.pauses",
         delta("net_flow_control_pauses_total") +
             delta("net_pipeline_pauses_total"),
         "count", 1},
        {"trace.coverage_ratio", Ratio(staged, t.difftrees_s), "ratio",
         t.pipelines},
        {"host.steal_ratio", steal_ratio, "ratio", 1},
        {"host.calib_ms", calib_ms, "ms", 2},
        {"client.cpu_ms_per_req", client_cpu_per_req, "ms",
         window.completed},
    };
  }

  if (args.trace) layers.insert(layers.end(), wall.begin(), wall.end());
  if (chain) {
    wall.push_back({"client.commit_p50_ms",
                    Quantile(window.write_latency, 0.5) * 1e3, "ms",
                    window.write_latency.size()});
  }

  // --- Report. -------------------------------------------------------------
  std::printf("perfbench %s seed=%" PRIu64 " nproc=%ld seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, sysconf(_SC_NPROCESSORS_ONLN),
              args.seconds, args.trace ? 1 : 0);
  auto print = [](const char* title, const std::vector<Metric>& metrics) {
    std::printf("  %s\n", title);
    for (const Metric& m : metrics) {
      std::printf("    %-30s %14.6g %-6s samples=%" PRIu64 "\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    }
  };
  print("end-to-end (gated):", e2e);
  print("wall clock (reported, not gated):", wall);
  if (args.trace) print("per layer (traced run):", layers);
  auto object = [](const std::vector<std::pair<std::string, double>>& kv) {
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + kv[i].first + "\": " + JsonNumber(kv[i].second);
    }
    return out + "}";
  };
  auto phase = [&](const PhaseCounts& c) {
    return object({{"sent", static_cast<double>(c.sent)},
                   {"ok", static_cast<double>(c.ok)},
                   {"failed", static_cast<double>(c.failed)}});
  };
  std::vector<std::pair<std::string, double>> reported;
  for (const Metric& m : wall) reported.emplace_back(m.name, m.value);
  std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"nproc\": %ld, \"phases\": {\"setup\": %s, \"timed\": %s, "
              "\"check\": %s}, \"diagnostics\": %s, \"reported\": %s}}\n",
              args.workload.c_str(), args.seed, sysconf(_SC_NPROCESSORS_ONLN),
              phase(setup_counts).c_str(), phase(timed_counts).c_str(),
              phase(check_counts).c_str(),
              object({{"host.steal_ratio", steal_ratio},
                      {"host.calib_ms", calib_ms},
                      {"client.cpu_ms_per_req", client_cpu_per_req}})
                  .c_str(),
              object(reported).c_str());

  const std::vector<Metric>& out = args.trace ? layers : e2e;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(window.sent_in_window) +
                     ", \"failed\": " +
                     std::to_string(window.sent_in_window -
                                    window.ok_in_window) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
