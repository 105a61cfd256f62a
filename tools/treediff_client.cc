// treediff_client: command-line client and load generator for the binary
// protocol served by treediff_serve --port (docs/network.md).
//
// One-shot commands (connect, one request, print, exit):
//
//   treediff_client --port P ping
//   treediff_client --port P diff <sexpr|xml> <old_doc> <new_doc>
//   treediff_client --port P open [--replicas N] <doc_id> <sexpr|xml> <base>
//   treediff_client --port P commit <doc_id> <sexpr|xml> <doc>
//   treediff_client --port P vdiff <doc_id> <from> <to>
//   treediff_client --port P status
//   treediff_client --port P metrics
//
// A command exits 0 on an OK response and 1 on any error. diff and vdiff
// print "ops=<n> pruned=<n> flags=0x<hex>" and then the edit script; open
// and commit print "OK version=<v>"; status prints one store= line per
// store (plus a REPL line per replicated store); metrics prints the
// Prometheus text. `open --replicas N` (N >= 1) creates an N-replica group
// whose logs live under the server's --store-dir.
//
// Load generation (the interesting mode):
//
//   treediff_client --port P load [--connections N] [--pipeline D]
//       [--requests N] [--rps R] [--tenant NAME] [--format sexpr|xml]
//       [--old DOC] [--new DOC] [--json]
//
// With --rps 0 (default) the generator runs CLOSED loop: every connection
// keeps D requests in flight and a completion immediately triggers the next
// send — this measures server capacity. With --rps > 0 it runs OPEN loop:
// requests are issued on a fixed aggregate schedule regardless of
// completions — this measures latency under a fixed offered load without
// the coordinated-omission blind spot of closed-loop drivers.
//
// --tenant stamps every request with a tenant id, which the server's
// fair-share admission uses for isolation; run two clients with different
// tenants to watch the weighted-deficit scheduler arbitrate.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/client.h"
#include "net/loadgen.h"
#include "net/wire.h"

namespace {

using treediff::net::kFormatSexpr;
using treediff::net::kFormatXml;
using treediff::net::LoadGenOptions;
using treediff::net::LoadGenResult;
using treediff::net::Opcode;
using treediff::net::SimpleClient;
using treediff::net::WireRequest;
using treediff::net::WireResponse;

int Usage() {
  std::fprintf(
      stderr,
      "usage: treediff_client [--host H] --port P <command>\n"
      "  ping\n"
      "  diff <sexpr|xml> <old_doc> <new_doc>\n"
      "  open [--replicas N] <doc_id> <sexpr|xml> <base_doc>\n"
      "  commit <doc_id> <sexpr|xml> <doc>\n"
      "  vdiff <doc_id> <from> <to>\n"
      "  status\n"
      "  metrics\n"
      "  load [--connections N] [--pipeline D] [--requests N] [--rps R]\n"
      "       [--tenant NAME] [--format sexpr|xml] [--old DOC] [--new DOC]\n"
      "       [--json]\n");
  return 2;
}

bool ParseFormat(const std::string& name, uint8_t* format) {
  if (name == "sexpr") {
    *format = kFormatSexpr;
    return true;
  }
  if (name == "xml") {
    *format = kFormatXml;
    return true;
  }
  return false;
}

/// Strict base-10 integer in [lo, hi].
bool ParseInt(const char* text, long lo, long hi, long* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// One request-response command over `client`; `args` are the words after
/// the command name. Returns the process exit code.
int RunOneShot(SimpleClient& client, const std::string& command, int nargs,
               char** args) {
  WireResponse response;  // Stays OK for the text-only commands.
  std::string text;
  treediff::Status status = treediff::Status::Ok();
  uint8_t format = kFormatSexpr;
  long replicas = 0;
  long from = 0;
  long to = 0;
  if (command == "open" && nargs >= 2 &&
      std::strcmp(args[0], "--replicas") == 0) {
    if (!ParseInt(args[1], 0, treediff::net::kMaxReplicas, &replicas)) {
      return Usage();
    }
    args += 2;
    nargs -= 2;
  }
  if (command == "ping" && nargs == 0) {
    status = client.Ping();
    text = "PONG\n";
  } else if (command == "metrics" && nargs == 0) {
    status = client.Metrics(&text);
  } else if (command == "status" && nargs == 0) {
    status = client.StatusText(&text);
  } else if (command == "diff" && nargs == 3 &&
             ParseFormat(args[0], &format)) {
    status = client.Diff(args[1], args[2], format, &response);
  } else if (command == "vdiff" && nargs == 3 &&
             ParseInt(args[1], INT32_MIN, INT32_MAX, &from) &&
             ParseInt(args[2], INT32_MIN, INT32_MAX, &to)) {
    status = client.Vdiff(args[0], static_cast<int32_t>(from),
                          static_cast<int32_t>(to), &response);
  } else if (command == "open" && nargs == 3 &&
             ParseFormat(args[1], &format)) {
    status = client.Open(args[0], args[2], format, &response,
                         static_cast<uint32_t>(replicas));
  } else if (command == "commit" && nargs == 3 &&
             ParseFormat(args[1], &format)) {
    status = client.Commit(args[0], args[2], format, &response);
  } else {
    return Usage();
  }
  if (status.ok() && !response.ok()) {
    status = treediff::Status(response.code(), response.payload);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "treediff_client: %s\n", status.ToString().c_str());
    return 1;
  }
  if (command == "diff" || command == "vdiff") {
    std::printf("ops=%u pruned=%u flags=0x%02x\n%s", response.value,
                response.aux, response.flags, response.payload.c_str());
  } else if (command == "open" || command == "commit") {
    std::printf("OK version=%u\n", response.value);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

void PrintResult(const LoadGenResult& r, bool json) {
  if (json) {
    std::printf(
        "{\"sent\": %llu, \"completed\": %llu, \"ok\": %llu, "
        "\"errors\": %llu, \"connections_lost\": %llu, "
        "\"elapsed_seconds\": %.3f, \"throughput_rps\": %.1f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"max_ms\": %.3f, \"bytes_written\": %llu, \"bytes_read\": %llu}\n",
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.completed - r.ok),
        static_cast<unsigned long long>(r.connections_lost),
        r.elapsed_seconds, r.throughput_rps, r.p50_ms, r.p95_ms, r.p99_ms,
        r.max_ms, static_cast<unsigned long long>(r.bytes_written),
        static_cast<unsigned long long>(r.bytes_read));
    return;
  }
  std::printf("sent %llu, completed %llu (%llu ok) in %.3fs = %.1f req/s\n",
              static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.ok), r.elapsed_seconds,
              r.throughput_rps);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
              r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms);
  for (const auto& [code, count] : r.errors) {
    std::printf("errors %s: %llu\n",
                treediff::CodeName(static_cast<treediff::Code>(code)),
                static_cast<unsigned long long>(count));
  }
  if (r.connections_lost > 0) {
    std::printf("connections lost: %llu\n",
                static_cast<unsigned long long>(r.connections_lost));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else {
      break;
    }
  }
  if (port <= 0 || port > 65535 || i >= argc) return Usage();
  const std::string command = argv[i++];

  if (command != "load") {
    SimpleClient client;
    const treediff::Status connected =
        client.Connect(host, static_cast<uint16_t>(port));
    if (!connected.ok()) {
      std::fprintf(stderr, "treediff_client: %s\n",
                   connected.ToString().c_str());
      return 1;
    }
    return RunOneShot(client, command, argc - i, argv + i);
  }

  LoadGenOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  std::string tenant;
  uint8_t format = kFormatSexpr;
  std::string old_doc =
      "(D (P (S \"alpha beta gamma\") (S \"delta epsilon\")))";
  std::string new_doc =
      "(D (P (S \"alpha beta zeta\") (S \"delta epsilon\") (S \"theta\")))";
  bool json = false;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--connections") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.connections = static_cast<size_t>(std::atol(v));
    } else if (arg == "--pipeline") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.pipeline = static_cast<size_t>(std::atol(v));
    } else if (arg == "--requests") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.total_requests = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--rps") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.open_loop_rps = std::atof(v);
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return Usage();
      tenant = v;
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr || !ParseFormat(v, &format)) return Usage();
    } else if (arg == "--old") {
      const char* v = next();
      if (v == nullptr) return Usage();
      old_doc = v;
    } else if (arg == "--new") {
      const char* v = next();
      if (v == nullptr) return Usage();
      new_doc = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      return Usage();
    }
  }

  options.make_request = [&](uint64_t) {
    WireRequest request;
    request.opcode = Opcode::kDiff;
    request.format = format;
    request.tenant = tenant;
    request.flags = treediff::net::kFlagNoScript;
    request.old_doc = old_doc;
    request.new_doc = new_doc;
    return request;
  };

  const treediff::StatusOr<LoadGenResult> result =
      treediff::net::RunLoadGen(options);
  if (!result.ok()) {
    std::fprintf(stderr, "treediff_client: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintResult(*result, json);
  return 0;
}
