// Loopback throughput and tail latency of the network front end: an
// in-process NetServer and the net/loadgen driver, sweeping connection
// count (toward the 1k-connection acceptance point) and event-loop thread
// count, closed-loop with pipelining. Before any measurement the harness
// proves the wire path is honest: responses served over TCP must be
// byte-identical to what DiffService::SubmitSync returns directly.
//
// Every sweep request writes its sequence number into the root value of
// both documents, so no two requests send the same text: each one parses,
// indexes and diffs (the root values are equal, so the script is the base
// pair's). The diff-cache hits of each sweep point are printed beside it
// and should read 0.
//
// NOTE when reading the numbers: event-loop thread scaling can only show
// on a machine with that many cores. On a single-core container every
// thread count measures roughly the same req/s (the loops time-slice one
// core); connection scaling is still meaningful — it exercises epoll
// fan-in, per-connection buffers, and the admission path at width.
//
// Usage: net_throughput [--json] [--tiny] [--requests N] [--pipeline N]
//   --tiny   CI smoke: identity check + one small sweep point, seconds.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "service/diff_service.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace treediff;
  using namespace treediff::net;

  bool json = false;
  bool tiny = false;
  uint64_t requests = 4000;
  size_t pipeline = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
      pipeline = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: net_throughput [--json] [--tiny] [--requests N] "
                   "[--pipeline N]\n");
      return 2;
    }
  }
  if (tiny) requests = std::min<uint64_t>(requests, 400);

  // Workload: Section 8 synthetic documents with the paper's edit mix,
  // serialized to the wire format clients actually send.
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(800, 1.0);
  Rng rng(20260808);
  DocGenParams params;
  params.sections = 2;

  struct Pair {
    std::string old_doc, new_doc;
  };
  std::vector<Pair> pairs;
  const int kPairs = tiny ? 8 : 32;
  for (int i = 0; i < kPairs; ++i) {
    Tree base = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion version = SimulateNewVersion(
        base, 6, bench::PaperEditMix(), vocab, &rng);
    pairs.push_back({base.ToDebugString(), version.new_tree.ToDebugString()});
  }

  auto server_options = [&] {
    NetServerOptions o;
    // A throughput rig must not shed: deep tenant queue, wide inflight,
    // and a dispatch window below the service queue capacity.
    o.admission.default_quota.max_queued = 1u << 20;
    o.admission.default_quota.max_inflight = 4096;
    o.admission.max_dispatched = 32;
    o.enable_metrics_endpoint = false;
    return o;
  };

  // ---- Byte-identity gate -------------------------------------------------
  // Two fresh services with identical label interning; every response
  // that crosses the wire must match the direct Submit path byte for byte.
  // Each pair is sent twice, so the second round is a diff-cache hit on
  // both sides and the cached-answer path crosses the wire too.
  {
    DiffService reference;
    DiffService served;
    NetServer server(&served, server_options());
    if (!server.Start().ok()) {
      std::fprintf(stderr, "net_throughput: server start failed\n");
      return 1;
    }
    SimpleClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      std::fprintf(stderr, "net_throughput: connect failed\n");
      return 1;
    }
    for (int round = 0; round < 2; ++round) {
      for (const Pair& p : pairs) {
        DiffRequest direct;
        direct.old_doc = p.old_doc;
        direct.new_doc = p.new_doc;
        const DiffResponse expected = reference.SubmitSync(std::move(direct));
        WireResponse got;
        if (!client.Diff(p.old_doc, p.new_doc, kFormatSexpr, &got).ok() ||
            !got.ok() || got.payload != expected.script ||
            got.value != static_cast<uint32_t>(expected.operations)) {
          std::fprintf(stderr,
                       "net_throughput: BYTE-IDENTITY FAILURE — wire response "
                       "differs from direct SubmitSync\n");
          return 1;
        }
        const bool wire_hit = (got.flags & kRespFlagMatchCache) != 0;
        if (wire_hit != (round == 1) ||
            expected.matching_cache_hit != wire_hit) {
          std::fprintf(stderr,
                       "net_throughput: round %d expected %s matching-cache "
                       "hit on both paths\n",
                       round, round == 1 ? "a" : "no");
          return 1;
        }
      }
    }
    server.Shutdown();
    if (!json) {
      std::printf("byte-identity: %d/%d wire responses identical to direct "
                  "SubmitSync (each pair sent twice: fresh, then "
                  "matching-cache hit)\n",
                  2 * kPairs, 2 * kPairs);
    }
  }

  // ---- Scaling sweep ------------------------------------------------------
  struct Row {
    int event_threads;
    size_t connections;
    size_t pipeline;
    uint64_t completed;
    uint64_t errors;
    uint64_t cache_hits;  // diff_match_cache_hits_total over the point.
    double rps;
    double p50_ms;
    double p95_ms;
    double p99_ms;
  };
  std::vector<Row> rows;
  bool all_ok = true;

  auto sweep_point = [&](int event_threads, size_t connections) {
    DiffService service;
    NetServerOptions o = server_options();
    o.num_event_threads = event_threads;
    NetServer server(&service, o);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "net_throughput: server start failed\n");
      all_ok = false;
      return;
    }
    LoadGenOptions lg;
    lg.port = server.port();
    lg.connections = connections;
    lg.pipeline = pipeline;
    // Every connection gets at least a few turns, whatever `requests` is.
    lg.total_requests =
        std::max<uint64_t>(requests, connections * pipeline * 2);
    lg.make_request = [&pairs](uint64_t seq) {
      const Pair& p = pairs[seq % pairs.size()];
      WireRequest r;
      r.opcode = Opcode::kDiff;
      r.flags = kFlagNoScript;  // Measure the pipeline, not script I/O.
      r.old_doc = bench::TagRoot(p.old_doc, seq);
      r.new_doc = bench::TagRoot(p.new_doc, seq);
      return r;
    };
    Counter* cache_hits =
        service.metrics().counter("diff_match_cache_hits_total");
    const uint64_t hits_before = cache_hits->Value();
    lg.max_run_seconds = tiny ? 60 : 300;
    StatusOr<LoadGenResult> result = RunLoadGen(lg);
    server.Shutdown();
    if (!result.ok()) {
      std::fprintf(stderr, "net_throughput: loadgen failed: %s\n",
                   result.status().ToString().c_str());
      all_ok = false;
      return;
    }
    const LoadGenResult& r = *result;
    uint64_t errors = 0;
    for (const auto& [code, n] : r.errors) errors += n;
    if (r.completed != r.sent || errors != 0 || r.connections_lost != 0) {
      all_ok = false;  // A bench run must account for every request.
    }
    rows.push_back({event_threads, connections, pipeline, r.completed,
                    errors, cache_hits->Value() - hits_before,
                    r.throughput_rps, r.p50_ms, r.p95_ms, r.p99_ms});
  };

  if (tiny) {
    sweep_point(2, 8);
  } else {
    // Connection scaling at 2 event threads, through the 1k acceptance
    // point; then event-thread scaling at a fixed moderate width.
    for (size_t connections : {1u, 8u, 64u, 256u, 1024u}) {
      sweep_point(2, connections);
    }
    for (int threads : {1, 4}) {
      sweep_point(threads, 256);
    }
  }

  if (json) {
    std::printf("[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "  {\"event_threads\": %d, \"connections\": %zu, "
          "\"pipeline\": %zu, \"completed\": %llu, \"errors\": %llu, "
          "\"diff_cache_hits\": %llu, "
          "\"requests_per_second\": %.1f, \"p50_ms\": %.3f, "
          "\"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
          r.event_threads, r.connections, r.pipeline,
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.errors),
          static_cast<unsigned long long>(r.cache_hits), r.rps, r.p50_ms,
          r.p95_ms, r.p99_ms, i + 1 < rows.size() ? "," : "");
    }
    std::printf("]\n");
  } else {
    std::printf(
        "\nnet_throughput: loopback, closed loop, pipeline=%zu, "
        "hardware threads: %u\n\n",
        pipeline, std::thread::hardware_concurrency());
    TablePrinter table({"loops", "conns", "completed", "errors",
                        "cache hits", "req/s", "p50 ms", "p95 ms", "p99 ms"});
    char buf[64];
    for (const Row& r : rows) {
      std::vector<std::string> cells;
      cells.emplace_back(std::to_string(r.event_threads));
      cells.emplace_back(std::to_string(r.connections));
      cells.emplace_back(std::to_string(r.completed));
      cells.emplace_back(std::to_string(r.errors));
      cells.emplace_back(std::to_string(r.cache_hits));
      std::snprintf(buf, sizeof buf, "%.1f", r.rps);
      cells.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.3f", r.p50_ms);
      cells.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.3f", r.p95_ms);
      cells.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.3f", r.p99_ms);
      cells.emplace_back(buf);
      table.AddRow(cells);
    }
    table.Print();
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "net_throughput: FAILURE — requests shed, lost, or "
                 "unanswered during the sweep\n");
    return 1;
  }
  return 0;
}
