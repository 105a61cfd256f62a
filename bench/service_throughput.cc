// Throughput and tail latency of the concurrent DiffService: requests/s
// and p50/p99 end-to-end latency versus worker-thread count, on two
// workloads over the Section 8 synthetic documents:
//
//  * unique    — every request diffs a never-seen-before document pair, so
//                every resolve is a parse + index (cache miss) and the
//                pruned pipeline runs.
//  * hot-pairs — requests cycle over a small set of version pairs, the
//                warehouse pattern of diffing the same hot base against a
//                stream of revisions; after first touch both trees come
//                from the tree cache and the answer from the diff cache,
//                so no pipeline runs.
//
// NOTE when reading the numbers: thread scaling can only show on a machine
// with that many cores. On a single-core container every thread count
// measures roughly the same req/s (the workers time-slice one core); run on
// a multi-core host to see the scaling itself.
//
// Usage: service_throughput [--json] [--requests N] [--edits N]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "service/diff_service.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace treediff;
  using Clock = std::chrono::steady_clock;

  bool json = false;
  int requests = 400;
  int edits_per_version = 6;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--edits") == 0 && i + 1 < argc) {
      edits_per_version = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: service_throughput [--json] [--requests N] "
                   "[--edits N]\n");
      return 2;
    }
  }

  // Pre-generate every document as serialized s-expression text, exactly
  // what a service client would send: the measured path includes parsing
  // (on misses), indexing, matching, and script generation.
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(800, 1.0);
  Rng rng(20260806);
  DocGenParams params;
  params.sections = 4;

  struct Pair {
    std::string old_doc, new_doc;
  };
  std::vector<Pair> unique_pairs;
  for (int i = 0; i < requests; ++i) {
    Tree base = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion version = SimulateNewVersion(
        base, edits_per_version, bench::PaperEditMix(), vocab, &rng);
    unique_pairs.push_back(
        {base.ToDebugString(), version.new_tree.ToDebugString()});
  }
  // The hot set is a prefix of the unique set, so the two scenarios differ
  // only in reuse, not in document content.
  constexpr int kHotPairs = 10;
  const std::vector<Pair> hot_pairs(
      unique_pairs.begin(),
      unique_pairs.begin() + std::min<size_t>(kHotPairs, unique_pairs.size()));
  const size_t doc_nodes = GenerateDocument(params, vocab, &rng, labels).size();

  struct Row {
    const char* scenario;
    int threads;
    int requests;
    double wall_seconds;
    double rps;
    double p50_ms;
    double p99_ms;
    double hit_ratio;
    uint64_t shed;
  };
  std::vector<Row> rows;

  auto run = [&](const char* scenario, const std::vector<Pair>& pairs,
                 int threads) {
    DiffServiceOptions options;
    options.num_threads = threads;
    options.queue_capacity = static_cast<size_t>(requests) + 16;
    DiffService service(options);

    std::vector<std::future<DiffResponse>> futures;
    futures.reserve(static_cast<size_t>(requests));
    const auto t0 = Clock::now();
    for (int i = 0; i < requests; ++i) {
      const Pair& pair = pairs[static_cast<size_t>(i) % pairs.size()];
      DiffRequest request;
      request.old_doc = pair.old_doc;
      request.new_doc = pair.new_doc;
      request.want_script_text = false;  // Measure the pipeline, not I/O.
      futures.push_back(service.Submit(std::move(request)));
    }
    uint64_t shed = 0;
    StatAccumulator e2e;
    for (auto& f : futures) {
      const DiffResponse response = f.get();
      if (!response.status.ok()) ++shed;
      e2e.Add(response.total_seconds);
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    const TreeCache::Stats stats = service.cache_stats();
    rows.push_back({scenario, threads, requests, wall,
                    static_cast<double>(requests) / wall,
                    e2e.Percentile(50) * 1e3, e2e.Percentile(99) * 1e3,
                    static_cast<double>(stats.hits) /
                        static_cast<double>(stats.hits + stats.misses),
                    shed});
  };

  for (int threads : {1, 2, 4, 8}) {
    run("unique", unique_pairs, threads);
    run("hot-pairs", hot_pairs, threads);
  }

  if (json) {
    std::printf("[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "  {\"scenario\": \"%s\", \"threads\": %d, \"requests\": %d, "
          "\"wall_seconds\": %.6f, \"requests_per_second\": %.1f, "
          "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"cache_hit_ratio\": %.4f, "
          "\"shed\": %llu}%s\n",
          r.scenario, r.threads, r.requests, r.wall_seconds, r.rps, r.p50_ms,
          r.p99_ms, r.hit_ratio, static_cast<unsigned long long>(r.shed),
          i + 1 < rows.size() ? "," : "");
    }
    std::printf("]\n");
    return 0;
  }

  std::printf(
      "DiffService throughput (%d requests/run, ~%zu nodes/doc, %d edits "
      "per version)\n"
      "hardware threads available: %u\n\n",
      requests, doc_nodes, edits_per_version,
      std::thread::hardware_concurrency());
  TablePrinter table({"scenario", "threads", "req/s", "p50 ms", "p99 ms",
                      "cache hit", "shed"});
  char buf[64];
  for (const Row& r : rows) {
    std::vector<std::string> cells;
    cells.emplace_back(r.scenario);
    cells.emplace_back(std::to_string(r.threads));
    std::snprintf(buf, sizeof buf, "%.1f", r.rps);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.3f", r.p50_ms);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.3f", r.p99_ms);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.1f%%", r.hit_ratio * 100.0);
    cells.emplace_back(buf);
    cells.emplace_back(std::to_string(r.shed));
    table.AddRow(cells);
  }
  table.Print();
  return 0;
}
