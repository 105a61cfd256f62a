// Throughput and tail latency of the concurrent DiffService: requests/s
// and p50/p99 end-to-end latency versus worker-thread count, on two
// workloads over the Section 8 synthetic documents:
//
//  * unique    — every request diffs a never-seen-before document pair,
//                generated afresh for each batch, so every resolve is a
//                parse + index (cache miss), the pruned pipeline runs, and
//                the token memo sees new sentences.
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
// Each row submits batches of N requests (--requests, default 400) until
// its batches have taken at least --min-seconds (default 1) of wall time,
// and reports the number of requests it actually ran. A unique row
// generates each batch's pairs before the batch starts, outside the timed
// span; every unique row draws the same sequence of pairs. "memo hit" is
// the share of the service's token-memo lookups that found the value
// already tokenized.
//
// Usage: service_throughput [--json] [--requests N] [--min-seconds S]
//                           [--edits N]

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
  double min_seconds = 1.0;
  int edits_per_version = 6;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--min-seconds") == 0 && i + 1 < argc) {
      min_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--edits") == 0 && i + 1 < argc) {
      edits_per_version = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: service_throughput [--json] [--requests N] "
                   "[--min-seconds S] [--edits N]\n");
      return 2;
    }
  }

  // Every document is serialized s-expression text, exactly what a service
  // client would send: the measured path includes parsing (on misses),
  // indexing, matching, and script generation.
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(800, 1.0);
  DocGenParams params;
  params.sections = 4;
  constexpr uint64_t kPairSeed = 20260806;

  struct Pair {
    std::string old_doc, new_doc;
  };
  auto make_pairs = [&](size_t count, Rng* rng) {
    std::vector<Pair> pairs;
    for (size_t i = 0; i < count; ++i) {
      Tree base = GenerateDocument(params, vocab, rng, labels);
      SimulatedVersion version = SimulateNewVersion(
          base, edits_per_version, bench::PaperEditMix(), vocab, rng);
      pairs.push_back(
          {base.ToDebugString(), version.new_tree.ToDebugString()});
    }
    return pairs;
  };
  // The hot set is the first unique batch's prefix, so the two scenarios
  // differ only in reuse, not in document content.
  constexpr size_t kHotPairs = 10;
  Rng hot_rng(kPairSeed);
  const std::vector<Pair> hot_pairs = make_pairs(kHotPairs, &hot_rng);
  const size_t doc_nodes =
      GenerateDocument(params, vocab, &hot_rng, labels).size();

  struct Row {
    const char* scenario;
    int threads;
    uint64_t requests;  // Requests the row actually ran.
    double wall_seconds;
    double rps;
    double p50_ms;
    double p99_ms;
    double hit_ratio;
    double memo_hit_ratio;  // Token-memo lookups that found the value.
    uint64_t shed;
  };
  std::vector<Row> rows;

  // A unique row generates a fresh batch of pairs before each batch; a
  // hot-pairs row cycles `hot_pairs`.
  auto run = [&](const char* scenario, bool unique, int threads) {
    DiffServiceOptions options;
    options.num_threads = threads;
    options.queue_capacity = static_cast<size_t>(requests) + 16;
    DiffService service(options);

    Rng pair_rng(kPairSeed);
    std::vector<Pair> pairs = hot_pairs;
    uint64_t ran = 0;
    uint64_t shed = 0;
    StatAccumulator e2e;
    std::vector<std::future<DiffResponse>> futures;
    futures.reserve(static_cast<size_t>(requests));
    double wall = 0.0;
    do {
      if (unique) pairs = make_pairs(static_cast<size_t>(requests), &pair_rng);
      const auto t0 = Clock::now();
      for (int i = 0; i < requests; ++i, ++ran) {
        const Pair& pair = pairs[static_cast<size_t>(i) % pairs.size()];
        DiffRequest request;
        request.old_doc = pair.old_doc;
        request.new_doc = pair.new_doc;
        request.want_script_text = false;  // Measure the pipeline, not I/O.
        futures.push_back(service.Submit(std::move(request)));
      }
      for (auto& f : futures) {
        const DiffResponse response = f.get();
        if (!response.status.ok()) ++shed;
        e2e.Add(response.total_seconds);
      }
      futures.clear();
      wall += std::chrono::duration<double>(Clock::now() - t0).count();
    } while (wall < min_seconds);

    const TreeCache::Stats stats = service.cache_stats();
    const TokenMemo::Stats memo = service.token_memo_stats();
    const uint64_t memo_lookups = memo.hits + memo.misses;
    rows.push_back({scenario, threads, ran, wall,
                    static_cast<double>(ran) / wall,
                    e2e.Percentile(50) * 1e3, e2e.Percentile(99) * 1e3,
                    static_cast<double>(stats.hits) /
                        static_cast<double>(stats.hits + stats.misses),
                    memo_lookups == 0
                        ? 0.0
                        : static_cast<double>(memo.hits) /
                              static_cast<double>(memo_lookups),
                    shed});
  };

  for (int threads : {1, 2, 4, 8}) {
    run("unique", /*unique=*/true, threads);
    run("hot-pairs", /*unique=*/false, threads);
  }

  if (json) {
    std::printf("[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "  {\"scenario\": \"%s\", \"threads\": %d, \"requests\": %llu, "
          "\"wall_seconds\": %.6f, \"requests_per_second\": %.1f, "
          "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"cache_hit_ratio\": %.4f, "
          "\"token_memo_hit_ratio\": %.4f, \"shed\": %llu}%s\n",
          r.scenario, r.threads, static_cast<unsigned long long>(r.requests),
          r.wall_seconds, r.rps, r.p50_ms,
          r.p99_ms, r.hit_ratio, r.memo_hit_ratio,
          static_cast<unsigned long long>(r.shed),
          i + 1 < rows.size() ? "," : "");
    }
    std::printf("]\n");
    return 0;
  }

  std::printf(
      "DiffService throughput (batches of %d requests, >= %.1f s per row, "
      "~%zu nodes/doc, %d edits per version)\n"
      "hardware threads available: %u\n\n",
      requests, min_seconds, doc_nodes, edits_per_version,
      std::thread::hardware_concurrency());
  TablePrinter table({"scenario", "threads", "requests", "seconds", "req/s",
                      "p50 ms", "p99 ms", "cache hit", "memo hit", "shed"});
  char buf[64];
  for (const Row& r : rows) {
    std::vector<std::string> cells;
    cells.emplace_back(r.scenario);
    cells.emplace_back(std::to_string(r.threads));
    cells.emplace_back(std::to_string(r.requests));
    std::snprintf(buf, sizeof buf, "%.2f", r.wall_seconds);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.1f", r.rps);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.3f", r.p50_ms);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.3f", r.p99_ms);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.1f%%", r.hit_ratio * 100.0);
    cells.emplace_back(buf);
    std::snprintf(buf, sizeof buf, "%.1f%%", r.memo_hit_ratio * 100.0);
    cells.emplace_back(buf);
    cells.emplace_back(std::to_string(r.shed));
    table.AddRow(cells);
  }
  table.Print();
  return 0;
}
