// E17 — Contraction-hierarchy distance oracle: preprocessing once,
// point-to-point queries for a tenth of the pops.
//
// The paper's cost metric is "number of shortest path distance
// computations"; E12 showed each computation is itself a
// thousands-of-pops search. This bench measures the CH trade
// (DESIGN.md section 7): one-time preprocessing (node ordering +
// shortcut insertion) against per-query settled vertices / heap pops /
// latency, on the same kind of city-scale generated graph the
// simulator runs, versus the Dijkstra and A* engines the oracle shipped
// with. It also demonstrates the clone contract: a
// DistanceOracle::Clone under kContractionHierarchy reuses the shared
// immutable CHIndex (pointer-equal, microseconds) instead of
// re-preprocessing — which is what lets every dispatch/movement worker
// thread query the hierarchy concurrently.
//
// The interesting numbers are the per-query cost reductions and the
// preprocessing time/memory, not thread scaling; results go to
// BENCH_e17.json for trend tracking.
//
// Usage: bench_e17_ch_oracle [rows cols queries]   (default 100 100 4000)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "roadnet/ch.h"
#include "roadnet/distance_oracle.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace ptrider;

struct Row {
  const char* name;
  double seconds = 0.0;
  uint64_t pops = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int rows = argc > 1 ? std::atoi(argv[1]) : 100;
  const int cols = argc > 2 ? std::atoi(argv[2]) : 100;
  const size_t num_queries =
      argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 4000;

  bench::PrintHeader(
      "E17", "contraction-hierarchy distance oracle",
      "shared preprocessing vs per-query cost on a city-scale graph");

  auto graph = bench::MakeBenchCity(rows, cols);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %zu vertices, %zu directed edges (%dx%d grid)\n",
              graph->NumVertices(), graph->NumEdges(), rows, cols);

  // --- Preprocessing -------------------------------------------------------
  roadnet::DistanceOracleOptions ch_opts;
  ch_opts.algorithm = roadnet::SpAlgorithm::kContractionHierarchy;
  ch_opts.cache_capacity = 0;  // measure raw queries, not the pair cache
  util::WallTimer build_timer;
  roadnet::DistanceOracle ch_oracle(*graph, ch_opts);
  const double build_s = build_timer.ElapsedSeconds();
  const roadnet::CHIndex& index = *ch_oracle.ch_index();
  std::printf(
      "preprocessing: %.3f s, %zu shortcuts (%zu CH edges total), "
      "%.2f MiB index\n",
      build_s, index.num_shortcuts(), index.num_edges(),
      static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0));

  // --- Clone contract ------------------------------------------------------
  constexpr int kClones = 4;
  util::WallTimer clone_timer;
  std::vector<roadnet::DistanceOracle> clones;
  clones.reserve(kClones);
  for (int i = 0; i < kClones; ++i) clones.push_back(ch_oracle.Clone());
  const double clone_s = clone_timer.ElapsedSeconds() / kClones;
  bool shared = true;
  for (const roadnet::DistanceOracle& c : clones) {
    shared = shared && c.ch_index() == ch_oracle.ch_index();
  }
  if (!shared) {
    std::printf("ERROR: clone rebuilt the CH index\n");
    return 1;
  }
  std::printf(
      "clone: %.0f us each (index pointer-shared across %d clones — "
      "%.0fx cheaper than preprocessing)\n\n",
      clone_s * 1e6, kClones, build_s / (clone_s > 0 ? clone_s : 1e-9));

  // --- Query workload ------------------------------------------------------
  util::Rng rng(21);
  std::vector<std::pair<roadnet::VertexId, roadnet::VertexId>> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const auto u = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
    const auto v = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
    queries.push_back({u, v});
  }

  const auto run = [&](roadnet::SpAlgorithm algo, const char* name) {
    roadnet::DistanceOracleOptions opts;
    opts.algorithm = algo;
    opts.cache_capacity = 0;
    // CH reuses the already-built index via Clone (the production
    // path); the classic engines build their O(V) scratch fresh.
    roadnet::DistanceOracle oracle =
        algo == roadnet::SpAlgorithm::kContractionHierarchy
            ? ch_oracle.Clone()
            : roadnet::DistanceOracle(*graph, opts);
    double checksum = 0.0;
    util::WallTimer timer;
    for (const auto& [u, v] : queries) {
      const roadnet::Weight d = oracle.Distance(u, v);
      if (d != roadnet::kInfWeight) checksum += d;
    }
    Row row{name, timer.ElapsedSeconds(), oracle.heap_pops()};
    std::printf("  %-14s %9.3f s  %10.1f us/query  %8.1f pops/query"
                "  (checksum %.1f)\n",
                name, row.seconds,
                row.seconds * 1e6 / static_cast<double>(queries.size()),
                static_cast<double>(row.pops) /
                    static_cast<double>(queries.size()),
                checksum);
    return row;
  };

  std::printf("query cost over %zu random pairs (no pair cache):\n",
              queries.size());
  const Row dij = run(roadnet::SpAlgorithm::kDijkstra, "dijkstra");
  const Row astar = run(roadnet::SpAlgorithm::kAStar, "astar");
  const Row ch = run(roadnet::SpAlgorithm::kContractionHierarchy, "ch");

  // CH search-shape detail (settled vs stalled) via a raw CHQuery.
  roadnet::CHQuery detail(index);
  for (const auto& [u, v] : queries) (void)detail.Distance(u, v);
  const double per_q = static_cast<double>(queries.size());
  std::printf(
      "  ch detail: %.1f settled + %.1f stalled of %.1f pops/query\n",
      static_cast<double>(detail.total_settled()) / per_q,
      static_cast<double>(detail.total_stalled()) / per_q,
      static_cast<double>(detail.total_pops()) / per_q);

  const double pops_vs_dijkstra = static_cast<double>(dij.pops) /
                                  static_cast<double>(ch.pops);
  const double time_vs_dijkstra = dij.seconds / ch.seconds;
  const double pops_vs_astar = static_cast<double>(astar.pops) /
                               static_cast<double>(ch.pops);
  const double time_vs_astar = astar.seconds / ch.seconds;
  std::printf(
      "\nreduction vs dijkstra: %.1fx pops, %.1fx time\n"
      "reduction vs astar:    %.1fx pops, %.1fx time\n"
      "preprocessing amortizes after ~%.0f queries (vs astar)\n",
      pops_vs_dijkstra, time_vs_dijkstra, pops_vs_astar, time_vs_astar,
      build_s / ((astar.seconds - ch.seconds) / per_q));

  std::FILE* json = std::fopen("BENCH_e17.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(
      json,
      "{\n  \"experiment\": \"e17_ch_oracle\",\n"
      "  \"graph\": {\"rows\": %d, \"cols\": %d, \"vertices\": %zu, "
      "\"edges\": %zu},\n"
      "  \"preprocessing\": {\"seconds\": %.4f, \"shortcuts\": %zu, "
      "\"ch_edges\": %zu, \"memory_mib\": %.2f},\n"
      "  \"clone\": {\"index_shared\": true, \"seconds\": %.6f},\n"
      "  \"queries\": %zu,\n  \"engines\": [",
      rows, cols, graph->NumVertices(), graph->NumEdges(), build_s,
      index.num_shortcuts(), index.num_edges(),
      static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0),
      clone_s, queries.size());
  const Row* all[] = {&dij, &astar, &ch};
  for (size_t i = 0; i < 3; ++i) {
    std::fprintf(json,
                 "%s\n    {\"name\": \"%s\", \"pops_per_query\": %.1f, "
                 "\"us_per_query\": %.2f}",
                 i == 0 ? "" : ",", all[i]->name,
                 static_cast<double>(all[i]->pops) / per_q,
                 all[i]->seconds * 1e6 / per_q);
  }
  std::fprintf(
      json,
      "\n  ],\n  \"ch_detail\": {\"settled_per_query\": %.1f, "
      "\"stalled_per_query\": %.1f},\n"
      "  \"reduction\": {\"pops_vs_dijkstra\": %.1f, "
      "\"time_vs_dijkstra\": %.1f, \"pops_vs_astar\": %.1f, "
      "\"time_vs_astar\": %.1f}\n}\n",
      static_cast<double>(detail.total_settled()) / per_q,
      static_cast<double>(detail.total_stalled()) / per_q,
      pops_vs_dijkstra, time_vs_dijkstra, pops_vs_astar, time_vs_astar);
  std::fclose(json);
  std::printf("Wrote BENCH_e17.json\n");
  return 0;
}
