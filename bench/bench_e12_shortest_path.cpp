// E12 — Substrate microbenchmark: point-to-point shortest paths.
//
// The matchers' exact-distance cost center. Compares Dijkstra, A*
// (Euclidean heuristic) and contraction hierarchies, plus the effect of
// the oracle's LRU pair cache under a matching-like access pattern.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "roadnet/distance_oracle.h"
#include "util/random.h"

namespace {

using namespace ptrider;

const roadnet::RoadNetwork& Graph() {
  static const roadnet::RoadNetwork graph = [] {
    auto g = bench::MakeBenchCity(70, 70);
    if (!g.ok()) std::abort();
    return std::move(g).value();
  }();
  return graph;
}

/// kContractionHierarchy oracles are cloned off one static prototype so
/// the one-time preprocessing runs once, not per benchmark — exactly
/// the shared-index production path (DESIGN.md section 7).
roadnet::DistanceOracle MakeOracle(roadnet::SpAlgorithm algo,
                                   size_t cache) {
  roadnet::DistanceOracleOptions opts;
  opts.algorithm = algo;
  opts.cache_capacity = cache;
  if (algo == roadnet::SpAlgorithm::kContractionHierarchy) {
    static const roadnet::DistanceOracle* prototype =
        new roadnet::DistanceOracle(Graph(), [] {
          roadnet::DistanceOracleOptions o;
          o.algorithm = roadnet::SpAlgorithm::kContractionHierarchy;
          o.cache_capacity = 0;
          return o;
        }());
    return prototype->CloneWith(opts);
  }
  return roadnet::DistanceOracle(Graph(), opts);
}

void BM_PointToPoint(benchmark::State& state, roadnet::SpAlgorithm algo,
                     size_t cache) {
  const roadnet::RoadNetwork& graph = Graph();
  roadnet::DistanceOracle oracle = MakeOracle(algo, cache);
  // Matching-like pattern: queries cluster around a few focal vertices
  // (request starts), giving the cache realistic hit rates.
  util::Rng rng(21);
  std::vector<std::pair<roadnet::VertexId, roadnet::VertexId>> queries;
  for (int focal = 0; focal < 32; ++focal) {
    const auto s = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph.NumVertices()) - 1));
    for (int i = 0; i < 64; ++i) {
      const auto v = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(graph.NumVertices()) - 1));
      queries.push_back({s, v});
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(oracle.Distance(u, v));
  }
  state.counters["hit_rate"] =
      oracle.queries() > 0
          ? static_cast<double>(oracle.cache_hits()) /
                static_cast<double>(oracle.queries())
          : 0.0;
}

void BM_Dijkstra(benchmark::State& s) {
  BM_PointToPoint(s, roadnet::SpAlgorithm::kDijkstra, 0);
}
void BM_AStar(benchmark::State& s) {
  BM_PointToPoint(s, roadnet::SpAlgorithm::kAStar, 0);
}
void BM_AStarCached(benchmark::State& s) {
  BM_PointToPoint(s, roadnet::SpAlgorithm::kAStar, 1 << 20);
}
void BM_CH(benchmark::State& s) {
  BM_PointToPoint(s, roadnet::SpAlgorithm::kContractionHierarchy, 0);
}
void BM_CHCached(benchmark::State& s) {
  BM_PointToPoint(s, roadnet::SpAlgorithm::kContractionHierarchy,
                  1 << 20);
}

BENCHMARK(BM_Dijkstra)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AStar)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AStarCached)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CH)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CHCached)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  ptrider::bench::PrintHeader(
      "E12", "shortest-path substrate",
      "p2p query latency: Dijkstra vs A* vs CH vs cached oracle on a "
      "4.9k-vertex city");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "\nShape check: CH < A* < Dijkstra on planar city\n"
      "graphs (CH pays one-time preprocessing, excluded above via the\n"
      "shared-index clone); the LRU cache collapses repeated matcher\n"
      "queries. E17 measures the CH trade in detail.\n");
  return 0;
}
