#include <string>

#include "bench.h"
#include "roadnet/ch.h"
#include "trace.h"

namespace perfbench {

namespace pr = ptrider::roadnet;

void AddEndToEnd(Outcome& out, const EndToEnd& e2e) {
  out.Add("setup_s", Percentile(e2e.setup_s, 50), "s");
  out.Add("req_rps", e2e.req_rps, "1/s");
  out.Add("cpu_ms_per_req", e2e.cpu_ms_per_req, "ms");
  out.Add("quote_p50_ms", e2e.quote_p50_ms, "ms");
  out.Add("quote_p99_ms", e2e.quote_p99_ms, "ms");
  out.Add("assign_p50_ms", e2e.assign_p50_ms, "ms");
  out.Add("assign_p99_ms", e2e.assign_p99_ms, "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddLayerMetrics(Outcome& out, const LayerFigures& f) {
  out.Add("roadnet.sp_searches_per_req", f.sp_searches_per_req, "count");
  out.Add("roadnet.distance_us", f.distance_us, "us");
  out.Add("roadnet.path_us", f.path_us, "us");
  out.Add("roadnet.lower_bound_ns", f.lower_bound_ns, "ns");
  out.Add("roadnet.grid_build_s", f.grid_build_s, "s");
  out.Add("roadnet.ch_build_s", f.ch_build_s, "s");
  out.Add("vehicle.sequences_per_req", f.sequences_per_req, "count");
  out.Add("vehicle.exact_validated_per_req", f.exact_validated_per_req,
          "count");
  out.Add("vehicle.bound_pruned_ratio", f.bound_pruned_ratio, "ratio");
  out.Add("vehicle.trial_insert_us", f.trial_insert_us, "us");
  out.Add("vehicle.branches_per_busy_vehicle", f.branches_per_busy_vehicle,
          "count");
  out.Add("vehicle.index_updates_per_tick", f.index_updates_per_tick,
          "count");
  out.Add("core.vehicles_examined_per_req", f.vehicles_examined_per_req,
          "count");
  out.Add("core.vehicles_pruned_per_req", f.vehicles_pruned_per_req,
          "count");
  out.Add("core.cells_visited_per_req", f.cells_visited_per_req, "count");
  out.Add("core.options_per_req", f.options_per_req, "count");
  out.Add("core.match_us_p50", f.match_us_p50, "us");
  out.Add("core.match_us_p99", f.match_us_p99, "us");
  out.Add("dispatch.window_ms_p50", f.window_ms_p50, "ms");
  out.Add("dispatch.window_ms_p99", f.window_ms_p99, "ms");
  out.Add("dispatch.batch_size_p50", f.batch_size_p50, "count");
  out.Add("dispatch.match_s", f.match_s, "s");
  out.Add("dispatch.cpu_per_wall", f.cpu_per_wall, "ratio");
  out.Add("dispatch.pipeline_fill_s", f.pipeline_fill_s, "s");
  out.Add("dispatch.pipeline_stall_s", f.pipeline_stall_s, "s");
  out.Add("sim.tick_ms_p50", f.tick_ms_p50, "ms");
  out.Add("sim.tick_ms_p99", f.tick_ms_p99, "ms");
  out.Add("sim.advance_s", f.advance_s, "s");
  out.Add("sim.move_commit_s", f.move_commit_s, "s");
  out.Add("sim.reindex_s", f.reindex_s, "s");
  if (f.service_layer) {
    out.Add("service.queue_depth_p99", f.queue_depth_p99, "count");
    out.Add("service.busy_ratio", f.busy_ratio, "ratio");
    out.Add("service.generator_late_ms_p99", f.generator_late_ms_p99, "ms");
  }
  out.Add("trace.req_rps", f.traced_req_rps, "1/s");
}

void ProbeRoadnet(
    Trace& trace, const pr::RoadNetwork& graph,
    const pr::DistanceOracle& oracle, const pr::GridIndex& grid,
    const std::vector<std::pair<pr::VertexId, pr::VertexId>>& pairs,
    LayerFigures& f) {
  {
    ScopedSpan span(trace, "roadnet", "GridIndex::Build");
    (void)pr::GridIndex::Build(graph);
  }
  {
    ScopedSpan span(trace, "roadnet", "CHIndex::Build");
    (void)pr::CHIndex::Build(graph);
  }
  pr::DistanceOracleOptions no_cache;
  no_cache.cache_capacity = 0;
  pr::DistanceOracle cold = oracle.CloneWith(no_cache);
  for (const auto& [u, v] : pairs) {
    ScopedSpan span(trace, "roadnet", "DistanceOracle::Distance");
    (void)cold.Distance(u, v);
  }
  for (const auto& [u, v] : pairs) {
    ScopedSpan span(trace, "roadnet", "DistanceOracle::ShortestPath");
    (void)cold.ShortestPath(u, v);
  }
  // One LowerBound call is tens of nanoseconds, below the timer's
  // resolution: one span covers many rounds over the sample.
  constexpr int kBoundRounds = 64;
  {
    ScopedSpan span(trace, "roadnet", "GridIndex::LowerBound",
                    static_cast<double>(pairs.size() * kBoundRounds));
    volatile double sink = 0.0;  // keeps the calls from being elided
    for (int k = 0; k < kBoundRounds; ++k) {
      for (const auto& [u, v] : pairs) sink = sink + grid.LowerBound(u, v);
    }
  }
  f.grid_build_s = trace.TotalUs("GridIndex::Build") * 1e-6;
  f.ch_build_s = trace.TotalUs("CHIndex::Build") * 1e-6;
  f.distance_us = trace.UsPerItem("DistanceOracle::Distance");
  f.path_us = trace.UsPerItem("DistanceOracle::ShortestPath");
  f.lower_bound_ns = trace.UsPerItem("GridIndex::LowerBound") * 1e3;
}

}  // namespace perfbench
