#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the PTRider benchmark: command-line arguments, the
// result every workload returns, inputs generated from the seed, and
// process-level measurements (CPU time, peak RSS).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "roadnet/distance_oracle.h"
#include "roadnet/graph.h"
#include "roadnet/grid_index.h"
#include "sim/trip.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short run, every check still on.
  bool quick = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the last line of stdout is built from
/// this.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check (printed to stderr, first few only).
  void Fail(const std::string& what);

 private:
  int failures_printed_ = 0;
};

/// Process CPU seconds, user + system, all threads.
double CpuSeconds();
/// CPU seconds of the calling thread only.
double ThreadCpuSeconds();
/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Linear-interpolated percentile `p` in [0, 100] of `values` (0 when
/// empty).
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// The benchmark's street-grid city. The network is part of the workload
/// definition and does not depend on the seed; demand and fleet
/// placement do.
ptrider::util::Result<ptrider::roadnet::RoadNetwork> MakeCity(int rows,
                                                               int cols);

/// Hotspot demand with a flat hourly profile (the peak hour held
/// steady) over `duration_s`, sorted by arrival time.
ptrider::util::Result<std::vector<ptrider::sim::Trip>> MakeTrips(
    const ptrider::roadnet::RoadNetwork& graph, double trips_per_hour,
    double duration_s, uint64_t seed);

/// Wall and calling-thread CPU time spent on checks and probes between
/// windows, which the timed span leaves out.
class Excluded {
 public:
  void Begin();
  void End();
  double wall_s() const { return wall_us_ * 1e-6; }
  double cpu_s() const { return cpu_s_; }

 private:
  double begin_us_ = 0.0;
  double begin_cpu_s_ = 0.0;
  double wall_us_ = 0.0;
  double cpu_s_ = 0.0;
};

/// The end-to-end figures of one untraced run.
struct EndToEnd {
  std::vector<double> setup_s;
  double req_rps = 0.0;
  double cpu_ms_per_req = 0.0;
  /// Latency percentiles, wall milliseconds.
  double quote_p50_ms = 0.0, quote_p99_ms = 0.0;
  double assign_p50_ms = 0.0, assign_p99_ms = 0.0;
};
void AddEndToEnd(Outcome& out, const EndToEnd& e2e);

/// Every per-layer metric (README.md says which end-to-end metric each
/// should move, on which workload). A workload leaves at 0 what its
/// public calls cannot reach; README.md names those too.
struct LayerFigures {
  // roadnet
  double sp_searches_per_req = 0, distance_us = 0, path_us = 0,
         lower_bound_ns = 0, grid_build_s = 0, ch_build_s = 0;
  // vehicle
  double sequences_per_req = 0, exact_validated_per_req = 0,
         bound_pruned_ratio = 0, trial_insert_us = 0,
         branches_per_busy_vehicle = 0, index_updates_per_tick = 0;
  // core
  double vehicles_examined_per_req = 0, vehicles_pruned_per_req = 0,
         cells_visited_per_req = 0, options_per_req = 0, match_us_p50 = 0,
         match_us_p99 = 0;
  // dispatch
  double window_ms_p50 = 0, window_ms_p99 = 0, batch_size_p50 = 0,
         match_s = 0, cpu_per_wall = 0, pipeline_fill_s = 0,
         pipeline_stall_s = 0;
  // sim
  double tick_ms_p50 = 0, tick_ms_p99 = 0, advance_s = 0, move_commit_s = 0,
         reindex_s = 0;
  // service (printed only by service_steady, which sets service_layer)
  bool service_layer = false;
  double queue_depth_p99 = 0, busy_ratio = 0, generator_late_ms_p99 = 0;
  /// req_rps of the traced run itself (tracing overhead = untraced
  /// req_rps over this).
  double traced_req_rps = 0;
};
void AddLayerMetrics(Outcome& out, const LayerFigures& f);

class Trace;

/// Traced runs: times GridIndex::Build and CHIndex::Build on `graph` on
/// their own, then DistanceOracle::Distance and ShortestPath on a
/// cache-disabled clone of `oracle` and GridIndex::LowerBound, over
/// `pairs` (a fixed sample of the run's request endpoints). Fills the
/// roadnet figures from the recorded spans.
void ProbeRoadnet(
    Trace& trace, const ptrider::roadnet::RoadNetwork& graph,
    const ptrider::roadnet::DistanceOracle& oracle,
    const ptrider::roadnet::GridIndex& grid,
    const std::vector<std::pair<ptrider::roadnet::VertexId,
                                ptrider::roadnet::VertexId>>& pairs,
    LayerFigures& f);

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupRepetitions = 7;

Outcome RunReplay(const Args& args);
Outcome RunService(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
