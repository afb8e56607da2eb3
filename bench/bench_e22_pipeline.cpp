// E22 — pipelined tick engine: the same city-day simulation at
// pipeline_depth 1 and 3 (DESIGN.md section 15).
//
// Depth 1 is the strictly sequential loop. Every depth >= 2 runs one
// schedule: each tick's end-of-tick index re-registration batch floats
// onto a stage thread and overlaps later ticks until the next window's
// dispatch joins it. A determinism signature over the report's semantic
// fields asserts both depths produced the identical simulation — depth
// buys wall clock, never a different answer.
//
// Each depth runs three times, interleaved (1, 3, 1, 3, 1, 3) so slow
// stretches of a shared machine hit both alike; the table and JSON
// report the median wall clock and the median process CPU time. At
// depth 3 the phase columns OVERLAP and may sum past wall(s): `fill` is
// the span that ran concurrently, `stall` the span the driver spent
// blocked joining a floated batch.
//
// Usage: bench_e22_pipeline [taxis] [trips] [hours] [--ci]
//   --ci: small workload, one run per depth, signature assertions only,
//         no JSON (seconds).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

uint64_t HashCombine(uint64_t h, uint64_t x) {
  return (h ^ (x + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Signature over everything deterministic a report promises: counts,
/// revenue, exact fleet distances and service-quality sums. Wall-clock
/// aggregates (and so the fill/stall split) are excluded by
/// construction.
uint64_t ReportSignature(const ptrider::sim::SimulationReport& r) {
  uint64_t h = 1469598103934665603ULL;
  h = HashCombine(h, static_cast<uint64_t>(r.requests_assigned));
  h = HashCombine(h, static_cast<uint64_t>(r.requests_completed));
  h = HashCombine(h, static_cast<uint64_t>(r.requests_shared));
  h = HashCombine(h, static_cast<uint64_t>(r.requests_declined));
  h = HashCombine(h, DoubleBits(r.revenue_total));
  h = HashCombine(h, DoubleBits(r.fleet_total_distance_m));
  h = HashCombine(h, DoubleBits(r.fleet_occupied_distance_m));
  h = HashCombine(h, DoubleBits(r.fleet_shared_distance_m));
  h = HashCombine(h, DoubleBits(r.pickup_wait_s.sum()));
  h = HashCombine(h, DoubleBits(r.quoted_price.sum()));
  h = HashCombine(h, DoubleBits(r.detour_ratio.sum()));
  h = HashCombine(h, DoubleBits(r.submit_delay_s.sum()));
  return h;
}

/// CPU seconds of every thread of this process so far.
double ProcessCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One depth's runs; `cpu` is process CPU time over each run.
struct Runs {
  int depth = 1;
  std::vector<double> wall, cpu, match, advance, commit, reindex, fill,
      stall;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ptrider;
  size_t taxis = 600;
  size_t num_trips = 4000;
  double hours = 1.0;
  bool ci = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) {
      ci = true;
    } else if (positional == 0) {
      taxis = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      num_trips = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else {
      hours = std::strtod(argv[i], nullptr);
      ++positional;
    }
  }
  if (ci && positional == 0) {
    taxis = 80;
    num_trips = 400;
    hours = 0.25;
  }
  const int reps = ci ? 1 : 3;

  bench::PrintHeader(
      "E22", "pipelined tick engine (floated reindex)",
      "city-day simulation wall and CPU time at pipeline depth 1 and 3");

  auto graph = bench::MakeBenchCity(ci ? 18 : 36, ci ? 18 : 36);
  if (!graph.ok()) return 1;
  sim::HotspotWorkloadOptions wopts;
  wopts.num_trips = num_trips;
  wopts.duration_s = hours * 3600.0;
  auto trips = sim::GenerateHotspotTrips(*graph, wopts);
  if (!trips.ok()) return 1;

  const auto run = [&](int depth) -> util::Result<sim::SimulationReport> {
    core::Config cfg;
    cfg.matcher = core::MatcherAlgorithm::kDualSide;
    cfg.max_planned_pickup_s = cfg.default_max_wait_s;
    // Parallel dispatch, parallel movement and a sharded index: the
    // floated batches meet both worker pools and, with 4 shards, can
    // apply concurrently when their shard masks are disjoint.
    cfg.dispatch_threads = 2;
    cfg.index_shards = 4;
    sim::SimulatorOptions sopts;
    sopts.batch_window_s = 2.0;
    sopts.move_jobs = 2;
    sopts.pipeline_depth = depth;
    sopts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
    return bench::RunScenario(*graph, cfg, taxis, *trips, sopts);
  };

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf(
      "workload: %zu trips / %zu taxis / %.2f h (+drain); "
      "%u hardware threads; %d run(s) per depth, medians shown\n\n",
      trips->size(), taxis, hours, hw_threads, reps);

  std::vector<Runs> runs(2);
  runs[1].depth = 3;
  uint64_t reference_signature = 0;
  bool have_reference = false;
  size_t completed = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (Runs& r : runs) {
      const double cpu0 = ProcessCpuSeconds();
      auto report = run(r.depth);
      const double cpu = ProcessCpuSeconds() - cpu0;
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        return 1;
      }
      const uint64_t signature = ReportSignature(*report);
      if (!have_reference) {
        reference_signature = signature;
        have_reference = true;
        completed = static_cast<size_t>(report->requests_completed);
      } else if (signature != reference_signature) {
        std::printf("DETERMINISM VIOLATION at pipeline depth %d\n",
                    r.depth);
        return 1;
      }
      if (r.depth == 1 && (report->pipeline_fill_seconds != 0.0 ||
                           report->pipeline_stall_seconds != 0.0)) {
        std::printf(
            "FAIL: depth 1 engaged the pipeline (fill/stall nonzero)\n");
        return 1;
      }
      r.wall.push_back(report->wall_clock_seconds);
      r.cpu.push_back(cpu);
      r.match.push_back(report->match_phase_seconds);
      r.advance.push_back(report->move_advance_seconds);
      r.commit.push_back(report->move_commit_seconds);
      r.reindex.push_back(report->index_update_seconds);
      r.fill.push_back(report->pipeline_fill_seconds);
      r.stall.push_back(report->pipeline_stall_seconds);
    }
  }

  std::printf("%5s %8s %8s %8s %8s %9s %8s %8s %8s %8s\n", "depth",
              "wall(s)", "cpu(s)", "match(s)", "adv(s)", "commit(s)",
              "reidx(s)", "fill(s)", "stall(s)", "speedup");
  const double base_wall = Median(runs[0].wall);
  for (const Runs& r : runs) {
    std::printf(
        "%5d %8.3f %8.3f %8.3f %8.3f %9.3f %8.3f %8.3f %8.3f %7.3fx\n",
        r.depth, Median(r.wall), Median(r.cpu), Median(r.match),
        Median(r.advance), Median(r.commit), Median(r.reindex),
        Median(r.fill), Median(r.stall), base_wall / Median(r.wall));
  }
  std::printf(
      "\nBoth pipeline depths produced the identical simulation "
      "(signature %llx, %zu trips completed).\n",
      static_cast<unsigned long long>(reference_signature), completed);

  if (ci) {
    std::printf("--ci: determinism and phase-split assertions passed\n");
    return 0;
  }

  std::FILE* json = std::fopen("BENCH_e22.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "{\n  \"experiment\": \"e22_pipeline\",\n"
               "  \"taxis\": %zu,\n  \"trips\": %zu,\n"
               "  \"hours\": %.2f,\n  \"hardware_threads\": %u,\n"
               "  \"dispatch_threads\": 2,\n  \"index_shards\": 4,\n"
               "  \"move_jobs\": 2,\n  \"runs_per_depth\": %d,\n"
               "  \"statistic\": \"median\",\n"
               "  \"deterministic\": true,\n  \"runs\": [",
               taxis, trips->size(), hours, hw_threads, reps);
  for (size_t i = 0; i < runs.size(); ++i) {
    const Runs& r = runs[i];
    std::fprintf(
        json,
        "%s\n    {\"pipeline_depth\": %d, \"wall_seconds\": %.4f, "
        "\"cpu_seconds\": %.4f, \"match_seconds\": %.4f, "
        "\"move_advance_seconds\": %.4f, \"move_commit_seconds\": %.4f, "
        "\"index_update_seconds\": %.4f, "
        "\"pipeline_fill_seconds\": %.4f, "
        "\"pipeline_stall_seconds\": %.4f, \"speedup\": %.3f}",
        i == 0 ? "" : ",", r.depth, Median(r.wall), Median(r.cpu),
        Median(r.match), Median(r.advance), Median(r.commit),
        Median(r.reindex), Median(r.fill), Median(r.stall),
        base_wall / Median(r.wall));
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote BENCH_e22.json\n");
  return 0;
}
