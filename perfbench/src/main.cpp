// PTRider benchmark: one command, three workloads.
//
//   perfbench --workload <rush_pool|metro_cruise|service_steady>
//             --seed <n> --seconds <s> --trace <0|1> [--quick]
//             [--trace-file <path>]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics in an untraced run (--trace 0) and the
// per-layer metrics in a traced run (--trace 1). See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "trace.h"
#include "roadnet/graph_generator.h"
#include "sim/workload.h"
#include "util/random.h"

namespace perfbench {

void Outcome::Fail(const std::string& what) {
  correct = false;
  if (failures_printed_ < 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_printed_;
  }
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double ThreadCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

void Excluded::Begin() {
  begin_us_ = NowUs();
  begin_cpu_s_ = ThreadCpuSeconds();
}

void Excluded::End() {
  wall_us_ += NowUs() - begin_us_;
  cpu_s_ += ThreadCpuSeconds() - begin_cpu_s_;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

ptrider::util::Result<ptrider::roadnet::RoadNetwork> MakeCity(int rows,
                                                               int cols) {
  ptrider::roadnet::CityGridOptions opts;
  opts.rows = rows;
  opts.cols = cols;
  opts.spacing_m = 250.0;
  opts.seed = 7;
  return ptrider::roadnet::MakeCityGrid(opts);
}

ptrider::util::Result<std::vector<ptrider::sim::Trip>> MakeTrips(
    const ptrider::roadnet::RoadNetwork& graph, double trips_per_hour,
    double duration_s, uint64_t seed) {
  // The hotspot layout belongs to the city, like the network: a pool of
  // twice the needed trips is drawn once with a fixed generator seed.
  // The run's seed picks which half arrives and when, so runs differ in
  // demand but not in where the hotspots are, and no trip repeats.
  const size_t count = static_cast<size_t>(
      std::ceil(trips_per_hour * duration_s / 3600.0));
  ptrider::sim::HotspotWorkloadOptions opts;
  opts.num_trips = 2 * count;
  opts.duration_s = duration_s;
  opts.hourly_profile.fill(1.0);
  auto pool = ptrider::sim::GenerateHotspotTrips(graph, opts);
  if (!pool.ok()) return pool.status();
  ptrider::util::Rng rng(seed);
  std::vector<ptrider::sim::Trip>& trips = *pool;
  for (size_t i = 0; i < count && i + 1 < trips.size(); ++i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(i), static_cast<int64_t>(trips.size()) - 1));
    std::swap(trips[i], trips[j]);
    trips[i].time_s = rng.UniformDouble(0.0, duration_s);
  }
  trips.resize(std::min(count, trips.size()));
  std::sort(trips.begin(), trips.end(),
            [](const ptrider::sim::Trip& a, const ptrider::sim::Trip& b) {
              return a.time_s < b.time_s;
            });
  return std::move(trips);
}

namespace {

void PrintResult(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rush_pool|metro_cruise|"
               "service_steady> --seed <n> --seconds <s> --trace <0|1> "
               "[--quick] [--trace-file <path>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  NowUs();  // starts the trace epoch
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-file") {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0.0)) return Usage();
  if (args.trace_path.empty()) {
    args.trace_path = "trace-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".json";
  }

  Outcome out;
  if (args.workload == "rush_pool" || args.workload == "metro_cruise") {
    out = RunReplay(args);
  } else if (args.workload == "service_steady") {
    out = RunService(args);
  } else {
    return Usage();
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "workload %s did not run\n", args.workload.c_str());
    return 1;
  }
  PrintResult(out);
  return 0;
}
