// Service mode (DESIGN.md section 11): a long-running dispatch server
// under open-loop Poisson load. Arrivals land on their own schedule
// through a bounded ingestion queue; the server drains them in batch
// windows with two-stage admission control (reject-on-full + deadline
// shedding) and reports SLO latency percentiles alongside the usual
// simulation statistics.
//
// Usage:  ./build/examples/example_service_day [taxis] [rate_per_min] [minutes]
//             [--wall-clock] [--virtual-clock] [--jobs N] [--move-jobs N]
//             [--pipeline-depth N]
//             [--queue-cap N] [--deadline S] [--assign-cost S]
//             [--quote-cost S] [--window S] [--speedup X] [--verbose]
//             [--snapshot FILE]
//             [--ladder] [--ladder-target S] [--zones N] [--retries N]
//             [--storm] [--storm-seed N] [--burst-rate R]
//
// Overload resilience (DESIGN.md section 14): `--ladder` turns on the
// graceful-degradation ladder (degrade matching effort before shedding),
// `--zones N` adds per-grid-zone fair-share admission, `--retries N`
// bounded ingestion backpressure, and `--storm` injects a deterministic
// fault schedule (arrival burst at --burst-rate extra req/s, cost spike,
// worker stall, capacity squeeze, malformed/expired requests) seeded by
// --storm-seed. `--pipeline-depth N` with N >= 2 floats each movement
// tick's index re-registration batch onto a stage thread (DESIGN.md
// section 15); reports are identical at every depth.
// Default: 100 taxis, 600 requests/min for 20 minutes on a 30x30 city,
// virtual clock (deterministic; --wall-clock runs it live instead, with
// --speedup simulated seconds per wall second). `--snapshot FILE` serves
// from a prebuilt tools/snapshot_build file instead of generating the
// city — the restart path for a long-running server (DESIGN.md
// section 12).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/ptrider.h"
#include "roadnet/graph_generator.h"
#include "service/dispatch_service.h"
#include "service/fault_injector.h"
#include "snapshot/snapshot.h"
#include "snapshot/system.h"

int main(int argc, char** argv) {
  using namespace ptrider;

  size_t taxis = 100;
  double rate_per_min = 600.0;
  double minutes = 20.0;
  service::ServiceOptions opts;
  opts.batch_window_s = 2.0;
  opts.queue_capacity = 4096;
  opts.shed_deadline_s = 20.0;
  opts.assign_cost_s = 0.02;
  opts.quote_cost_s = 0.005;
  opts.drain_s = 300.0;
  int dispatch_jobs = 2;
  std::string snapshot_path;
  bool storm = false;
  uint64_t storm_seed = 4242;
  double burst_rate_per_s = 0.0;  // 0: 2x the base rate

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> double {
      return i + 1 < argc ? std::strtod(argv[++i], nullptr) : 0.0;
    };
    if (arg == "--wall-clock") {
      opts.virtual_clock = false;
    } else if (arg == "--virtual-clock") {
      opts.virtual_clock = true;
    } else if (arg == "--jobs") {
      dispatch_jobs = static_cast<int>(next());
    } else if (arg == "--move-jobs") {
      opts.move_jobs = static_cast<int>(next());
    } else if (arg == "--pipeline-depth") {
      opts.pipeline_depth = static_cast<int>(next());
    } else if (arg == "--queue-cap") {
      opts.queue_capacity = static_cast<size_t>(next());
    } else if (arg == "--deadline") {
      opts.shed_deadline_s = next();
    } else if (arg == "--assign-cost") {
      opts.assign_cost_s = next();
    } else if (arg == "--quote-cost") {
      opts.quote_cost_s = next();
    } else if (arg == "--window") {
      opts.batch_window_s = next();
    } else if (arg == "--speedup") {
      opts.wall_time_scale = next();
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--ladder") {
      opts.ladder.enabled = true;
    } else if (arg == "--ladder-target") {
      opts.ladder.target_delay_s = next();
    } else if (arg == "--zones") {
      opts.zone_admission.zones = static_cast<size_t>(next());
    } else if (arg == "--retries") {
      opts.ingest_retry.max_attempts = static_cast<int>(next());
    } else if (arg == "--storm") {
      storm = true;
    } else if (arg == "--storm-seed") {
      storm_seed = static_cast<uint64_t>(next());
    } else if (arg == "--burst-rate") {
      burst_rate_per_s = next();
    } else if (arg == "--snapshot") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--snapshot needs a value\n");
        return 1;
      }
      snapshot_path = argv[++i];
    } else if (positional == 0) {
      taxis = std::strtoul(arg.c_str(), nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      rate_per_min = std::strtod(arg.c_str(), nullptr);
      ++positional;
    } else {
      minutes = std::strtod(arg.c_str(), nullptr);
      ++positional;
    }
  }

  core::Config config;
  config.dispatch_threads = dispatch_jobs;
  config.snapshot_path = snapshot_path;

  // A loaded snapshot owns the graph and index memory, so it must
  // outlive the server.
  std::optional<snapshot::Snapshot> snap;
  util::Result<roadnet::RoadNetwork> generated =
      util::Status::Internal("no in-memory graph");
  const roadnet::RoadNetwork* net = nullptr;
  std::unique_ptr<core::PTRider> system;
  if (!config.snapshot_path.empty()) {
    auto loaded = snapshot::Snapshot::Load(config.snapshot_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    snap = std::move(*loaded);
    net = &snap->graph();
    std::printf("snapshot: '%s' (%.1f MiB) — graph + grid + CH mapped "
                "in %.1f ms\n",
                config.snapshot_path.c_str(),
                static_cast<double>(snap->info().file_bytes) /
                    (1024.0 * 1024.0),
                snap->info().load_seconds * 1e3);
    auto created = snapshot::CreateSystem(*snap, config);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    system = std::move(*created);
  } else {
    roadnet::CityGridOptions city;
    city.rows = 30;
    city.cols = 30;
    city.seed = 42;
    generated = roadnet::MakeCityGrid(city);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    net = &*generated;
    auto created = core::PTRider::Create(*net, config);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    system = std::move(*created);
  }
  if (auto st = system->InitFleetUniform(taxis, /*seed=*/3); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  service::PoissonArrivalOptions arrivals;
  arrivals.rate_per_s = rate_per_min / 60.0;
  arrivals.duration_s = minutes * 60.0;
  arrivals.seed = 2009;
  service::PoissonArrivals process(*net, arrivals);

  // One deterministic storm across the middle of the day: burst, cost
  // spike, worker stall, capacity squeeze, malformed/expired arrivals.
  std::optional<service::FaultInjector> injector;
  if (storm) {
    service::FaultInjectorOptions fx;
    fx.seed = storm_seed;
    fx.burst_count = 1;
    fx.burst_duration_s = arrivals.duration_s / 4.0;
    fx.burst_rate_per_s =
        burst_rate_per_s > 0.0 ? burst_rate_per_s : arrivals.rate_per_s;
    fx.cost_spike_count = 1;
    fx.cost_spike_duration_s = arrivals.duration_s / 8.0;
    fx.stall_count = 1;
    fx.squeeze_count = 1;
    fx.squeeze_duration_s = arrivals.duration_s / 8.0;
    fx.malformed_count = 10;
    fx.expired_count = 10;
    injector.emplace(*net, fx, arrivals.duration_s);
    opts.fault_injector = &*injector;
    std::printf("storm (seed %llu):\n%s",
                static_cast<unsigned long long>(storm_seed),
                injector->DebugString().c_str());
  }

  std::printf(
      "service_day: %zu taxis, %.0f req/min for %.0f min, window %.1fs, "
      "queue %zu, deadline %.1fs, %s clock, pipeline depth %d (%s), "
      "ladder %s, zones %zu, retries %d\n",
      taxis, rate_per_min, minutes, opts.batch_window_s, opts.queue_capacity,
      opts.shed_deadline_s, opts.virtual_clock ? "virtual" : "wall",
      opts.pipeline_depth,
      opts.pipeline_depth >= 2 ? "floated reindex" : "sequential",
      opts.ladder.enabled ? "on" : "off",
      opts.zone_admission.zones, opts.ingest_retry.max_attempts);

  service::DispatchService server(*system, opts);

  // A quote-only probe against the idle fleet: the service's stateless
  // price endpoint (decays surge to `now`, records no demand).
  sim::Trip probe;
  probe.origin = 0;
  probe.destination = static_cast<roadnet::VertexId>(net->NumVertices() / 2);
  probe.num_riders = 1;
  if (auto quote = server.Quote(probe, 0.0); quote.ok()) {
    std::printf("quote probe: %zu options, direct %.0fm\n",
                quote->options.size(), quote->direct_distance_m);
  }

  auto report = server.Run(process);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());
  return 0;
}
