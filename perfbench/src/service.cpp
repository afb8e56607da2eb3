// service_steady: DispatchService in wall-clock mode, fed open loop.
//
// Arrivals follow a flat-profile hotspot trace on their own schedule; the
// offered rate is fixed well below the knee (README.md gives the
// figures), and nothing may be shed or rejected. The service measures its own
// quote and assign latencies from ingestion (simulation seconds at the
// configured time scale; reported here in wall milliseconds). The
// benchmark's arrival process records when each arrival was handed to
// the producer, which gives the timed span, the generator's lateness and
// the CPU consumed per request.
//
// The workload is not among BENCHMARK.json's: its p99s follow the
// machine's scheduling jitter from one minute to the next (README.md).

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/ptrider.h"
#include "service/dispatch_service.h"
#include "service/workload_driver.h"
#include "trace.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace pc = ptrider::core;
namespace pr = ptrider::roadnet;
namespace ps = ptrider::sim;
namespace psv = ptrider::service;

struct ServiceSpec {
  int rows = 36;
  int cols = 36;
  size_t taxis = 400;
  /// Demand in simulation time; the wall-clock rate is this times
  /// time_scale / 3600 (106 arrivals per wall second).
  size_t trips_per_hour = 380;
  /// Simulation seconds per wall second: a 1 s tick lasts 1 wall ms.
  double time_scale = 1000.0;
  /// One window per tick, so a window lasts 1 wall ms and its wait
  /// (0.5 ms on average) is a small part of a request's latency; match
  /// and queueing make up the rest.
  double batch_window_s = 1.0;
  /// Simulated seconds after the last arrival: more than the longest
  /// pick-up deadline plus the longest allowed trip on the 36x36 city
  /// (300 s + 17.5 km x 1.2 at 13.3 m/s, about 1900 s), so every
  /// assigned rider is dropped off before Run returns.
  double drain_s = 3600.0;
  /// Wall seconds of arrivals before the timed span opens.
  double warmup_wall_s = 2.0;
  pc::Config config;
};

ServiceSpec SpecFor(const Args& args) {
  ServiceSpec s;
  s.config.dispatch_threads = 2;
  if (args.quick) {
    s.rows = s.cols = 16;
    s.taxis = 60;
    s.trips_per_hour = 120;
    s.warmup_wall_s = 0.5;
  }
  return s;
}

/// Replays a time-sorted trace and records, for each arrival, the wall
/// instant the producer asked for the next one — which is right after it
/// pushed the previous one. Runs on the service's producer thread.
class TimedArrivals : public psv::ArrivalProcess {
 public:
  TimedArrivals(std::vector<ps::Trip> trips, size_t warmup_count)
      : trips_(std::move(trips)), warmup_count_(warmup_count) {
    call_us_.reserve(trips_.size() + 1);
  }

  const char* name() const override { return "timed-trace"; }
  double end_time_s() const override {
    return trips_.empty() ? 0.0 : trips_.back().time_s;
  }
  std::optional<ps::Trip> Next() override {
    call_us_.push_back(NowUs());
    if (next_ == warmup_count_ || next_ == trips_.size()) {
      marks_.push_back({call_us_.back(), CpuSeconds()});
    }
    if (next_ >= trips_.size()) return std::nullopt;
    return trips_[next_++];
  }

  struct Mark {
    double wall_us;
    double cpu_s;
  };
  /// Read only after the producer joined (DispatchService::Run returned).
  const std::vector<double>& call_us() const { return call_us_; }
  const std::vector<Mark>& marks() const { return marks_; }
  const std::vector<ps::Trip>& trips() const { return trips_; }

 private:
  std::vector<ps::Trip> trips_;
  size_t warmup_count_;
  size_t next_ = 0;
  std::vector<double> call_us_;
  std::vector<Mark> marks_;
};

}  // namespace

Outcome RunService(const Args& args) {
  Outcome out;
  const ServiceSpec spec = SpecFor(args);
  Trace trace(args.trace);
  const double seconds = args.quick ? std::min(args.seconds, 2.0)
                                    : args.seconds;

  // --- Inputs (not timed) ---------------------------------------------------
  auto graph = MakeCity(spec.rows, spec.cols);
  if (!graph.ok()) {
    out.Fail(graph.status().ToString());
    return out;
  }
  const double warmup_sim_s = spec.warmup_wall_s * spec.time_scale;
  const double horizon_s = (spec.warmup_wall_s + seconds) * spec.time_scale;
  auto generated = MakeTrips(*graph, static_cast<double>(spec.trips_per_hour),
                             horizon_s, args.seed);
  if (!generated.ok() || generated->empty()) {
    out.Fail("trip generation failed");
    return out;
  }
  std::vector<ps::Trip> trips = std::move(*generated);
  size_t warmup_count = 0;
  while (warmup_count < trips.size() &&
         trips[warmup_count].time_s <= warmup_sim_s) {
    ++warmup_count;
  }
  std::vector<std::pair<pr::VertexId, pr::VertexId>> pairs;
  for (size_t i = 0; i < trips.size() && pairs.size() < 256; ++i) {
    pairs.emplace_back(trips[i].origin, trips[i].destination);
  }

  psv::ServiceOptions sopts;
  sopts.virtual_clock = false;
  sopts.wall_time_scale = spec.time_scale;
  sopts.seed = args.seed;
  sopts.batch_window_s = spec.batch_window_s;
  sopts.drain_s = spec.drain_s;

  // --- Set-up: network -> system + fleet + service ready ---------------------
  std::vector<double> setup_s;
  std::unique_ptr<pc::PTRider> system;
  std::unique_ptr<psv::DispatchService> service;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    service.reset();
    system.reset();
    const double t0 = NowUs();
    auto created = pc::PTRider::Create(*graph, spec.config);
    if (!created.ok()) {
      out.Fail(created.status().ToString());
      return out;
    }
    system = std::move(*created);
    const ptrider::util::Status placed =
        system->InitFleetUniform(spec.taxis, args.seed * 7919 + 1);
    if (!placed.ok()) {
      out.Fail(placed.ToString());
      return out;
    }
    service = std::make_unique<psv::DispatchService>(*system, sopts);
    const double t1 = NowUs();
    setup_s.push_back((t1 - t0) * 1e-6);
    trace.Add({"setup", "setup", t0, t1 - t0});
  }

  // --- Run ------------------------------------------------------------------
  const size_t offered = trips.size();
  TimedArrivals arrivals(std::move(trips), warmup_count);
  const double cpu0 = CpuSeconds();
  const double t0 = NowUs();
  auto result = service->Run(arrivals);
  const double t1 = NowUs();
  const double run_cpu_s = CpuSeconds() - cpu0;
  trace.Add({"service", "DispatchService::Run", t0, t1 - t0});
  out.attempted = offered;
  if (!result.ok()) {
    out.Fail("DispatchService::Run: " + result.status().ToString());
    out.failed = offered;
    return out;
  }
  const psv::ServiceReport& report = *result;
  const psv::ServiceStats& st = report.service;

  // --- Checks ---------------------------------------------------------------
  const auto check = [&out](bool ok, const std::string& what) {
    if (!ok) out.Fail(what);
  };
  check(st.offered == offered, "offered != arrivals generated");
  check(st.offered + st.faults_injected == st.ingested + st.rejected,
        "funnel: offered + injected != ingested + rejected");
  check(st.ingested == st.malformed + st.shed + st.dispatched,
        "funnel: ingested != malformed + shed + dispatched");
  check(st.shed == st.shed_deadline + st.shed_zone,
        "funnel: shed != deadline + zone sheds");
  check(st.rejected == 0 && st.shed == 0 && st.malformed == 0,
        ptrider::util::StrFormat("rejected %llu shed %llu malformed %llu "
                                 "below the knee",
                                 static_cast<unsigned long long>(st.rejected),
                                 static_cast<unsigned long long>(st.shed),
                                 static_cast<unsigned long long>(
                                     st.malformed)));
  const ps::SimulationReport& sim = report.sim;
  check(sim.requests_submitted == static_cast<int64_t>(st.dispatched) &&
            sim.requests_submitted == sim.requests_assigned +
                                          sim.requests_unserved +
                                          sim.requests_declined &&
            sim.requests_assigned == static_cast<int64_t>(st.assigned),
        "funnel: dispatched != assigned + unserved + declined");
  out.failed = st.rejected + st.shed + st.malformed;
  if (sim.requests_completed != sim.requests_assigned) {
    out.Fail(ptrider::util::StrFormat(
        "%lld of %lld assigned requests completed by the end of the drain",
        static_cast<long long>(sim.requests_completed),
        static_cast<long long>(sim.requests_assigned)));
    if (sim.requests_assigned > sim.requests_completed) {
      out.failed += static_cast<uint64_t>(sim.requests_assigned -
                                          sim.requests_completed);
    }
  }

  // Outputs of the live system after the run: quotes through the
  // service's quote endpoint for sampled trips, checked like the replays'
  // match results, and every remaining schedule validated.
  OutputChecker checker(*system, out);
  pr::DistanceOracle probe_oracle = system->oracle().Clone();
  const double end_s = sim.simulated_seconds;
  const std::vector<ps::Trip>& replayed = arrivals.trips();
  for (size_t i = 0; i < replayed.size(); i += replayed.size() / 32 + 1) {
    auto quote = service->Quote(replayed[i], end_s);
    if (!quote.ok()) {
      out.Fail("Quote: " + quote.status().ToString());
      ++out.failed;
      continue;
    }
    pc::BatchItem item;
    item.request.id = static_cast<ptrider::vehicle::RequestId>(1000000 + i);
    item.request.start = replayed[i].origin;
    item.request.destination = replayed[i].destination;
    item.request.num_riders = replayed[i].num_riders;
    item.request.max_wait_s = system->config().default_max_wait_s;
    item.request.service_sigma = system->config().default_service_sigma;
    item.request.submit_time_s = end_s;
    item.match = std::move(*quote);
    if (!checker.CheckItem(item, true) ||
        !checker.CheckMatcherAdmissible(*system, item.request, end_s,
                                        probe_oracle)) {
      ++out.failed;
    }
  }
  if (checker.CheckFleet(*system, end_s, probe_oracle) > 0) ++out.failed;
  std::fprintf(stderr,
               "checks: %llu schedules failed the strict ValidateSequence "
               "(max pick-up lateness %.2f s, max trip overrun %.1f m), "
               "%llu vehicles dropped by the configured matcher as rounding "
               "ties\n",
               static_cast<unsigned long long>(checker.strict_rejects()),
               checker.max_late_s(), checker.max_overrun_m(),
               static_cast<unsigned long long>(checker.tie_drops()));

  // --- Figures ---------------------------------------------------------------
  const std::vector<double>& calls = arrivals.call_us();
  const std::vector<TimedArrivals::Mark>& marks = arrivals.marks();
  const double timed = static_cast<double>(offered - warmup_count);
  double span_s = 0.0;
  double span_cpu_s = 0.0;
  if (marks.size() == 2) {
    span_s = (marks[1].wall_us - marks[0].wall_us) * 1e-6;
    span_cpu_s = marks[1].cpu_s - marks[0].cpu_s;
  }
  const double to_wall_ms = 1e3 / spec.time_scale;
  std::fprintf(stderr,
               "service_steady: %zu offered (%.0f timed over %.2f s), "
               "%llu assigned, %lld unserved, %lld completed, busy %.2f, "
               "max queue %llu\n",
               offered, timed, span_s,
               static_cast<unsigned long long>(st.assigned),
               static_cast<long long>(sim.requests_unserved),
               static_cast<long long>(sim.requests_completed),
               Ratio(sim.match_phase_seconds + sim.move_advance_seconds +
                         sim.move_commit_seconds + sim.index_update_seconds,
                     sim.wall_clock_seconds),
               static_cast<unsigned long long>(st.max_queue_depth));
  if (!trace.enabled()) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.req_rps = Ratio(timed, span_s);
    e2e.cpu_ms_per_req = Ratio(span_cpu_s * 1e3, timed);
    e2e.quote_p50_ms = st.quote_latency_s.Value(50) * to_wall_ms;
    e2e.quote_p99_ms = st.quote_latency_s.Value(99) * to_wall_ms;
    e2e.assign_p50_ms = st.assign_latency_s.Value(50) * to_wall_ms;
    e2e.assign_p99_ms = st.assign_latency_s.Value(99) * to_wall_ms;
    AddEndToEnd(out, e2e);
    return out;
  }

  // Generator lateness: arrival k was pushed just before the producer
  // asked for arrival k + 1; the first call marks the clock's epoch.
  std::vector<double> late_ms;
  for (size_t k = 0; k + 1 < calls.size(); ++k) {
    const double due_us =
        calls[0] + replayed[k].time_s / spec.time_scale * 1e6;
    late_ms.push_back((calls[k + 1] - due_us) * 1e-3);
    trace.Instant("service", "arrival pushed", calls[k + 1], 9,
                  static_cast<uint64_t>(k + 1));
  }

  LayerFigures f;
  ProbeRoadnet(trace, *graph, system->oracle(), system->grid(), pairs, f);
  f.sp_searches_per_req = sim.distance_computations.mean();
  f.vehicles_examined_per_req = sim.vehicles_examined.mean();
  f.options_per_req = sim.options_per_request.mean();
  // The service matches inside its own loop; the simulator's report
  // holds each request's match time (MatchResult::match_seconds).
  f.match_us_p50 = sim.response_percentiles_s.Value(50) * 1e6;
  f.match_us_p99 = sim.response_percentiles_s.Value(99) * 1e6;
  f.index_updates_per_tick =
      Ratio(static_cast<double>(system->vehicle_index().update_count()),
            end_s / sopts.tick_s);
  f.match_s = sim.match_phase_seconds;
  f.cpu_per_wall = Ratio(run_cpu_s, (t1 - t0) * 1e-6);
  f.pipeline_fill_s = sim.pipeline_fill_seconds;
  f.pipeline_stall_s = sim.pipeline_stall_seconds;
  f.advance_s = sim.move_advance_seconds;
  f.move_commit_s = sim.move_commit_seconds;
  f.reindex_s = sim.index_update_seconds;
  f.service_layer = true;
  f.queue_depth_p99 = st.queue_depth.Value(99);
  f.busy_ratio = Ratio(sim.match_phase_seconds + sim.move_advance_seconds +
                           sim.move_commit_seconds + sim.index_update_seconds,
                       sim.wall_clock_seconds);
  f.generator_late_ms_p99 = Percentile(late_ms, 99);
  f.traced_req_rps = Ratio(timed, span_s);
  AddLayerMetrics(out, f);
  const ptrider::util::Status written = trace.WriteChromeJson(args.trace_path);
  if (!written.ok()) out.Fail(written.ToString());
  std::fprintf(stderr, "%zu trace events written to %s\n", trace.size(),
               args.trace_path.c_str());
  return out;
}

}  // namespace perfbench
