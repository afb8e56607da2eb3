// Closed-loop trace replays: rush_pool and metro_cruise.
//
// The benchmark drives the simulator's stepping API itself
// (BeginStepping / MakeRequest / StepWindow / AdvanceTick /
// FinishStepping) so it can time every window and stamp every quote.
// Demand is flat-profile hotspot trips drawn from the seed. The timed
// span is a fixed stretch of simulated time after a warm-up prefix, sized
// so today's build needs about `--seconds` of wall time for it: every
// build does the same work, whatever its speed, so warming caches and
// fleet load cannot couple speed to state. The drain that follows lets
// every assigned rider finish and is not timed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/distance_providers.h"
#include "core/ptrider.h"
#include "sim/simulator.h"
#include "trace.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace pc = ptrider::core;
namespace pr = ptrider::roadnet;
namespace ps = ptrider::sim;
namespace pv = ptrider::vehicle;

struct ReplaySpec {
  int rows = 36;
  int cols = 36;
  size_t taxis = 400;
  size_t trips_per_hour = 3000;
  pc::Config config;
  ps::SimulatorOptions sim;
  /// Simulated seconds replayed before the timed span opens.
  double warmup_s = 1800.0;
  /// Simulated seconds timed per second of --seconds (today's build
  /// replays about this fast on the reference box when it is quiet).
  double sim_s_per_wall_s = 400.0;
  /// Windows between state checks (fleet validity, naive-vs-indexed).
  int check_every = 64;
  /// Requests of a checked window compared against the naive matcher.
  size_t naive_checks_per_window = 1;
  /// Traced runs: windows between MatchReadOnly / TrialInsert probes.
  int probe_every = 16;
};

ReplaySpec SpecFor(const Args& args) {
  ReplaySpec s;
  // Knobs not set here stay at their library defaults (matcher,
  // sp_algorithm, pricing, tick, choice model, ...).
  s.sim.batch_window_s = 2.0;
  s.sim.seed = args.seed;
  if (args.workload == "rush_pool") {
    // Dense peak demand against a small fleet of 4-seaters with looser
    // wait and detour limits: most vehicles carry 2-3 requests, so the
    // kinetic tree, grid bounds and matcher pruning do most of the work.
    // Sequential dispatcher, pipeline depth 1.
    s.rows = s.cols = 36;
    s.taxis = 400;
    s.trips_per_hour = 3000;
    s.config.vehicle_capacity = 4;
    s.config.default_max_wait_s = 600.0;
    s.config.default_service_sigma = 0.3;
    s.sim_s_per_wall_s = 400.0;
    s.check_every = 64;
  } else {
    // metro_cruise: a ~3x larger network with a large, mostly idle,
    // cruising fleet and sparse demand, on the pipelined engine (4 index
    // shards, depth 3). Dispatch and movement stay single-threaded: with
    // 2 dispatch threads and 2 move jobs the threads met at every window
    // and waited for whichever one the shared machine had paused, and
    // req_rps spread 0.34-0.38 over ten seeds (README.md).
    s.rows = s.cols = 64;
    s.taxis = 2000;
    s.trips_per_hour = 2000;
    s.config.index_shards = 4;
    s.sim.pipeline_depth = 3;
    s.sim_s_per_wall_s = 180.0;
    // Half an hour of warm-up costs this workload about 10-16 wall
    // seconds; a quarter of an hour leaves the fleet mostly idle all the
    // same.
    s.warmup_s = 900.0;
    s.check_every = 256;
  }
  if (args.quick) {
    s.rows = s.cols = 16;
    s.taxis = s.taxis / 10;
    s.trips_per_hour /= 4;
    s.warmup_s = 300.0;
    s.check_every = 8;
    s.probe_every = 4;
  }
  return s;
}

/// Report fields the per-layer metrics read as deltas over the span.
struct PhaseSnapshot {
  double match = 0, advance = 0, commit = 0, reindex = 0, fill = 0,
         stall = 0;
  static PhaseSnapshot Of(const ps::SimulationReport& r) {
    return {r.match_phase_seconds, r.move_advance_seconds,
            r.move_commit_seconds, r.index_update_seconds,
            r.pipeline_fill_seconds, r.pipeline_stall_seconds};
  }
};

/// One of the equal stretches of simulated time the timed span is cut
/// into. The end-to-end figures are medians over slices, so a burst of
/// contention on the shared machine that covers a few slices moves them
/// little.
struct Slice {
  double wall_s = 0, cpu_s = 0, decided = 0;
  std::vector<double> quote_ms, assign_ms;
};
constexpr int kSlices = 10;

/// Median over `slices` of `f(slice)`.
template <typename F>
double SliceMedian(const std::vector<Slice>& slices, F f) {
  std::vector<double> values;
  for (const Slice& s : slices) values.push_back(f(s));
  return Percentile(std::move(values), 50);
}

/// Per-request diagnostics summed over the timed span.
struct MatchTotals {
  double requests = 0, distance_computations = 0, sequences = 0,
         exact_validated = 0, bound_pruned = 0, examined = 0, pruned = 0,
         cells = 0, options = 0;
  void Add(const pc::MatchResult& m) {
    requests += 1;
    distance_computations += static_cast<double>(m.distance_computations);
    sequences += static_cast<double>(m.insertion.sequences_generated);
    exact_validated += static_cast<double>(m.insertion.exact_validated);
    bound_pruned += static_cast<double>(m.insertion.bound_pruned);
    examined += static_cast<double>(m.vehicles_examined);
    pruned += static_cast<double>(m.vehicles_pruned);
    cells += static_cast<double>(m.cells_visited);
    options += static_cast<double>(m.options.size());
  }
  double Per(double total) const {
    return requests > 0 ? total / requests : 0.0;
  }
};

}  // namespace

Outcome RunReplay(const Args& args) {
  Outcome out;
  const ReplaySpec spec = SpecFor(args);
  Trace trace(args.trace);
  const double seconds = args.quick ? std::min(args.seconds, 2.0)
                                    : args.seconds;
  const double timed_end_s = spec.warmup_s + seconds * spec.sim_s_per_wall_s;

  // --- Inputs (not timed) ---------------------------------------------------
  auto graph = MakeCity(spec.rows, spec.cols);
  if (!graph.ok()) {
    out.Fail(graph.status().ToString());
    return out;
  }
  auto trips = MakeTrips(*graph, static_cast<double>(spec.trips_per_hour),
                         timed_end_s, args.seed);
  if (!trips.ok() || trips->empty()) {
    out.Fail("trip generation failed");
    return out;
  }

  // --- Set-up: generated network -> system ready for its first request ----
  std::vector<double> setup_s;
  std::unique_ptr<pc::PTRider> system;
  std::unique_ptr<ps::Simulator> sim;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    sim.reset();
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
    sim = std::make_unique<ps::Simulator>(*system, spec.sim);
    const ptrider::util::Status began =
        placed.ok() ? sim->BeginStepping() : placed;
    if (!began.ok()) {
      out.Fail(began.ToString());
      return out;
    }
    const double t1 = NowUs();
    setup_s.push_back((t1 - t0) * 1e-6);
    trace.Add({"setup", "setup", t0, t1 - t0});
  }
  // Quote instants, buffered per dispatch worker (the observer runs on
  // matching threads; each worker index is private to one thread within
  // a window) and folded in on this thread after the window.
  struct Quote {
    pv::RequestId id;
    double ts_us;
  };
  std::vector<std::vector<Quote>> quotes(
      static_cast<size_t>(std::max(1, spec.config.dispatch_threads)));
  sim->dispatcher()->SetMatchObserver(
      [&quotes](size_t worker, const pv::Request& r, const pc::MatchResult&) {
        quotes[worker % quotes.size()].push_back({r.id, NowUs()});
      });

  OutputChecker checker(*system, out);
  pr::DistanceOracle probe_oracle = system->oracle().Clone();

  // --- Replay -------------------------------------------------------------
  ps::SimulationReport report;
  const double tick_s = spec.sim.tick_s;
  const int64_t ticks_per_window = std::max<int64_t>(
      1, std::llround(spec.sim.batch_window_s / tick_s));
  std::vector<pv::Request> batch;
  size_t next_trip = 0;
  double now = 0.0;
  int64_t tick = 0;
  int64_t window = 0;

  bool timed = false;
  double span_start_us = 0.0;
  double span_cpu0 = 0.0;
  double span_wall_s = 0.0;
  double span_cpu_s = 0.0;
  int64_t span_ticks = 0;
  uint64_t index_updates0 = 0;
  uint64_t index_updates = 0;
  PhaseSnapshot phase0;
  PhaseSnapshot phase1;
  Excluded excluded;
  MatchTotals totals;
  // The open slice: where it began, and the excluded totals then.
  std::vector<Slice> slices(1);
  double slice_start_us = 0.0, slice_cpu0 = 0.0;
  double slice_excl_wall0 = 0.0, slice_excl_cpu0 = 0.0;
  const double slice_sim_s = (timed_end_s - spec.warmup_s) / kSlices;
  const auto open_slice = [&] {
    slice_start_us = NowUs();
    slice_cpu0 = CpuSeconds();
    slice_excl_wall0 = excluded.wall_s();
    slice_excl_cpu0 = excluded.cpu_s();
  };
  const auto close_slice = [&] {
    Slice& s = slices.back();
    s.wall_s = (NowUs() - slice_start_us) * 1e-6 -
               (excluded.wall_s() - slice_excl_wall0);
    s.cpu_s = CpuSeconds() - slice_cpu0 - (excluded.cpu_s() - slice_excl_cpu0);
  };
  std::vector<double> quote_ms;
  std::vector<double> assign_ms;
  std::vector<double> busy_branches;
  std::vector<double> batch_sizes;
  std::vector<std::pair<pr::VertexId, pr::VertexId>> pairs;
  constexpr size_t kPairSample = 256;
  uint64_t decided = 0;
  bool failed_step = false;

  while (true) {
    const double prev = now;
    ++tick;
    now = static_cast<double>(tick) * tick_s;
    for (; next_trip < trips->size() && (*trips)[next_trip].time_s <= now;
         ++next_trip) {
      batch.push_back(sim->MakeRequest((*trips)[next_trip]));
    }
    if (tick % ticks_per_window != 0) {
      const double t0 = NowUs();
      const ptrider::util::Status st = sim->AdvanceTick(prev, now, report);
      const double t1 = NowUs();
      if (timed) trace.Add({"sim", "AdvanceTick", t0, t1 - t0});
      if (!st.ok()) {
        out.Fail("AdvanceTick: " + st.ToString());
        failed_step = true;
        break;
      }
      if (timed) ++span_ticks;
      continue;
    }
    ++window;

    if (!timed && now >= spec.warmup_s) {
      // Land floated index work so the span starts from a quiet engine.
      (void)sim->FinishStepping(report);
      timed = true;
      // Checks made during the warm-up lie outside the span: only those
      // made inside it are taken out of it.
      excluded = Excluded{};
      span_start_us = NowUs();
      span_cpu0 = CpuSeconds();
      open_slice();
      index_updates0 = system->vehicle_index().update_count();
      phase0 = PhaseSnapshot::Of(report);
    }

    // State checks and probes read the pre-window state; both need a
    // quiescent index (no floated reindex batch in flight).
    const bool check = window % spec.check_every == 0;
    const bool probe =
        trace.enabled() && timed && window % spec.probe_every == 0;
    if (check || probe) {
      (void)sim->FinishStepping(report);
      excluded.Begin();
      if (check) {
        if (checker.CheckFleet(*system, prev, probe_oracle) > 0) ++out.failed;
        for (size_t i = 0;
             i < batch.size() && i < spec.naive_checks_per_window; ++i) {
          if (!checker.CheckMatcherAdmissible(*system, batch[i], now,
                                              probe_oracle)) {
            ++out.failed;
          }
        }
      }
      if (probe) {
        pc::IndexedDistanceProvider provider(probe_oracle, system->grid());
        const pv::ScheduleContext ctx = system->MakeScheduleContext(now);
        double busy = 0, branches = 0;
        std::vector<const pv::Vehicle*> loaded;
        for (const pv::Vehicle& v : system->fleet().vehicles()) {
          if (v.IsEmpty()) continue;
          busy += 1;
          branches += static_cast<double>(v.tree().NumBranches());
          if (v.tree().NumPendingRequests() >= 2) loaded.push_back(&v);
        }
        if (busy > 0) busy_branches.push_back(branches / busy);
        for (const pv::Request& r : batch) {
          ScopedSpan span(trace, "core", "MatchReadOnly", 1.0,
                          static_cast<uint64_t>(r.id));
          (void)system->MatchReadOnly(r, now, probe_oracle);
        }
        // Trial insertions on copies of loaded vehicles, rotating through
        // them so every window samples different trees.
        constexpr size_t kTrialVehicles = 8;
        for (const pv::Request& r : batch) {
          for (size_t k = 0; k < kTrialVehicles && k < loaded.size(); ++k) {
            pv::Vehicle copy =
                *loaded[(static_cast<size_t>(window) + k) % loaded.size()];
            pv::InsertionStats stats;
            ScopedSpan span(trace, "vehicle", "KineticTree::TrialInsert",
                            1.0, static_cast<uint64_t>(r.id));
            (void)copy.tree().TrialInsert(r, ctx, provider, &stats);
          }
        }
      }
      excluded.End();
    }

    const size_t batch_size = batch.size();
    out.attempted += batch_size;
    const double cpu0 = trace.enabled() ? CpuSeconds() : 0.0;
    const double t0 = NowUs();
    auto items = sim->StepWindow(std::move(batch), prev, now, report);
    const double t1 = NowUs();
    batch.clear();
    if (!items.ok()) {
      out.Fail("StepWindow: " + items.status().ToString());
      out.failed += batch_size;
      failed_step = true;
      break;
    }
    if (timed) {
      batch_sizes.push_back(static_cast<double>(batch_size));
      Span s{"dispatch", "StepWindow", t0, t1 - t0};
      s.n = static_cast<double>(batch_size);
      if (trace.enabled()) s.cpu_s = CpuSeconds() - cpu0;
      trace.Add(s);
      ++span_ticks;
    }
    for (size_t w = 0; w < quotes.size(); ++w) {
      for (const Quote& q : quotes[w]) {
        if (!timed) continue;
        quote_ms.push_back((q.ts_us - t0) * 1e-3);
        slices.back().quote_ms.push_back(quote_ms.back());
        trace.Instant("dispatch", "quote", q.ts_us, static_cast<int>(w) + 1,
                      static_cast<uint64_t>(q.id));
      }
      quotes[w].clear();
    }

    excluded.Begin();
    for (size_t i = 0; i < items->size(); ++i) {
      const pc::BatchItem& item = (*items)[i];
      // Direct distances against Dijkstra on every 8th request; the
      // price floor and dominance on all of them.
      if (!checker.CheckItem(item, item.request.id % 8 == 0)) ++out.failed;
      if (!timed) continue;
      ++decided;
      slices.back().decided += 1;
      totals.Add(item.match);
      if (item.assigned) {
        assign_ms.push_back((t1 - t0) * 1e-3);
        slices.back().assign_ms.push_back(assign_ms.back());
      }
      if (pairs.size() < kPairSample) {
        pairs.emplace_back(item.request.start, item.request.destination);
      }
    }
    excluded.End();

    if (timed && now >= timed_end_s) {
      (void)sim->FinishStepping(report);
      close_slice();
      span_wall_s = (NowUs() - span_start_us) * 1e-6 - excluded.wall_s();
      span_cpu_s = CpuSeconds() - span_cpu0 - excluded.cpu_s();
      index_updates = system->vehicle_index().update_count() - index_updates0;
      phase1 = PhaseSnapshot::Of(report);
      break;
    }
    if (timed && slices.size() < static_cast<size_t>(kSlices) &&
        now >= spec.warmup_s +
                   slice_sim_s * static_cast<double>(slices.size())) {
      close_slice();
      slices.emplace_back();
      open_slice();
    }
  }

  // --- Drain: no new requests; every assigned rider must finish --------------
  if (!failed_step) {
    const double drain_end = now + 7200.0;
    while (report.requests_completed < report.requests_assigned &&
           now < drain_end) {
      const double prev = now;
      now += tick_s;
      const ptrider::util::Status st = sim->AdvanceTick(prev, now, report);
      if (!st.ok()) {
        out.Fail("drain AdvanceTick: " + st.ToString());
        break;
      }
    }
    (void)sim->FinishStepping(report);
    if (report.requests_completed != report.requests_assigned) {
      out.Fail(ptrider::util::StrFormat(
          "%lld of %lld assigned requests completed by the end of the drain",
          static_cast<long long>(report.requests_completed),
          static_cast<long long>(report.requests_assigned)));
      out.failed += static_cast<uint64_t>(report.requests_assigned -
                                          report.requests_completed);
    }
    if (checker.CheckFleet(*system, now, probe_oracle) > 0) ++out.failed;
  }
  if (report.requests_submitted != static_cast<int64_t>(out.attempted) ||
      report.requests_submitted != report.requests_assigned +
                                       report.requests_unserved +
                                       report.requests_declined) {
    out.Fail(ptrider::util::StrFormat(
        "funnel: attempted %llu submitted %lld assigned %lld unserved %lld "
        "declined %lld",
        static_cast<unsigned long long>(out.attempted),
        static_cast<long long>(report.requests_submitted),
        static_cast<long long>(report.requests_assigned),
        static_cast<long long>(report.requests_unserved),
        static_cast<long long>(report.requests_declined)));
  }
  std::fprintf(stderr,
               "checks: %llu schedules failed the strict ValidateSequence "
               "(max pick-up lateness %.2f s, max trip overrun %.1f m), "
               "%llu vehicles dropped by the configured matcher as rounding "
               "ties\n",
               static_cast<unsigned long long>(checker.strict_rejects()),
               checker.max_late_s(), checker.max_overrun_m(),
               static_cast<unsigned long long>(checker.tie_drops()));
  std::fprintf(stderr,
               "%s: %llu requests decided in %.2f s timed, %.3f CPU ms each "
               "(%llu attempted, %lld assigned, %lld unserved, %.1f "
               "simulated h), %llu checks\n",
               args.workload.c_str(), static_cast<unsigned long long>(decided),
               span_wall_s,
               Ratio(span_cpu_s * 1e3, static_cast<double>(decided)),
               static_cast<unsigned long long>(out.attempted),
               static_cast<long long>(report.requests_assigned),
               static_cast<long long>(report.requests_unserved),
               now / 3600.0,
               static_cast<unsigned long long>(checker.checks()));

  const double req_rps = Ratio(static_cast<double>(decided), span_wall_s);
  if (!trace.enabled()) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.req_rps = SliceMedian(
        slices, [](const Slice& s) { return Ratio(s.decided, s.wall_s); });
    e2e.cpu_ms_per_req = SliceMedian(slices, [](const Slice& s) {
      return Ratio(s.cpu_s * 1e3, s.decided);
    });
    e2e.quote_p50_ms = SliceMedian(
        slices, [](const Slice& s) { return Percentile(s.quote_ms, 50); });
    e2e.quote_p99_ms = SliceMedian(
        slices, [](const Slice& s) { return Percentile(s.quote_ms, 99); });
    e2e.assign_p50_ms = SliceMedian(
        slices, [](const Slice& s) { return Percentile(s.assign_ms, 50); });
    e2e.assign_p99_ms = SliceMedian(
        slices, [](const Slice& s) { return Percentile(s.assign_ms, 99); });
    AddEndToEnd(out, e2e);
    return out;
  }

  LayerFigures f;
  ProbeRoadnet(trace, *graph, system->oracle(), system->grid(), pairs, f);
  f.sp_searches_per_req = totals.Per(totals.distance_computations);
  f.sequences_per_req = totals.Per(totals.sequences);
  f.exact_validated_per_req = totals.Per(totals.exact_validated);
  f.bound_pruned_ratio = Ratio(totals.bound_pruned, totals.sequences);
  f.trial_insert_us = trace.UsPerItem("KineticTree::TrialInsert");
  f.branches_per_busy_vehicle = Mean(busy_branches);
  f.index_updates_per_tick = Ratio(static_cast<double>(index_updates),
                                   static_cast<double>(span_ticks));
  f.vehicles_examined_per_req = totals.Per(totals.examined);
  f.vehicles_pruned_per_req = totals.Per(totals.pruned);
  f.cells_visited_per_req = totals.Per(totals.cells);
  f.options_per_req = totals.Per(totals.options);
  const std::vector<double> match_us = trace.Durations("MatchReadOnly");
  f.match_us_p50 = Percentile(match_us, 50);
  f.match_us_p99 = Percentile(match_us, 99);
  const std::vector<double> windows_us = trace.Durations("StepWindow");
  f.window_ms_p50 = Percentile(windows_us, 50) * 1e-3;
  f.window_ms_p99 = Percentile(windows_us, 99) * 1e-3;
  f.batch_size_p50 = Percentile(batch_sizes, 50);
  f.match_s = phase1.match - phase0.match;
  f.cpu_per_wall = Ratio(trace.TotalCpuS("StepWindow"),
                         trace.TotalUs("StepWindow") * 1e-6);
  f.pipeline_fill_s = phase1.fill - phase0.fill;
  f.pipeline_stall_s = phase1.stall - phase0.stall;
  const std::vector<double> ticks_us = trace.Durations("AdvanceTick");
  f.tick_ms_p50 = Percentile(ticks_us, 50) * 1e-3;
  f.tick_ms_p99 = Percentile(ticks_us, 99) * 1e-3;
  f.advance_s = phase1.advance - phase0.advance;
  f.move_commit_s = phase1.commit - phase0.commit;
  f.reindex_s = phase1.reindex - phase0.reindex;
  f.traced_req_rps = req_rps;
  AddLayerMetrics(out, f);
  const ptrider::util::Status written = trace.WriteChromeJson(args.trace_path);
  if (!written.ok()) out.Fail(written.ToString());
  std::fprintf(stderr, "%zu trace events written to %s\n", trace.size(),
               args.trace_path.c_str());
  return out;
}

}  // namespace perfbench
