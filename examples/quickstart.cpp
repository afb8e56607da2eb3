// Quickstart: reproduces the paper's Section-2 worked example end to end.
//
// Two vehicles on the 17-vertex Fig. 1(a) network: c1 at v1 already
// serving R1 = <v2, v16, 2, 5, 0.2>, empty c2 at v13. Request
// R2 = <v12, v17, 2, 5, 0.2> receives exactly the paper's two
// non-dominated options r1 = <c1, 14, 4> and r2 = <c2, 8, 8.8>; the rider
// picks the cheap one and the trip is simulated to completion.
//
// Build & run:  ./build/examples/example_quickstart

#include <cstdio>

#include "core/ptrider.h"
#include "pricing/factory.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/paper_example.h"

int main() {
  using namespace ptrider;

  // The calibrated Fig. 1(a) road network.
  const roadnet::PaperExampleNetwork ex = roadnet::MakePaperExampleNetwork();
  std::printf("Road network: %s\n", ex.graph.DebugString().c_str());

  // Shortest-path engine table (Config::sp_algorithm): every engine the
  // distance oracle offers returns the same exact distances, so the
  // matching below is invariant under the choice — they differ only in
  // per-query work (E12/E17 quantify it; `ch` preprocesses once and
  // shares the index across worker clones).
  std::printf("\nShortest-path engines, dist(v2,v16) / dist(v12,v17):\n");
  for (const roadnet::SpAlgorithm algo :
       {roadnet::SpAlgorithm::kDijkstra, roadnet::SpAlgorithm::kAStar,
        roadnet::SpAlgorithm::kContractionHierarchy}) {
    roadnet::DistanceOracleOptions oopts;
    oopts.algorithm = algo;
    roadnet::DistanceOracle oracle(ex.graph, oopts);
    std::printf("  %-14s %4.1f / %4.1f\n", roadnet::SpAlgorithmName(algo),
                oracle.Distance(ex.v(2), ex.v(16)),
                oracle.Distance(ex.v(12), ex.v(17)));
  }
  std::printf("(identical under every engine — exact distances are what\n"
              " keep the matching below invariant)\n");

  // Global settings as in the worked example: unit speed so time equals
  // distance, price per distance unit, capacity 4.
  core::Config cfg;
  cfg.speed_mps = 1.0;
  cfg.vehicle_capacity = 4;
  cfg.default_max_wait_s = 5.0;
  cfg.default_service_sigma = 0.2;
  cfg.price_distance_unit_m = 1.0;
  cfg.max_planned_pickup_s = 1e6;
  cfg.matcher = core::MatcherAlgorithm::kDualSide;

  roadnet::GridIndexOptions grid;
  grid.cells_x = 3;
  grid.cells_y = 3;
  auto system = core::PTRider::Create(ex.graph, cfg, grid);
  if (!system.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }
  core::PTRider& pt = **system;

  // Vehicles: c1 at v1 (will carry R1), empty c2 at v13.
  const auto c1 = pt.AddVehicle(ex.v(1));
  const auto c2 = pt.AddVehicle(ex.v(13));
  (void)c2;

  // Assign R1 = <v2, v16, 2, 5, 0.2> to c1 (its schedule <v1, v2, v16>).
  vehicle::Request r1;
  r1.id = 1;
  r1.start = ex.v(2);
  r1.destination = ex.v(16);
  r1.num_riders = 2;
  r1.max_wait_s = 5.0;
  r1.service_sigma = 0.2;
  auto m1 = pt.SubmitRequest(r1, 0.0);
  if (!m1.ok() || m1->options.empty()) {
    std::fprintf(stderr, "R1 received no options\n");
    return 1;
  }
  for (const core::Option& o : m1->options) {
    if (o.vehicle == *c1) {
      if (!pt.ChooseOption(r1, o, 0.0).ok()) return 1;
      break;
    }
  }
  std::printf("R1 assigned; c1 schedule: %s\n",
              pt.fleet().at(*c1).tree().DebugString().c_str());

  // The demonstration request R2 = <v12, v17, 2, 5, 0.2>.
  vehicle::Request r2;
  r2.id = 2;
  r2.start = ex.v(12);
  r2.destination = ex.v(17);
  r2.num_riders = 2;
  r2.max_wait_s = 5.0;
  r2.service_sigma = 0.2;
  auto m2 = pt.SubmitRequest(r2, 0.0);
  if (!m2.ok()) return 1;

  std::printf("\nOptions for R2 = <v12, v17, 2, 5, 0.2> (%s search):\n",
              core::MatcherAlgorithmName(cfg.matcher));
  std::printf("  %-8s %-12s %-10s\n", "vehicle", "pickup dist", "price");
  for (const core::Option& o : m2->options) {
    std::printf("  c%-7d %-12.1f %-10.2f\n", o.vehicle + 1,
                o.pickup_distance, o.price);
  }
  std::printf("(paper: r1 = <c1, 14, 4>, r2 = <c2, 8, 8.8>)\n\n");

  // Pricing policies (src/pricing/): the same two options quoted under
  // each fare policy. Surge is shown mid-burst (12 requests in its
  // window); the shared discount rewards joining c1, which already
  // carries R1's two riders.
  std::printf("The same options under each pricing policy:\n");
  std::printf("  %-8s %-10s %-10s %-16s\n", "vehicle", "paper", "surge",
              "shared-discount");
  double quoted[2][3] = {};
  for (const auto kind :
       {core::PricingPolicyKind::kPaper, core::PricingPolicyKind::kSurge,
        core::PricingPolicyKind::kSharedDiscount}) {
    core::Config pcfg = cfg;
    pcfg.pricing_policy = kind;
    pcfg.surge_window_s = 60.0;
    pcfg.surge_baseline_rate_per_min = 2.0;
    pcfg.surge_gain_per_rate = 0.1;
    auto policy = pricing::CreatePricingPolicy(pcfg);
    if (!policy.ok()) return 1;
    if (kind == core::PricingPolicyKind::kSurge) {
      for (int i = 0; i < 12; ++i) (*policy)->RecordRequest(0.0);
    }
    const size_t column =
        kind == core::PricingPolicyKind::kPaper
            ? 0
            : (kind == core::PricingPolicyKind::kSurge ? 1 : 2);
    for (size_t i = 0; i < m2->options.size() && i < 2; ++i) {
      const core::Option& o = m2->options[i];
      const vehicle::KineticTree& tree = pt.fleet().at(o.vehicle).tree();
      pricing::QuoteInputs quote;
      quote.num_riders = r2.num_riders;
      quote.committed_riders = tree.RidersCommitted();
      quote.new_total = o.new_total_distance;
      quote.current_total = tree.BestTotalDistance();
      quote.direct = m2->direct_distance_m;
      quoted[i][column] = (*policy)->Price(quote);
    }
    if (kind == core::PricingPolicyKind::kSharedDiscount) {
      for (size_t i = 0; i < m2->options.size() && i < 2; ++i) {
        std::printf("  c%-7d %-10.2f %-10.2f %-16.2f\n",
                    m2->options[i].vehicle + 1, quoted[i][0], quoted[i][1],
                    quoted[i][2]);
      }
    }
  }
  std::printf("(every policy keeps the matchers' pruning admissible, so\n"
              " the option SET is identical — only the fares move)\n\n");

  // The couple is price-sensitive: take the cheapest option and ride it
  // to completion.
  const core::Option* cheapest = &m2->options[0];
  for (const core::Option& o : m2->options) {
    if (o.price < cheapest->price) cheapest = &o;
  }
  if (!pt.ChooseOption(r2, *cheapest, 0.0).ok()) return 1;
  std::printf("Rider chose c%d (price %.2f). New schedule:\n  %s\n",
              cheapest->vehicle + 1, cheapest->price,
              pt.fleet().at(cheapest->vehicle).tree().DebugString().c_str());

  // Drive the winning vehicle along its schedule, stop by stop.
  const vehicle::VehicleId vid = cheapest->vehicle;
  double now = 0.0;
  std::printf("\nDriving c%d:\n", vid + 1);
  while (!pt.fleet().at(vid).tree().empty()) {
    const vehicle::Vehicle& v = pt.fleet().at(vid);
    const vehicle::Stop next = v.tree().BestBranch().stops.front();
    auto path = pt.oracle().ShortestPath(v.location(), next.location);
    if (!path.ok()) return 1;
    for (size_t i = 1; i < path->size(); ++i) {
      const double leg = ex.graph.EdgeWeight((*path)[i - 1], (*path)[i]);
      now += leg;  // unit speed
      if (!pt.UpdateVehicleLocation(vid, (*path)[i], leg, now,
                                    v.tree().BestBranch().stops)
               .ok()) {
        return 1;
      }
    }
    auto event = pt.VehicleArrivedAtStop(vid, now);
    if (!event.ok()) return 1;
    std::printf("  t=%-5.1f %s R%lld at v%d%s\n", now,
                event->stop.type == vehicle::StopType::kPickup
                    ? "picked up"
                    : "dropped off",
                static_cast<long long>(event->stop.request),
                event->stop.location + 1,
                event->stop.type == vehicle::StopType::kDropoff
                    ? (event->shared ? " (shared ride)" : " (solo ride)")
                    : "");
  }
  std::printf("\nAll riders served. Total driven: %.1f units.\n",
              pt.fleet().at(vid).total_distance_m());
  return 0;
}
