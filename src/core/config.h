#ifndef PTRIDER_CORE_CONFIG_H_
#define PTRIDER_CORE_CONFIG_H_

#include <string>

#include "roadnet/sp_algorithm.h"
#include "util/status.h"

namespace ptrider::core {

/// Which matching algorithm PTRider uses (Section 3.3; selectable from the
/// demo's website interface).
enum class MatcherAlgorithm {
  /// Evaluate every vehicle with full kinetic-tree insertion ([7] extended
  /// to return all non-dominated pairs). The baseline.
  kNaive,
  /// Grid expansion from the request start with pruning lemmas.
  kSingleSide,
  /// Single-side plus destination-side pruning of the price lower bound.
  kDualSide,
};

const char* MatcherAlgorithmName(MatcherAlgorithm algorithm);

/// Which fare policy the system quotes with (src/pricing/; the demo's
/// "price calculator function" module made pluggable).
enum class PricingPolicyKind {
  /// Definition 3 verbatim (pricing::PaperPolicy).
  kPaper,
  /// Demand-responsive surge over the paper fare (pricing::SurgePolicy).
  kSurge,
  /// Occupancy-discounted shared fares (pricing::SharedDiscountPolicy).
  kSharedDiscount,
};

const char* PricingPolicyKindName(PricingPolicyKind kind);

/// Global system parameters (the demo's admin panel, Fig. 4(c): taxi
/// capacity, number of taxis, maximal waiting time, service constraint,
/// price calculator function, matching algorithm).
struct Config {
  /// Constant vehicle speed (Section 4 uses 48 km/h).
  double speed_mps = 48.0 / 3.6;
  /// Seats per taxi.
  int vehicle_capacity = 3;
  /// Global maximal waiting time w applied to requests, seconds.
  double default_max_wait_s = 300.0;
  /// Global service constraint sigma.
  double default_service_sigma = 0.2;

  // --- Price model (Definition 3) -----------------------------------------
  /// f_n = base + (n - 1) * per_extra; paper: 0.3 + (n-1)*0.1.
  double price_base_ratio = 0.3;
  double price_per_extra_rider = 0.1;
  /// Distance unit the price multiplies (meters). 1000 prices per km;
  /// the paper's worked example uses 1 (unit edge weights).
  double price_distance_unit_m = 1000.0;

  // --- Pricing policy (src/pricing/) ---------------------------------------
  /// Fare policy quoted to riders; every kind honors the bound contract of
  /// pricing::PricingPolicy, so matcher pruning stays admissible.
  PricingPolicyKind pricing_policy = PricingPolicyKind::kPaper;
  /// kSurge: rolling demand window, seconds.
  double surge_window_s = 600.0;
  /// kSurge: request rate (requests/minute) where surge starts.
  double surge_baseline_rate_per_min = 6.0;
  /// kSurge: extra multiplier per request/minute above the baseline.
  double surge_gain_per_rate = 0.05;
  /// kSurge: multiplier ceiling (>= 1).
  double surge_max_multiplier = 2.5;
  /// kSharedDiscount: discount fraction per rider already committed.
  double shared_discount_per_rider = 0.05;
  /// kSharedDiscount: discount ceiling, in [0, 1).
  double shared_discount_max = 0.30;

  // --- Distance oracle ------------------------------------------------------
  /// Point-to-point engine behind roadnet::DistanceOracle. All engines
  /// are exact; kDijkstra, kAStar and kContractionHierarchy return
  /// bit-identical doubles on networks whose shortest paths are unique
  /// beyond float rounding (all generated networks and the paper
  /// example — DESIGN.md section 7.4 states the condition), making
  /// matching and simulation results invariant under the choice there.
  /// On coarse-weight networks with rounding-tied paths (e.g. real-trace
  /// imports) the invariance claim weakens to ULP-closeness. This knob
  /// trades per-query cost against preprocessing:
  /// kContractionHierarchy preprocesses once at PTRider::Create and the
  /// index is shared read-only by every dispatch/movement worker's
  /// oracle clone.
  roadnet::SpAlgorithm sp_algorithm = roadnet::SpAlgorithm::kAStar;

  /// Path to a prebuilt snapshot file (tools/snapshot_build; loaded via
  /// snapshot::Snapshot). Empty = build graph and indexes in memory.
  /// Consumed by the example/service entry points — core never touches
  /// the filesystem itself.
  std::string snapshot_path;

  // --- Matching ------------------------------------------------------------
  MatcherAlgorithm matcher = MatcherAlgorithm::kDualSide;
  /// Options whose planned pick-up lies beyond this horizon are not
  /// offered (bounds the search; a real dispatcher would not offer a taxi
  /// an hour away).
  double max_planned_pickup_s = 900.0;
  /// Caps each vehicle's kinetic-tree schedule set after commitments
  /// (0 = unlimited). Bounds worst-case matching cost on busy vehicles
  /// at the price of reordering flexibility.
  size_t max_schedules_per_vehicle = 0;

  // --- Dispatch ------------------------------------------------------------
  /// Worker threads for batch dispatch (src/dispatch/). 0 selects the
  /// sequential core::BatchDispatcher; >= 1 selects the two-phase
  /// dispatch::ParallelDispatcher with that many matching workers.
  /// Results are deterministic and identical across all settings
  /// (DESIGN.md section 5); this only trades cores for latency.
  int dispatch_threads = 0;

  /// Region shards of the vehicle index (vehicle::VehicleIndex): the
  /// grid's cells are partitioned into this many contiguous ranges, and
  /// deferred index re-registrations apply shard-concurrently in the
  /// movement commit and the batch dispatcher's commit phase. Every
  /// shard count >= 1 produces a bit-identical SimulationReport
  /// (DESIGN.md section 10); > 1 only enables commit-side concurrency.
  int index_shards = 1;

  /// Planned pick-up radius in meters implied by the horizon.
  double MaxPickupRadiusM() const {
    return max_planned_pickup_s * speed_mps;
  }

  /// Validates parameter ranges.
  util::Status Validate() const;
};

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_CONFIG_H_
