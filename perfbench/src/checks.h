#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks against computations and properties independent of the
// code under test: a plain Dijkstra for direct distances, the naive
// matcher for the indexed matchers' option sets, the pricing floor,
// Definition 4's dominance, and a walk of Definition 2 over every
// committed schedule. None compares against a stored copy of an earlier
// output.

#include <string>

#include "bench.h"
#include "core/batch.h"
#include "core/distance_providers.h"
#include "core/ptrider.h"
#include "roadnet/dijkstra.h"

namespace perfbench {

/// Relative price difference the matcher check treats as rounding: far
/// below any fare difference the pricing policies make, far above the
/// few units in the last place their arithmetic differs by.
inline constexpr double kPriceRounding = 1e-12;

class OutputChecker {
 public:
  OutputChecker(const ptrider::core::PTRider& system, Outcome& outcome);

  /// Per-item checks: option prices >= the policy's MinPrice floor and no
  /// option dominating another; with `check_direct`, direct_distance_m
  /// against a plain Dijkstra run. Returns false (and records why) on a
  /// failure.
  bool CheckItem(const ptrider::core::BatchItem& item, bool check_direct);

  /// Matches `request` against the current state under kNaive and under
  /// the configured matcher: every configured-matcher option must be a
  /// naive one, and every naive option it leaves out must be dominated
  /// by one it returns, in price up to rounding (pruning is
  /// admissible). `system` must be quiescent (no stage in flight).
  bool CheckMatcherAdmissible(ptrider::core::PTRider& system,
                              const ptrider::vehicle::Request& request,
                              double now_s,
                              ptrider::roadnet::DistanceOracle& oracle);

  /// Every vehicle's branches satisfy Definition 2 at `now_s` (seats,
  /// stop order and completeness exactly; deadlines and detour
  /// allowances within the movement slack) and onboard riders stay
  /// within capacity. Returns the number of failing vehicles. Branches
  /// that pass this check but fail the strict
  /// KineticTree::ValidateSequence are counted in strict_rejects().
  size_t CheckFleet(const ptrider::core::PTRider& system, double now_s,
                    ptrider::roadnet::DistanceOracle& oracle);

  uint64_t checks() const { return checks_; }
  uint64_t strict_rejects() const { return strict_rejects_; }
  /// Naive options the configured matcher left out although a returned
  /// option is no farther and no dearer up to rounding (kPriceRounding).
  uint64_t tie_drops() const { return tie_drops_; }
  /// Largest pick-up lateness (s) and trip overrun (m) seen.
  double max_late_s() const { return max_late_s_; }
  double max_overrun_m() const { return max_overrun_m_; }

 private:
  /// Empty when `stops` is a valid schedule of `tree`, else why not.
  std::string CheckSchedule(const ptrider::vehicle::KineticTree& tree,
                            const std::vector<ptrider::vehicle::Stop>& stops,
                            const ptrider::vehicle::ScheduleContext& ctx,
                            ptrider::core::ExactDistanceProvider& dist);

  const ptrider::core::PTRider* system_;
  Outcome* outcome_;
  ptrider::roadnet::DijkstraEngine dijkstra_;
  uint64_t checks_ = 0;
  uint64_t strict_rejects_ = 0;
  uint64_t tie_drops_ = 0;
  double late_slack_s_ = 0.0;
  double overrun_slack_m_ = 0.0;
  double max_late_s_ = 0.0;
  double max_overrun_m_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
