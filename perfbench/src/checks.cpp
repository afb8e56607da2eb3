#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/distance_providers.h"
#include "core/dominance.h"
#include "util/string_util.h"

namespace perfbench {

namespace pc = ptrider::core;
namespace pr = ptrider::roadnet;
namespace pv = ptrider::vehicle;
using ptrider::util::StrFormat;

namespace {

bool SameOption(const pc::Option& a, const pc::Option& b) {
  return a.vehicle == b.vehicle && a.pickup_distance == b.pickup_distance &&
         a.pickup_time_s == b.pickup_time_s && a.price == b.price &&
         a.new_total_distance == b.new_total_distance &&
         a.schedule == b.schedule;
}

}  // namespace

OutputChecker::OutputChecker(const pc::PTRider& system, Outcome& outcome)
    : system_(&system), outcome_(&outcome), dijkstra_(system.graph()) {
  const pr::RoadNetwork& graph = system.graph();
  double longest = 0.0;
  for (pr::VertexId u = 0; u < static_cast<pr::VertexId>(graph.NumVertices());
       ++u) {
    for (const pr::Edge& e : graph.OutEdges(u)) {
      longest = std::max(longest, e.weight);
    }
  }
  // Vehicles move between vertices but their trees are re-rooted only at
  // vertices: a vehicle mid-edge reads up to one edge (plus a tick) late,
  // and a re-route at a vertex can leave an onboard trip up to a couple
  // of edges over its allowance (SimulationReport::trip_overrun_m).
  late_slack_s_ = longest / system.config().speed_mps + 1.0;
  overrun_slack_m_ = 2.0 * longest;
}

bool OutputChecker::CheckItem(const pc::BatchItem& item, bool check_direct) {
  ++checks_;
  const pv::Request& r = item.request;
  const pc::MatchResult& m = item.match;
  bool ok = true;
  if (check_direct) {
    // The oracle answers a symmetric pair from one canonical direction,
    // so the plain Dijkstra run may go either way; either sum must match
    // to the last bit.
    const double forward = dijkstra_.Distance(r.start, r.destination);
    const double reverse = dijkstra_.Distance(r.destination, r.start);
    if (m.direct_distance_m != forward && m.direct_distance_m != reverse) {
      outcome_->Fail(StrFormat("request %lld: direct_distance_m %.17g, "
                               "Dijkstra %.17g / %.17g",
                               static_cast<long long>(r.id),
                               m.direct_distance_m, forward, reverse));
      ok = false;
    }
  }
  // The pricing contract: MinPrice(n, direct) <= every quoted price.
  // The relative slack only absorbs the last bits of a rounding
  // difference between the two formulas.
  const double floor =
      system_->pricing_policy().MinPrice(r.num_riders, m.direct_distance_m);
  for (const pc::Option& o : m.options) {
    if (o.price < floor - 1e-9 * std::fabs(floor)) {
      outcome_->Fail(StrFormat("request %lld: price %.17g below floor %.17g",
                               static_cast<long long>(r.id), o.price,
                               floor));
      ok = false;
    }
  }
  for (size_t i = 0; i < m.options.size(); ++i) {
    for (size_t j = 0; j < m.options.size(); ++j) {
      if (i != j && pc::Dominates(m.options[i], m.options[j])) {
        outcome_->Fail(StrFormat("request %lld: option %zu dominates %zu",
                                 static_cast<long long>(r.id), i, j));
        ok = false;
      }
    }
  }
  if (item.assigned && m.options.empty()) {
    outcome_->Fail(StrFormat("request %lld assigned without an option",
                             static_cast<long long>(r.id)));
    ok = false;
  }
  return ok;
}

bool OutputChecker::CheckMatcherAdmissible(
    pc::PTRider& system, const pv::Request& request, double now_s,
    ptrider::roadnet::DistanceOracle& oracle) {
  ++checks_;
  const pc::MatcherAlgorithm configured = system.config().matcher;
  system.set_matcher(pc::MatcherAlgorithm::kNaive);
  const pc::MatchResult naive = system.MatchReadOnly(request, now_s, oracle);
  system.set_matcher(configured);
  const pc::MatchResult indexed =
      system.MatchReadOnly(request, now_s, oracle);
  // Admissible pruning returns only options the naive matcher returns,
  // and leaves out only options one of them dominates. A left-out option
  // whose price is lower only by rounding is counted apart (tie_drops):
  // the matchers' price arithmetic differs in the last bits (the
  // empty-vehicle price bound can round one unit in the last place
  // above the quoted price, and equal fares of different vehicles can
  // differ by a few units), so a tie in exact arithmetic can read as a
  // frontier point to one matcher and as dominated to the other.
  bool ok = true;
  for (const pc::Option& o : indexed.options) {
    bool found = false;
    for (const pc::Option& n : naive.options) found = found || SameOption(o, n);
    ok = ok && found;
  }
  uint64_t dropped = 0;
  for (const pc::Option& n : naive.options) {
    bool kept = false;
    bool covered = false;
    for (const pc::Option& o : indexed.options) {
      kept = kept || SameOption(o, n);
      covered = covered ||
                (o.pickup_distance <= n.pickup_distance &&
                 o.price <= n.price + kPriceRounding * std::fabs(n.price));
    }
    if (kept) continue;
    ++dropped;
    ok = ok && covered;
  }
  if (ok) {
    tie_drops_ += dropped;
    return true;
  }
  const auto list = [](const pc::MatchResult& m) {
    std::string text;
    for (const pc::Option& o : m.options) {
      text += StrFormat(" (v%d %.17g m, %.17g)", static_cast<int>(o.vehicle),
                        o.pickup_distance, o.price);
    }
    return text;
  };
  outcome_->Fail(StrFormat(
      "request %lld at t=%.1f: %s returned %zu options, naive %zu, and "
      "its pruning is not admissible;%s vs naive%s",
      static_cast<long long>(request.id), now_s,
      pc::MatcherAlgorithmName(configured), indexed.options.size(),
      naive.options.size(), list(indexed).c_str(), list(naive).c_str()));
  return false;
}

size_t OutputChecker::CheckFleet(const pc::PTRider& system, double now_s,
                                 ptrider::roadnet::DistanceOracle& oracle) {
  ++checks_;
  pc::ExactDistanceProvider dist(oracle);
  const pv::ScheduleContext ctx = system.MakeScheduleContext(now_s);
  size_t bad = 0;
  for (const pv::Vehicle& v : system.fleet().vehicles()) {
    const pv::KineticTree& tree = v.tree();
    std::string why;
    if (tree.RidersOnboard() > v.capacity()) why = "over capacity onboard";
    for (const pv::Branch& b : tree.branches()) {
      if (!why.empty()) break;
      why = CheckSchedule(tree, b.stops, ctx, dist);
      if (why.empty() && !tree.ValidateSequence(b.stops, ctx, dist, nullptr,
                                                0.0, nullptr, nullptr)) {
        ++strict_rejects_;
      }
    }
    if (!why.empty()) {
      ++bad;
      outcome_->Fail(StrFormat("vehicle %d at t=%.1f: %s; %s",
                               static_cast<int>(v.id()), now_s, why.c_str(),
                               tree.DebugString().c_str()));
    }
  }
  return bad;
}

std::string OutputChecker::CheckSchedule(const pv::KineticTree& tree,
                                         const std::vector<pv::Stop>& stops,
                                         const pv::ScheduleContext& ctx,
                                         pc::ExactDistanceProvider& dist) {
  // Definition 2 walked independently of KineticTree::WalkSequence:
  // every unfinished request appears exactly once per needed stop, in
  // pick-up-before-drop-off order; seats are never exceeded; pick-ups
  // meet their deadlines and onboard trips their (1 + sigma) allowance,
  // each within the movement slack.
  std::map<pv::RequestId, double> pickup_at;
  std::map<pv::RequestId, int> dropped;
  int riders = tree.RidersOnboard();
  pr::VertexId cur = tree.root_location();
  double cum = 0.0;
  for (const pv::Stop& stop : stops) {
    const auto it = tree.pending().find(stop.request);
    if (it == tree.pending().end()) return "stop of an unknown request";
    const pv::PendingRequest& p = it->second;
    cum += dist.Exact(cur, stop.location);
    cur = stop.location;
    if (stop.type == pv::StopType::kPickup) {
      if (p.onboard || pickup_at.count(stop.request) > 0) {
        return "pick-up of an onboard or already picked request";
      }
      pickup_at[stop.request] = cum;
      riders += p.request.num_riders;
      if (riders > tree.capacity()) return "over capacity";
      const double late = ctx.now_s + cum / ctx.speed_mps - p.pickup_deadline_s;
      max_late_s_ = std::max(max_late_s_, late);
      if (late > late_slack_s_) {
        return StrFormat("request %lld picked up %.1f s after its deadline",
                         static_cast<long long>(stop.request), late);
      }
    } else {
      if (++dropped[stop.request] > 1) return "drop-off listed twice";
      double trip = 0.0;
      if (p.onboard) {
        trip = p.consumed_trip_distance_m + cum;
      } else {
        const auto pk = pickup_at.find(stop.request);
        if (pk == pickup_at.end()) return "drop-off before its pick-up";
        trip = cum - pk->second;
      }
      riders -= p.request.num_riders;
      const double over = trip - p.max_trip_distance_m;
      max_overrun_m_ = std::max(max_overrun_m_, over);
      if (over > overrun_slack_m_) {
        return StrFormat("request %lld rides %.1f m over its allowance",
                         static_cast<long long>(stop.request), over);
      }
    }
  }
  for (const auto& [id, p] : tree.pending()) {
    if (dropped.count(id) == 0) return "request without a drop-off";
    if (!p.onboard && pickup_at.count(id) == 0) {
      return "waiting request without a pick-up";
    }
  }
  return "";
}

}  // namespace perfbench
