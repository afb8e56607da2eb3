#ifndef PTRIDER_ROADNET_SP_ALGORITHM_H_
#define PTRIDER_ROADNET_SP_ALGORITHM_H_

#include <string_view>

namespace ptrider::roadnet {

/// Point-to-point algorithm selection for the DistanceOracle. Split out
/// of distance_oracle.h so core::Config can name an algorithm without
/// pulling in every search engine.
enum class SpAlgorithm {
  kDijkstra,
  kAStar,
  /// Contraction hierarchies (roadnet/ch.h): one-time preprocessing
  /// shared read-only across DistanceOracle::Clone()s, then exact
  /// bidirectional upward queries that settle orders of magnitude fewer
  /// vertices than A* (DESIGN.md section 7).
  kContractionHierarchy,
};

const char* SpAlgorithmName(SpAlgorithm algo);

/// Parses "dijkstra" / "astar" / "ch" (alias
/// "contraction-hierarchy"); false when `name` matches none.
bool SpAlgorithmFromName(std::string_view name, SpAlgorithm* out);

}  // namespace ptrider::roadnet

#endif  // PTRIDER_ROADNET_SP_ALGORITHM_H_
