// CityGenerator: deterministic synthetic metropolis.
//
// Substitute for the Shenzhen road map (see README, "Departures from the
// paper": "Synthetic data"). Produces a road network with the topological
// features the paper's evaluation depends on:
//   * a dense grid of arterial and local streets,
//   * a ring highway plus radial highways into the centre,
//   * three speed classes, a mix of one-way and two-way streets,
//   * irregular jitter so geometry is not degenerate.
// The output is georeferenced near the paper's study area (Shenzhen,
// 22.53N 114.05E) so GeoJSON dumps look plausible on a real map.
#ifndef STRR_ROADNET_CITY_GENERATOR_H_
#define STRR_ROADNET_CITY_GENERATOR_H_

#include <cstdint>

#include "geo/point.h"
#include "roadnet/road_network.h"
#include "util/result.h"

namespace strr {

/// Parameters of the synthetic city.
struct CityOptions {
  int grid_cols = 24;            ///< arterial grid columns
  int grid_rows = 16;            ///< arterial grid rows
  double block_meters = 900.0;   ///< arterial block edge length
  double jitter_meters = 60.0;   ///< node position noise
  double one_way_fraction = 0.15;  ///< local/arterial streets made one-way
  int radial_highways = 4;       ///< highways from ring to centre
  bool ring_highway = true;      ///< perimeter expressway
  uint64_t seed = 7;             ///< determinism knob
  /// Every `local_every`-th grid line is local class instead of arterial.
  int local_every = 2;
  GeoPoint geo_origin{22.53, 114.05};  ///< anchor for the projection
};

/// Generated city: network plus the projection used to georeference it.
struct City {
  RoadNetwork network;
  Projection projection;
  XyPoint center;  ///< projected city centre
};

/// Builds and finalizes the synthetic city network.
StatusOr<City> GenerateCity(const CityOptions& options);

}  // namespace strr

#endif  // STRR_ROADNET_CITY_GENERATOR_H_
