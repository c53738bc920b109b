// FleetSimulator: synthetic taxi fleet over a road network.
//
// Substitute for the Shenzhen taxi dataset (see README, "Departures from
// the paper": "Synthetic data"). Each taxi runs a daily schedule of
// origin→destination trips; routes come from an
// A* router under free-flow speeds, but traversal speeds follow the
// time-of-day CongestionModel plus per-trip noise, so rush hours genuinely
// slow the fleet. Trips are drawn from a hotspot model (taxis concentrate
// around popular places, with a bias toward the centre) mixed with fully
// random trips, which yields the broad-but-uneven coverage real taxi data
// has.
//
// Output: map-matched trajectories (ground truth) and, optionally, raw
// noisy GPS trajectories for exercising the MapMatcher.
#ifndef STRR_TRAJ_FLEET_SIMULATOR_H_
#define STRR_TRAJ_FLEET_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "live/observation.h"
#include "roadnet/road_network.h"
#include "traj/congestion.h"
#include "traj/trajectory.h"
#include "traj/trajectory_store.h"
#include "util/result.h"
#include "util/rng.h"

namespace strr {

/// Fleet generation knobs.
struct FleetOptions {
  uint32_t num_taxis = 200;
  int32_t num_days = 30;
  double trips_per_hour = 1.4;   ///< mean trips a working taxi starts hourly
  int shift_start_hour = 6;     ///< taxis work [shift_start, shift_end)
  int shift_end_hour = 24;
  double night_fraction = 0.15;  ///< share of taxis on the night shift
  int num_hotspots = 48;         ///< trip endpoint attractors
  double hotspot_trip_fraction = 0.7;  ///< trips between hotspot segments
  double gps_interval_sec = 30.0;      ///< raw GPS sampling period
  double gps_noise_std_m = 18.0;       ///< raw GPS position noise
  double speed_noise_std = 0.12;       ///< per-trip lognormal-ish speed noise
  /// Probability that a segment traversal is badly delayed (red light,
  /// double-parked truck, jam shockwave); such traversals run at a small
  /// fraction of the expected speed. This produces the near-crawl minimum
  /// observed speeds real taxi data has, which the Con-Index Near lists
  /// (and hence minimum bounding regions) depend on.
  double slow_traversal_prob = 0.08;
  double slow_traversal_factor_lo = 0.12;  ///< slow traversal speed range
  double slow_traversal_factor_hi = 0.40;
  uint64_t seed = 2014;
  CongestionModel congestion;
};

/// Result of a simulation run.
struct FleetResult {
  std::unique_ptr<TrajectoryStore> store;     ///< matched trajectories
  std::vector<RawTrajectory> raw_sample;      ///< raw GPS (if requested)
  uint64_t num_trips = 0;
  uint64_t num_gps_points = 0;  ///< raw GPS points the fleet would emit
};

/// Simulates the fleet. When `raw_days` > 0, raw GPS trajectories for the
/// first `raw_days` days are also materialized (they are bulky, so benches
/// leave this at 0 and tests use 1).
StatusOr<FleetResult> SimulateFleet(const RoadNetwork& network,
                                    const FleetOptions& options,
                                    int raw_days = 0);

/// Streaming counterpart of SimulateFleet: an endless source of live speed
/// observations drawn from the same congestion + noise model the fleet's
/// matched samples come from. Drives the live ingestion subsystem in soak
/// tests and benches the way a real probe-vehicle feed would: plausible
/// per-segment speeds, rush-hour dips, occasional near-crawl traversals
/// that move a slot's minimum. Deterministic from the seed. Not
/// thread-safe; give each producer thread its own source (fork the seed).
/// Observation generation knobs (defaults mirror FleetOptions).
struct LiveObservationOptions {
  uint64_t seed = 2014;
  double speed_noise_std = 0.12;
  double slow_traversal_prob = 0.08;
  double slow_traversal_factor_lo = 0.12;
  double slow_traversal_factor_hi = 0.40;
  CongestionModel congestion;
};

class LiveObservationSource {
 public:
  /// The network must outlive the source.
  explicit LiveObservationSource(const RoadNetwork& network,
                                 const LiveObservationOptions& options = {});

  /// One observation on a uniformly random segment at `time_of_day_sec`.
  SpeedObservation Next(int64_t time_of_day_sec);

  /// One observation on a specific segment (targeted tests/benches).
  SpeedObservation NextAt(SegmentId segment, int64_t time_of_day_sec);

 private:
  const RoadNetwork* network_;
  LiveObservationOptions options_;
  Rng rng_;
};

}  // namespace strr

#endif  // STRR_TRAJ_FLEET_SIMULATOR_H_
