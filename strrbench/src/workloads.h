// Workload inputs: the query streams and the observation feed.
//
// Everything here is a pure function of the dataset, the engine's static
// indexes and the --seed, generated before timing starts; the engine only
// ever sees the resulting plans and observations. Random draws use a local
// SplitMix64 so one seed gives the same inputs with any standard library.
#ifndef STRRBENCH_WORKLOADS_H_
#define STRRBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/reachability_engine.h"
#include "live/observation.h"
#include "query/query.h"
#include "query/query_plan.h"

namespace strrbench {

enum class Workload { kPaperSweep, kServeHot, kIngestServe };

/// "paper_sweep" | "serve_hot" | "ingest_serve"; false on anything else.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// SplitMix64: small, fast, and identical on every platform.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi] (hi >= lo).
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a label.
uint64_t DeriveSeed(uint64_t seed, const std::string& label);

/// One query of a stream: the raw query (planner input; an s-query has one
/// location) and the plan the engine executes.
struct WorkItem {
  strr::MQuery query;
  strr::QueryPlan plan;
  bool multi = false;
};

/// Street segments (no highways) whose midpoint the spatial index resolves
/// back to the segment or its reverse twin: the addresses queries use.
std::vector<strr::SegmentId> AddressableSegments(
    const strr::ReachabilityEngine& engine);

/// The paper's §4 grid, `count` unique queries: L in 5..35 min, Prob in
/// 0.2..1.0 and (every 4th query, an m-query) n in {3,5,7,9} rotate
/// through the grid; T is drawn from 07:00..22:00 (5 min steps) and the
/// locations from midpoints of addressable segments citywide with traffic
/// in T's slot.
strr::StatusOr<std::vector<WorkItem>> PaperSweepStream(
    const strr::ReachabilityEngine& engine,
    const std::vector<strr::SegmentId>& addressable, uint64_t seed,
    size_t count);

/// Seed of serve_hot's plan pool. The pool is fixed; --seed only drives
/// the clients' draws from it (and ingest_serve's feed).
inline constexpr uint64_t kHotPoolSeed = 2017;

/// serve_hot's plan pool: `pool_size` unique plans within 1 km of the
/// rush-hour hotspots, T in the half hour around the morning or evening
/// congestion peak (07:45..08:10, 17:45..18:10), L in 5..20 min, Prob in
/// 0.2..1.0, every 8th an m-query with n in {3,5}. The half-hour windows
/// keep the pool's posting pages within the default 4,096-page buffer
/// pool; plans spread over the full 07-10 and 17-20 windows touch about
/// 10,000 pages and miss on ~13% of page requests.
strr::StatusOr<std::vector<WorkItem>> HotPlanPool(
    const strr::ReachabilityEngine& engine, const strr::Dataset& dataset,
    const std::vector<strr::SegmentId>& addressable, size_t pool_size);

/// Per-client streams of pool indices: every 8th query an m-query drawn
/// uniformly from the pool's m-queries, the rest s-queries drawn with Zipf
/// skew (s = 1) over the pool's s-queries in pool order (the first is the
/// hottest). Client c's stream depends only on the seed and c. Uniform
/// m-query draws keep mquery_p50_ms from resting on two or three hot
/// m-queries.
std::vector<std::vector<uint32_t>> HotDraws(const std::vector<WorkItem>& pool,
                                            uint64_t seed, size_t clients,
                                            size_t draws_per_client);

/// ingest_serve's feed: `count` observations, each on a segment of some
/// pool plan's region at a time inside that plan's [T, T+L) window, with
/// speeds from the fleet's live observation model.
std::vector<strr::SpeedObservation> FeedSchedule(
    const strr::ReachabilityEngine& engine, const std::vector<WorkItem>& pool,
    const std::vector<std::vector<strr::SegmentId>>& regions, uint64_t seed,
    size_t count);

/// Digest of a stream's plans (strategy, locations, starts, T, L, Prob).
uint64_t StreamDigest(const std::vector<WorkItem>& items);

}  // namespace strrbench

#endif  // STRRBENCH_WORKLOADS_H_
