#include "workloads.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "traj/fleet_simulator.h"
#include "util/hashing.h"
#include "util/time_util.h"

namespace strrbench {

using strr::MQuery;
using strr::QueryPlan;
using strr::ReachabilityEngine;
using strr::SegmentId;
using strr::SQuery;
using strr::StatusOr;

namespace {

strr::XyPoint Midpoint(const strr::RoadNetwork& net, SegmentId s) {
  const strr::RoadSegment& seg = net.segment(s);
  return seg.shape.Interpolate(seg.length / 2);
}

/// Plans `query` (one location = s-query) and checks that an m-query's
/// locations resolve to pairwise disjoint start sets. False when the
/// draw must be retried.
bool PlanItem(const ReachabilityEngine& engine, MQuery query, WorkItem* out) {
  WorkItem item;
  item.multi = query.locations.size() > 1;
  if (item.multi) {
    StatusOr<QueryPlan> plan = engine.planner().PlanMQuery(query);
    if (!plan.ok()) return false;
    std::vector<SegmentId> starts = plan->AllStartSegments();
    std::sort(starts.begin(), starts.end());
    if (std::adjacent_find(starts.begin(), starts.end()) != starts.end()) {
      return false;
    }
    item.plan = std::move(*plan);
  } else {
    SQuery s{query.locations[0], query.start_tod, query.duration, query.prob};
    StatusOr<QueryPlan> plan = engine.planner().PlanSQuery(s);
    if (!plan.ok()) return false;
    item.plan = std::move(*plan);
  }
  item.query = std::move(query);
  *out = std::move(item);
  return true;
}

/// Identity of a plan for the uniqueness rule: start sets, T, L, Prob.
using PlanKey =
    std::tuple<std::vector<std::vector<SegmentId>>, int64_t, int64_t, double>;

PlanKey KeyOf(const QueryPlan& plan) {
  return {plan.location_starts, plan.start_tod, plan.duration, plan.prob};
}

/// Draws up to `n` distinct segments from `candidates` that carry traffic
/// in `slot`; empty when the candidates run dry.
std::vector<SegmentId> DrawWithTraffic(const strr::StIndex& index,
                                       const std::vector<SegmentId>& candidates,
                                       strr::SlotId slot, size_t n,
                                       SplitMix64& rng) {
  std::vector<SegmentId> picked;
  if (candidates.empty()) return picked;
  for (int attempt = 0; attempt < 256 && picked.size() < n; ++attempt) {
    SegmentId s = candidates[rng.Int(0, candidates.size() - 1)];
    if (!index.HasTraffic(s, slot)) continue;
    if (std::find(picked.begin(), picked.end(), s) != picked.end()) continue;
    picked.push_back(s);
  }
  if (picked.size() < n) picked.clear();
  return picked;
}

/// The segments with the most rush-hour (07-10, 17-20) traversals in the
/// trajectory database, busiest first.
std::vector<SegmentId> RushHourHotspots(
    const strr::Dataset& dataset, const std::vector<SegmentId>& addressable,
    size_t count) {
  std::vector<uint64_t> flux(dataset.network.NumSegments(), 0);
  dataset.store->ForEach([&](const strr::MatchedTrajectory& t) {
    for (const strr::MatchedSample& sample : t.samples) {
      int64_t tod = strr::TimeOfDay(sample.timestamp);
      bool rush = (tod >= strr::HMS(7) && tod < strr::HMS(10)) ||
                  (tod >= strr::HMS(17) && tod < strr::HMS(20));
      if (rush && sample.segment < flux.size()) ++flux[sample.segment];
    }
  });
  std::vector<std::pair<uint64_t, SegmentId>> scored;
  for (SegmentId s : addressable) scored.emplace_back(flux[s], s);
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<SegmentId> out;
  for (size_t i = 0; i < scored.size() && out.size() < count; ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPaperSweep, Workload::kServeHot,
                     Workload::kIngestServe}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPaperSweep:
      return "paper_sweep";
    case Workload::kServeHot:
      return "serve_hot";
    case Workload::kIngestServe:
      return "ingest_serve";
  }
  return "?";
}

uint64_t DeriveSeed(uint64_t seed, const std::string& label) {
  return strr::Fnv1a64(label, strr::HashCombine(0x5eedULL, seed));
}

std::vector<SegmentId> AddressableSegments(const ReachabilityEngine& engine) {
  const strr::RoadNetwork& net = engine.network();
  std::vector<SegmentId> out;
  for (SegmentId s = 0; s < net.NumSegments(); ++s) {
    if (net.segment(s).level == strr::RoadLevel::kHighway) continue;
    StatusOr<SegmentId> located =
        engine.st_index().LocateSegment(Midpoint(net, s));
    if (!located.ok()) continue;
    if (*located == s || *located == net.segment(s).reverse_id) {
      out.push_back(s);
    }
  }
  return out;
}

StatusOr<std::vector<WorkItem>> PaperSweepStream(
    const ReachabilityEngine& engine, const std::vector<SegmentId>& addressable,
    uint64_t seed, size_t count) {
  static constexpr int kMQueryN[] = {3, 5, 7, 9};
  SplitMix64 rng(DeriveSeed(seed, "paper_sweep"));
  const strr::StIndex& index = engine.st_index();
  std::vector<WorkItem> items;
  std::set<PlanKey> seen;
  for (int guard = 0; items.size() < count; ++guard) {
    if (guard > static_cast<int>(count) * 64 + 1024) {
      return strr::Status::Internal("paper_sweep: cannot draw enough queries");
    }
    // L, Prob and n walk the grid in a fixed rotation (every run issues the
    // same mix, whatever the seed); T and the locations are drawn.
    const size_t i = items.size();
    bool multi = i % 4 == 3;
    MQuery q;
    q.start_tod = strr::HMS(7) + 300 * rng.Int(0, 180);    // 07:00..22:00
    q.duration = 60 * 5 * static_cast<int64_t>(1 + i % 7);  // 5..35 min
    q.prob = 0.2 * static_cast<double>(1 + (i / 7) % 5);    // 0.2..1.0
    size_t n = multi ? kMQueryN[(i / 4) % 4] : 1;
    std::vector<SegmentId> segs = DrawWithTraffic(
        index, addressable, index.SlotForTime(q.start_tod), n, rng);
    if (segs.empty()) continue;
    for (SegmentId s : segs) q.locations.push_back(Midpoint(engine.network(), s));
    WorkItem item;
    if (!PlanItem(engine, std::move(q), &item)) continue;
    if (!seen.insert(KeyOf(item.plan)).second) continue;
    items.push_back(std::move(item));
  }
  return items;
}

StatusOr<std::vector<WorkItem>> HotPlanPool(
    const ReachabilityEngine& engine, const strr::Dataset& dataset,
    const std::vector<SegmentId>& addressable, size_t pool_size) {
  static constexpr size_t kHotspots = 24;
  static constexpr double kNeighbourhoodM = 1000.0;
  const strr::RoadNetwork& net = engine.network();
  const strr::StIndex& index = engine.st_index();
  std::vector<SegmentId> hotspots =
      RushHourHotspots(dataset, addressable, kHotspots);
  if (hotspots.empty()) {
    return strr::Status::Internal("serve_hot: no hotspots in the dataset");
  }
  // Addressable segments around each hotspot.
  std::vector<std::vector<SegmentId>> near(hotspots.size());
  for (size_t h = 0; h < hotspots.size(); ++h) {
    strr::XyPoint centre = Midpoint(net, hotspots[h]);
    for (SegmentId s : addressable) {
      if (strr::Distance(Midpoint(net, s), centre) <= kNeighbourhoodM) {
        near[h].push_back(s);
      }
    }
  }
  SplitMix64 rng(DeriveSeed(kHotPoolSeed, "serve_hot.pool"));
  std::vector<WorkItem> pool;
  std::set<PlanKey> seen;
  for (int guard = 0; pool.size() < pool_size; ++guard) {
    if (guard > static_cast<int>(pool_size) * 256) {
      return strr::Status::Internal("serve_hot: cannot draw enough plans");
    }
    bool multi = pool.size() % 8 == 7;
    MQuery q;
    // The half hour around a congestion peak: 07:45..08:10 or 17:45..18:10.
    int64_t window = rng.Int(0, 1) == 0 ? strr::HMS(7, 45) : strr::HMS(17, 45);
    q.start_tod = window + 300 * rng.Int(0, 5);
    q.duration = 60 * 5 * rng.Int(1, 4);              // 5..20 min
    q.prob = 0.2 * static_cast<double>(rng.Int(1, 5));
    size_t n = multi ? (rng.Int(0, 1) == 0 ? 3 : 5) : 1;
    const std::vector<SegmentId>& candidates =
        near[rng.Int(0, hotspots.size() - 1)];
    std::vector<SegmentId> segs = DrawWithTraffic(
        index, candidates, index.SlotForTime(q.start_tod), n, rng);
    if (segs.empty()) continue;
    for (SegmentId s : segs) q.locations.push_back(Midpoint(net, s));
    WorkItem item;
    if (!PlanItem(engine, std::move(q), &item)) continue;
    if (!seen.insert(KeyOf(item.plan)).second) continue;
    pool.push_back(std::move(item));
  }
  return pool;
}

std::vector<std::vector<uint32_t>> HotDraws(const std::vector<WorkItem>& pool,
                                            uint64_t seed, size_t clients,
                                            size_t draws_per_client) {
  std::vector<uint32_t> singles, multis;  // pool indices, in rank order
  for (uint32_t i = 0; i < pool.size(); ++i) {
    (pool[i].multi ? multis : singles).push_back(i);
  }
  std::vector<double> cdf(singles.size());
  double total = 0.0;
  for (size_t r = 0; r < singles.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);  // Zipf, s = 1
    cdf[r] = total;
  }
  std::vector<std::vector<uint32_t>> draws(clients);
  if (singles.empty() || multis.empty()) return draws;
  for (size_t c = 0; c < clients; ++c) {
    SplitMix64 rng(DeriveSeed(seed, "hot.client." + std::to_string(c)));
    draws[c].reserve(draws_per_client);
    for (size_t i = 0; i < draws_per_client; ++i) {
      if (i % 8 == 7) {
        draws[c].push_back(multis[rng.Int(0, multis.size() - 1)]);
        continue;
      }
      double u = rng.Unit() * total;
      size_t rank = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      draws[c].push_back(singles[std::min(rank, singles.size() - 1)]);
    }
  }
  return draws;
}

std::vector<strr::SpeedObservation> FeedSchedule(
    const ReachabilityEngine& engine, const std::vector<WorkItem>& pool,
    const std::vector<std::vector<SegmentId>>& regions, uint64_t seed,
    size_t count) {
  std::vector<size_t> usable;
  for (size_t i = 0; i < pool.size() && i < regions.size(); ++i) {
    if (!regions[i].empty()) usable.push_back(i);
  }
  std::vector<strr::SpeedObservation> out;
  if (usable.empty()) return out;
  SplitMix64 rng(DeriveSeed(seed, "ingest.feed"));
  strr::LiveObservationOptions source_opt;
  source_opt.seed = DeriveSeed(seed, "ingest.speeds");
  strr::LiveObservationSource source(engine.network(), source_opt);
  out.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    size_t p = usable[rng.Int(0, usable.size() - 1)];
    const std::vector<SegmentId>& region = regions[p];
    SegmentId seg = region[rng.Int(0, region.size() - 1)];
    int64_t tod = pool[p].plan.start_tod + rng.Int(0, pool[p].plan.duration - 1);
    out.push_back(source.NextAt(seg, tod));
  }
  return out;
}

uint64_t StreamDigest(const std::vector<WorkItem>& items) {
  uint64_t h = strr::kFnv1a64Offset;
  auto mix = [&h](const void* p, size_t n) { h = strr::Fnv1a64(p, n, h); };
  for (const WorkItem& item : items) {
    const QueryPlan& plan = item.plan;
    mix(&plan.strategy, sizeof(plan.strategy));
    for (const strr::XyPoint& p : plan.locations) {
      mix(&p.x, sizeof(p.x));
      mix(&p.y, sizeof(p.y));
    }
    for (const auto& starts : plan.location_starts) {
      mix(starts.data(), starts.size() * sizeof(SegmentId));
    }
    mix(&plan.start_tod, sizeof(plan.start_tod));
    mix(&plan.duration, sizeof(plan.duration));
    mix(&plan.prob, sizeof(plan.prob));
  }
  return h;
}

}  // namespace strrbench
