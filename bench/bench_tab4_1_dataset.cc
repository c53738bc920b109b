// Table 4.1 — Dataset Description.
//
// Prints the synthetic stand-in dataset's statistics next to the paper's
// Shenzhen values. Absolute scale is deliberately smaller (single-machine
// reproduction; see README, "Departures from the paper": "Synthetic data");
// the table records both so the scale factor is explicit.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_common.h"

using namespace strr;        // NOLINT
using namespace strr::bench;  // NOLINT

int main() {
  auto dataset = LoadOrBuildBenchDataset();
  if (!dataset.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  DatasetStats stats = dataset->store->ComputeStats();
  Mbr box = dataset->network.BoundingBox();
  double area_sq_miles = box.Width() * box.Height() / 2.59e6;

  std::printf("Table 4.1: Dataset Description (paper vs this reproduction)\n");
  PrintRow({"Statistic", "Paper", "Here"});
  PrintRow({"--------------", "----------", "----------"});
  PrintRow({"City size", "400 mi^2",
            Cell(area_sq_miles, 0) + " mi^2"});
  PrintRow({"Duration", "30 days", std::to_string(stats.num_days) + " days"});
  PrintRow({"Taxis", "21385", std::to_string(stats.num_taxis)});
  PrintRow({"Trajectories", "641550", std::to_string(stats.num_trajectories)});
  PrintRow({"GPS records", "407040083",
            std::to_string(dataset->approx_gps_points)});
  PrintRow({"Matched samples", "n/a", std::to_string(stats.num_samples)});
  PrintRow({"Road segments", "n/a",
            std::to_string(dataset->network.NumSegments())});
  PrintRow({"Road length", "n/a",
            Cell(dataset->network.TotalLengthMeters() / 1000.0, 0) + " km"});
  PrintRow({"Trips", "n/a", std::to_string(dataset->num_trips)});
  PrintRow({"Mean speed", "n/a", Cell(stats.mean_speed_mps, 1) + " m/s"});

  auto by_level = dataset->network.CountByLevel();
  std::printf("\nRoad class mix: highway=%zu arterial=%zu local=%zu\n",
              by_level[0], by_level[1], by_level[2]);

  ShapeCheck("tab4.1.thirty_days", stats.num_days == 30,
             std::to_string(stats.num_days) + " days");
  ShapeCheck("tab4.1.nonempty_fleet",
             stats.num_taxis > 0 && stats.num_trajectories > 0,
             std::to_string(stats.num_trajectories) + " trajectories");
  ShapeCheck("tab4.1.all_road_classes",
             by_level[0] > 0 && by_level[1] > 0 && by_level[2] > 0,
             "three classes present");
  return 0;
}
