// Ablation bench — the design choices README's "Departures from the paper"
// calls out:
//
//  1. Con-Index value: SQMB+TBS vs ES (no Con-Index at all).
//  2. Buffer-pool capacity sweep: query I/O under memory pressure
//     (cache_pages in {0, 256, 2048, 16384}).
//  3. Posting layout: per-(segment,slot) blocks mean one Get per candidate
//     slot; measured as lists-read per verified segment.
//  4. Interior-trust: segments TBS accepted without verification.
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

  std::printf("Ablation 1+4: Con-Index value and interior trust "
              "(T=11:00, Prob=20%%)\n");
  PrintRow({"L(min)", "tbs_verified", "es_verified", "interior_trusted",
            "tbs_ms", "es_ms"});
  {
    auto engine = BuildBenchEngine(*dataset, 300);
    if (!engine.ok()) return 1;
    XyPoint loc = PickBusyLocation(**engine, *dataset, HMS(11));
    bool always_fewer = true;
    for (int minutes : {5, 10, 20, 30}) {
      SQuery q{loc, HMS(11), minutes * 60, 0.2};
      auto tbs = ColdSQueryIndexed(**engine, q);
      auto es = ColdSQueryExhaustive(**engine, q);
      if (!tbs.ok() || !es.ok()) return 1;
      uint64_t trusted =
          tbs->stats.max_region_segments - tbs->stats.segments_verified;
      PrintRow({std::to_string(minutes),
                std::to_string(tbs->stats.segments_verified),
                std::to_string(es->stats.segments_verified),
                std::to_string(trusted), Cell(tbs->stats.wall_ms, 2),
                Cell(es->stats.wall_ms, 2)});
      always_fewer &=
          tbs->stats.segments_verified < es->stats.segments_verified;
    }
    ShapeCheck("ablation.con_index_saves_verification", always_fewer,
               "TBS verifies fewer segments than ES at every L");
  }

  std::printf("\nAblation 2: buffer-pool capacity sweep "
              "(L=10min, Prob=20%%)\n");
  PrintRow({"cache_pages", "disk_reads", "hits", "misses", "wall_ms"});
  uint64_t reads_small = 0, reads_large = 0;
  for (size_t pages : {size_t{0}, size_t{256}, size_t{2048}, size_t{16384}}) {
    auto engine = BuildBenchEngine(*dataset, 300, pages);
    if (!engine.ok()) return 1;
    XyPoint loc = PickBusyLocation(**engine, *dataset, HMS(11));
    SQuery q{loc, HMS(11), 600, 0.2};
    // Warm con-index, then measure a query against a dropped page cache —
    // within one query, re-reads of hot pages hit (or miss) the pool.
    auto warm = (*engine)->SQueryIndexed(q);
    if (!warm.ok()) return 1;
    (*engine)->ResetIoStats(true);
    auto r = (*engine)->SQueryIndexed(q);
    if (!r.ok()) return 1;
    PrintRow({std::to_string(pages),
              std::to_string(r->stats.io.disk_page_reads),
              std::to_string(r->stats.io.cache_hits),
              std::to_string(r->stats.io.cache_misses),
              Cell(r->stats.wall_ms, 2)});
    if (pages == 0) reads_small = r->stats.io.disk_page_reads;
    if (pages == 16384) reads_large = r->stats.io.disk_page_reads;
  }
  ShapeCheck("ablation.buffer_pool_reduces_disk_reads",
             reads_large <= reads_small,
             std::to_string(reads_large) + " reads at 16k pages vs " +
                 std::to_string(reads_small) + " at 0");

  std::printf("\nAblation 3: posting layout efficiency (L=10min)\n");
  {
    auto engine = BuildBenchEngine(*dataset, 300);
    if (!engine.ok()) return 1;
    XyPoint loc = PickBusyLocation(**engine, *dataset, HMS(11));
    SQuery q{loc, HMS(11), 600, 0.2};
    auto r = ColdSQueryIndexed(**engine, q);
    if (!r.ok()) return 1;
    double lists_per_seg =
        r->stats.segments_verified == 0
            ? 0.0
            : static_cast<double>(r->stats.time_lists_read) /
                  r->stats.segments_verified;
    double slots = 600.0 / 300.0;  // candidate slots per verification
    PrintRow({"lists/verified", Cell(lists_per_seg, 2)});
    PrintRow({"candidate slots", Cell(slots, 0)});
    ShapeCheck("ablation.posting_layout_one_get_per_slot",
               lists_per_seg <= slots + 1.0,
               Cell(lists_per_seg, 2) + " list reads per verified segment");
  }
  return 0;
}
