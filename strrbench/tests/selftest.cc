// strrbench's own tests: the percentile rule and seeded input generation.
//
//   strrbench_selftest WORK_DIR
//
// Builds a small test-scale dataset and engine under WORK_DIR (seconds),
// then checks that one seed always yields the same query streams and
// observation feed, and that another seed yields different ones.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/dataset.h"
#include "core/reachability_engine.h"
#include "workloads.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      ++failures;                                                  \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                         \
    }                                                              \
  } while (0)

using strrbench::HighestSupportedPercentile;
using strrbench::SamplesBeyond;
using strrbench::SortedPercentile;

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(SortedPercentile(v, 0.5) == 500);
  EXPECT(SortedPercentile(v, 0.99) == 990);
  EXPECT(SortedPercentile(v, 1.0) == 1000);
  EXPECT(SortedPercentile({}, 0.5) == 0);
  EXPECT(SortedPercentile({7}, 0.99) == 7);

  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(SamplesBeyond(10000, 0.999) == 10);

  const std::vector<double> ladder = {0.99, 0.95, 0.9};
  EXPECT(HighestSupportedPercentile(1000, ladder) == 0.99);
  EXPECT(HighestSupportedPercentile(5000, ladder) == 0.99);
  EXPECT(HighestSupportedPercentile(999, ladder) == 0.95);
  EXPECT(HighestSupportedPercentile(200, ladder) == 0.95);
  EXPECT(HighestSupportedPercentile(199, ladder) == 0.9);
  EXPECT(HighestSupportedPercentile(100, ladder) == 0.9);
  EXPECT(HighestSupportedPercentile(99, ladder) == 0.5);
  EXPECT(HighestSupportedPercentile(10000) == 0.999);
  EXPECT(HighestSupportedPercentile(9999) == 0.99);
  // Whatever is chosen keeps >= 10 samples beyond it.
  for (size_t n = 100; n <= 3000; n += 7) {
    EXPECT(SamplesBeyond(n, HighestSupportedPercentile(n, ladder)) >= 10);
  }
}

uint64_t FeedDigest(const std::vector<strr::SpeedObservation>& feed) {
  uint64_t h = 1469598103934665603ULL;
  for (const strr::SpeedObservation& o : feed) {
    h = (h ^ o.segment) * 1099511628211ULL;
    h = (h ^ static_cast<uint64_t>(o.time_of_day_sec)) * 1099511628211ULL;
    h = (h ^ static_cast<uint64_t>(o.speed_mps * 1e6)) * 1099511628211ULL;
  }
  return h;
}

void TestSeededStreams(const std::string& work_dir) {
  auto dataset = strr::BuildDataset(strr::TestDatasetOptions());
  EXPECT(dataset.ok());
  if (!dataset.ok()) return;
  strr::EngineOptions opt;
  opt.work_dir = work_dir;
  opt.query_threads = 1;
  std::filesystem::create_directories(work_dir);
  auto engine =
      strr::ReachabilityEngine::Build(dataset->network, *dataset->store, opt);
  EXPECT(engine.ok());
  if (!engine.ok()) return;
  const strr::ReachabilityEngine& e = **engine;
  auto addressable = strrbench::AddressableSegments(e);
  EXPECT(!addressable.empty());

  auto a = strrbench::PaperSweepStream(e, addressable, 7, 64);
  auto b = strrbench::PaperSweepStream(e, addressable, 7, 64);
  auto c = strrbench::PaperSweepStream(e, addressable, 8, 64);
  EXPECT(a.ok() && b.ok() && c.ok());
  if (a.ok() && b.ok() && c.ok()) {
    EXPECT(a->size() == 64);
    EXPECT(strrbench::StreamDigest(*a) == strrbench::StreamDigest(*b));
    EXPECT(strrbench::StreamDigest(*a) != strrbench::StreamDigest(*c));
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT((*a)[i].multi == (i % 4 == 3));
    }
  }

  // The hot pool is fixed (seed-independent); the draws carry the seed.
  auto pa = strrbench::HotPlanPool(e, *dataset, addressable, 32);
  auto pb = strrbench::HotPlanPool(e, *dataset, addressable, 32);
  EXPECT(pa.ok() && pb.ok());
  if (pa.ok() && pb.ok()) {
    EXPECT(pa->size() == 32);
    EXPECT(strrbench::StreamDigest(*pa) == strrbench::StreamDigest(*pb));
    for (size_t i = 0; i < pa->size(); ++i) {
      EXPECT((*pa)[i].multi == (i % 8 == 7));
    }

    auto da = strrbench::HotDraws(*pa, 7, 4, 1000);
    auto db = strrbench::HotDraws(*pa, 7, 4, 1000);
    auto dc = strrbench::HotDraws(*pa, 8, 4, 1000);
    EXPECT(da == db);
    EXPECT(da != dc);
    EXPECT(da[0] != da[1]);  // clients draw independent streams
    for (size_t i = 0; i < da[0].size(); ++i) {
      EXPECT((*pa)[da[0][i]].multi == (i % 8 == 7));  // 7:1 s:m mix
    }

    std::vector<std::vector<strr::SegmentId>> regions;
    for (const strrbench::WorkItem& item : *pa) {
      regions.push_back(item.plan.location_starts[0]);
    }
    auto fa = strrbench::FeedSchedule(e, *pa, regions, 7, 500);
    auto fb = strrbench::FeedSchedule(e, *pa, regions, 7, 500);
    auto fc = strrbench::FeedSchedule(e, *pa, regions, 8, 500);
    EXPECT(fa.size() == 500);
    EXPECT(FeedDigest(fa) == FeedDigest(fb));
    EXPECT(FeedDigest(fa) != FeedDigest(fc));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir =
      argc > 1 ? argv[1] : std::string("strrbench_selftest_work");
  std::filesystem::remove_all(work_dir);
  TestPercentileRule();
  TestSeededStreams(work_dir);
  std::filesystem::remove_all(work_dir);
  if (failures == 0) std::printf("strrbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
