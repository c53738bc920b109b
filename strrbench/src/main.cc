// strrbench: runs one workload against the public strr API at full bench
// scale and prints its metrics.
//
//   strrbench --workload paper_sweep|serve_hot|ingest_serve --seed N
//             --seconds S --trace 0|1 --state DIR
//
// --trace 0 measures the end-to-end metrics with nothing traced. --trace 1
// is the separate traced run: half of each client's queries run as the
// decomposed public-call sequence (plan, bound search, probability oracle,
// TBS) under benchmark-side spans, the other half untraced, and the run
// reports the per-layer metrics. Every run checks its answers; any failed
// check makes the process exit 1. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. DIR holds the dataset
// cache, the engine work directory, result files, traces and digests.
// `strrbench --prepare --state DIR` only generates the dataset cache.
// See strrbench/README.md for the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "core/dataset.h"
#include "core/reachability_engine.h"
#include "provenance.h"
#include "query/bounding_region.h"
#include "query/probability.h"
#include "query/trace_back.h"
#include "search/frontier_engine.h"
#include "spans.h"
#include "storage/io_context.h"
#include "util/hashing.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace strrbench {
namespace {

namespace fs = std::filesystem;
using strr::QueryPlan;
using strr::ReachabilityEngine;
using strr::RegionResult;
using strr::SegmentId;
using strr::StatusOr;
using Clock = std::chrono::steady_clock;

constexpr int64_t kDeltaTSeconds = 300;
constexpr size_t kHotPoolSize = 256;
constexpr size_t kCheckPrefix = 64;      // paper_sweep plans digested/checked
constexpr size_t kEsSampleS = 6;         // paper_sweep ES checks per run
constexpr size_t kEsSampleM = 2;         // paper_sweep MQMB checks per run
constexpr size_t kDecomposedSample = 8;  // decomposed-path checks (trace 0)
constexpr size_t kProbeQueries = 8;      // storage probe sample (trace 1)
constexpr double kFeedObsPerSecond = 1000.0;

struct Args {
  Workload workload = Workload::kPaperSweep;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !kv.count("--workload") || !kv.count("--seed") ||
      !kv.count("--seconds") || !kv.count("--trace") || !kv.count("--state")) {
    return false;
  }
  if (!ParseWorkload(kv["--workload"], &args->workload)) return false;
  try {
    args->seed = std::stoull(kv["--seed"]);
    args->seconds = std::stod(kv["--seconds"]);
  } catch (const std::exception&) {
    return false;
  }
  args->trace = kv["--trace"] == "1";
  args->state = kv["--state"];
  return args->seconds > 0.0 && args->seconds <= 3600.0 &&
         !args->state.empty() && (kv["--trace"] == "0" || args->trace);
}

int ClientsFor(Workload w) {
  switch (w) {
    case Workload::kPaperSweep:
      return 1;
    case Workload::kServeHot:
      return 4;
    case Workload::kIngestServe:
      return 3;
  }
  return 1;
}

uint64_t RegionHash(const std::vector<SegmentId>& region) {
  return strr::Fnv1a64(region.data(), region.size() * sizeof(SegmentId));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Work counters summed over measured queries.
struct Counts {
  uint64_t queries = 0;
  strr::StorageStats io;
  uint64_t expanded = 0;
  uint64_t heap_pops = 0;
  uint64_t verified = 0;
  uint64_t lists = 0;
  uint64_t region = 0;
  uint64_t max_region = 0;

  void Add(const Counts& o) {
    queries += o.queries;
    io += o.io;
    expanded += o.expanded;
    heap_pops += o.heap_pops;
    verified += o.verified;
    lists += o.lists;
    region += o.region;
    max_region += o.max_region;
  }
};

/// Per-layer times of the traced queries.
struct TracedTotals {
  uint64_t queries = 0;
  double locate_us = 0.0;
  double plan_us = 0.0;
  double bound_ms = 0.0;
  double oracle_ms = 0.0;
  double tbs_ms = 0.0;
  double con_build_ms = 0.0;
  uint64_t con_builds = 0;
  double busy_s = 0.0;  // plan + bound + oracle + tbs
  std::vector<double> span_sum_ms;

  void Add(const TracedTotals& o) {
    queries += o.queries;
    locate_us += o.locate_us;
    plan_us += o.plan_us;
    bound_ms += o.bound_ms;
    oracle_ms += o.oracle_ms;
    tbs_ms += o.tbs_ms;
    con_build_ms += o.con_build_ms;
    con_builds += o.con_builds;
    busy_s += o.busy_s;
    span_sum_ms.insert(span_sum_ms.end(), o.span_sum_ms.begin(),
                       o.span_sum_ms.end());
  }
};

/// What the storage probe needs from a traced query.
struct ProbeInput {
  std::vector<SegmentId> max_region;
  int64_t start_tod = 0;
  int64_t duration = 0;
};

/// One client's share of a closed-loop phase.
struct ClientResult {
  std::vector<double> latency_ms;    // untraced queries, all
  std::vector<double> mquery_ms;     // untraced m-queries
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t untraced_ok = 0;
  double untraced_busy_s = 0.0;
  Counts counts;
  TracedTotals traced;
  std::vector<ProbeInput> probe_inputs;
  std::vector<std::pair<uint32_t, uint64_t>> region_hashes;  // item, hash
  std::vector<std::string> failures;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}
  // The feed thread calls into the engine: join it before members die.
  ~Bench() { StopFeed(); }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(fail_mu_);
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }

  strr::Status Setup();
  strr::Status MakeInputs();
  void Warmup();
  /// Runs `clients` closed-loop clients for `seconds`. Client c draws from
  /// stream c (serve_hot / ingest_serve) or walks the paper_sweep stream.
  std::vector<ClientResult> RunLoop(int clients, double seconds, bool trace,
                                    double* wall_s);
  void ClientLoop(int client, bool trace, Clock::time_point deadline,
                  std::atomic<size_t>* sweep_cursor, ClientResult* out);
  /// The decomposed public-call path under spans. Returns false (after
  /// recording a failure) when a call fails or the answer differs from
  /// the executor's on the same snapshot.
  bool RunTraced(uint32_t item_index, uint32_t tid, ClientResult* out);

  void StartFeed();
  void StopFeed();

  void CheckPaperSweep();
  void CheckDecomposedSample();
  void CheckDigest(const std::vector<ClientResult>& results);
  void CheckIngestAccounting();
  void StorageProbe(const std::vector<ProbeInput>& inputs, double* cold_us,
                    double* warm_us);

  const WorkItem& Item(uint32_t index) const { return items_[index]; }
  strr::EngineOptions EngineOptionsFor(const std::string& work_dir) const;

  Args args_;
  HostFacts host_;
  strr::Dataset dataset_;
  std::string dataset_digest_;
  std::string build_digest_;
  std::string work_dir_;
  std::unique_ptr<ReachabilityEngine> engine_;
  double setup_s_ = 0.0;
  double st_build_s_ = 0.0;

  std::vector<WorkItem> items_;  // paper_sweep stream or hot plan pool
  std::vector<std::vector<uint32_t>> draws_;        // per client
  std::vector<std::vector<SegmentId>> reference_;   // warm-up regions
  std::vector<uint64_t> reference_hash_;

  // ingest_serve feed.
  std::vector<strr::SpeedObservation> feed_;
  std::thread feed_thread_;
  std::atomic<bool> feed_stop_{false};
  uint64_t feed_offered_ = 0;
  double feed_lag_ms_sum_ = 0.0;
  double feed_seconds_ = 0.0;

  SpanRecorder spans_;
  std::atomic<uint64_t> next_query_id_{1};

  std::mutex fail_mu_;
  std::vector<std::string> failures_;
};

strr::EngineOptions Bench::EngineOptionsFor(const std::string& work_dir) const {
  strr::EngineOptions opt;
  opt.work_dir = work_dir;
  opt.delta_t_seconds = kDeltaTSeconds;
  if (args_.workload == Workload::kIngestServe) {
    // Defaults otherwise: WAL fdatasync per batch, 20 ms batch window.
    opt.live_ingestion = true;
    opt.live_durability = true;
  }
  return opt;
}

strr::Status Bench::Setup() {
  strr::DatasetOptions options = strr::BenchDatasetOptions();
  dataset_digest_ = DatasetOptionsDigest(options);
  StatusOr<strr::Dataset> dataset =
      LoadOrBuildDataset(options, args_.state + "/datasets");
  if (!dataset.ok()) return dataset.status();
  dataset_ = std::move(*dataset);

  // One build per run: at full scale a build takes ~11 s, and the run
  // budget cannot afford several (setup_s steadies as a median across runs).
  work_dir_ = args_.state + "/work/" + WorkloadName(args_.workload);
  std::error_code ec;
  fs::remove_all(work_dir_, ec);
  fs::create_directories(work_dir_);
  strr::Stopwatch watch;
  StatusOr<std::unique_ptr<ReachabilityEngine>> engine =
      ReachabilityEngine::Build(dataset_.network, *dataset_.store,
                                EngineOptionsFor(work_dir_));
  if (!engine.ok()) return engine.status();
  setup_s_ = watch.ElapsedSeconds();
  engine_ = std::move(*engine);
  std::fprintf(stderr, "# engine build: %.3fs\n", setup_s_);
  if (args_.trace) {
    // index.st_build_s: StIndex::Build alone, into a scratch posting file.
    std::string dir = work_dir_ + "/st_build_probe";
    fs::create_directories(dir);
    strr::StIndexOptions st_opt;
    st_opt.slot_seconds = kDeltaTSeconds;
    st_opt.posting_path = dir + "/postings.bin";
    watch.Reset();
    auto st = strr::StIndex::Build(dataset_.network, *dataset_.store, st_opt);
    if (!st.ok()) return st.status();
    st_build_s_ = watch.ElapsedSeconds();
    st->reset();
    fs::remove_all(dir, ec);
  }
  return strr::Status::OK();
}

strr::Status Bench::MakeInputs() {
  std::vector<SegmentId> addressable = AddressableSegments(*engine_);
  if (args_.workload == Workload::kPaperSweep) {
    // Far more unique queries than one client completes in a run.
    size_t count = std::max<size_t>(2000, args_.seconds * 400);
    auto stream = PaperSweepStream(*engine_, addressable, args_.seed, count);
    if (!stream.ok()) return stream.status();
    items_ = std::move(*stream);
  } else {
    auto pool = HotPlanPool(*engine_, dataset_, addressable, kHotPoolSize);
    if (!pool.ok()) return pool.status();
    items_ = std::move(*pool);
    // ingest_serve replays serve_hot's streams for its query clients.
    draws_ = HotDraws(items_, args_.seed, 4, 1 << 17);
  }
  std::fprintf(stderr, "# %s: %zu plans, stream digest %016llx\n",
               WorkloadName(args_.workload), items_.size(),
               static_cast<unsigned long long>(StreamDigest(items_)));
  return strr::Status::OK();
}

void Bench::Warmup() {
  if (args_.workload == Workload::kPaperSweep) return;
  std::vector<QueryPlan> plans;
  for (const WorkItem& item : items_) plans.push_back(item.plan);
  std::vector<StatusOr<RegionResult>> results =
      engine_->executor().ExecuteBatch(plans);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      Fail("warm-up plan " + std::to_string(i) + ": " +
           results[i].status().ToString());
      reference_.emplace_back();
    } else {
      reference_.push_back(results[i]->segments);
    }
    reference_hash_.push_back(RegionHash(reference_.back()));
  }
}

void Bench::StartFeed() {
  size_t count = static_cast<size_t>(kFeedObsPerSecond *
                                     (args_.seconds * 1.6 + 60.0));
  feed_ = FeedSchedule(*engine_, items_, reference_, args_.seed, count);
  if (feed_.empty()) {
    Fail("ingest_serve: empty observation schedule");
    return;
  }
  feed_stop_ = false;
  feed_thread_ = std::thread([this] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kFeedObsPerSecond));
    Clock::time_point start = Clock::now();
    uint64_t k = 0;
    for (; !feed_stop_.load(std::memory_order_relaxed); ++k) {
      Clock::time_point due = start + period * static_cast<int64_t>(k);
      std::this_thread::sleep_until(due);
      feed_lag_ms_sum_ +=
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      engine_->OfferObservation(feed_[k % feed_.size()]);
    }
    feed_offered_ = k;
    feed_seconds_ =
        std::chrono::duration<double>(Clock::now() - start).count();
  });
}

void Bench::StopFeed() {
  if (!feed_thread_.joinable()) return;
  feed_stop_ = true;
  feed_thread_.join();
}

std::vector<ClientResult> Bench::RunLoop(int clients, double seconds,
                                         bool trace, double* wall_s) {
  std::vector<ClientResult> results(clients);
  std::atomic<size_t> sweep_cursor{0};
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(c, trace, deadline, &sweep_cursor, &results[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return results;
}

void Bench::ClientLoop(int client, bool trace, Clock::time_point deadline,
                       std::atomic<size_t>* sweep_cursor, ClientResult* out) {
  const bool sweep = args_.workload == Workload::kPaperSweep;
  strr::QueryExecutor& executor = engine_->executor();
  for (uint64_t k = 0; Clock::now() < deadline; ++k) {
    uint32_t index;
    if (sweep) {
      size_t next = sweep_cursor->fetch_add(1);
      if (next >= items_.size()) break;  // stream exhausted: run ends early
      index = static_cast<uint32_t>(next);
    } else {
      const std::vector<uint32_t>& draws = draws_[client];
      index = draws[k % draws.size()];
    }
    ++out->attempted;
    // Traced and untraced queries alternate in blocks of 8, so both halves
    // get the same share of every stream's 1-in-4 / 1-in-8 m-queries.
    if (trace && (k / 8) % 2 == 1) {
      if (!RunTraced(index, client, out)) ++out->failed;
      continue;
    }
    Clock::time_point t0 = Clock::now();
    StatusOr<RegionResult> r = executor.Execute(Item(index).plan);
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!r.ok()) {
      ++out->failed;
      out->failures.push_back("plan " + std::to_string(index) + ": " +
                              r.status().ToString());
      continue;
    }
    ++out->untraced_ok;
    out->untraced_busy_s += ms / 1000.0;
    out->latency_ms.push_back(ms);
    if (Item(index).multi) out->mquery_ms.push_back(ms);
    Counts& c = out->counts;
    ++c.queries;
    c.io += r->stats.io;
    c.expanded += r->stats.segments_expanded;
    c.heap_pops += r->stats.heap_pops;
    c.verified += r->stats.segments_verified;
    c.lists += r->stats.time_lists_read;
    c.region += r->segments.size();
    c.max_region += r->stats.max_region_segments;
    uint64_t hash = RegionHash(r->segments);
    if (sweep) {
      if (index < kCheckPrefix) out->region_hashes.emplace_back(index, hash);
    } else if (args_.workload == Workload::kServeHot &&
               hash != reference_hash_[index]) {
      out->failures.push_back("serve_hot plan " + std::to_string(index) +
                              " region differs from its warm-up answer");
    }
  }
}

bool Bench::RunTraced(uint32_t item_index, uint32_t tid, ClientResult* out) {
  const WorkItem& item = Item(item_index);
  const strr::MQuery& q = item.query;
  const strr::RoadNetwork& net = engine_->network();
  const strr::StIndex& st = engine_->st_index();
  const uint64_t qid = next_query_id_.fetch_add(1);
  auto fail = [&](const std::string& what) {
    out->failures.push_back("traced plan " + std::to_string(item_index) +
                            ": " + what);
    return false;
  };

  std::vector<Span> spans;
  TracedTotals& tt = out->traced;
  ScopedSpan root(spans_, &spans, "query", qid, tid, 0);
  {
    // index.locate_us: the R-tree lookup the planner does, timed alone.
    ScopedSpan span(spans_, &spans, "probe.locate", qid, tid, 1);
    for (const strr::XyPoint& p : q.locations) (void)st.LocateSegment(p);
    tt.locate_us += static_cast<double>(span.End()) / q.locations.size();
  }
  StatusOr<QueryPlan> plan = strr::Status::Internal("unplanned");
  int64_t plan_us;
  {
    ScopedSpan span(spans_, &spans, "plan", qid, tid, 1);
    plan = item.multi ? engine_->planner().PlanMQuery(q)
                      : engine_->planner().PlanSQuery(strr::SQuery{
                            q.locations[0], q.start_tod, q.duration, q.prob});
    plan_us = span.End();
  }
  if (!plan.ok()) return fail("plan: " + plan.status().ToString());

  // Pin the snapshot the executor would pin (live mode), else the statics.
  strr::SnapshotRef ref;
  const strr::ConIndex* con = &engine_->con_index();
  const strr::SpeedProfile* profile = &engine_->speed_profile();
  uint64_t version = 0;
  if (strr::LiveProfileManager* live = engine_->live_manager()) {
    ref = live->Acquire();
    con = &ref.con_index();
    profile = &ref.profile();
    version = ref.version();
  }
  auto bound_search = [&](const strr::BoundingSearchOptions& opt) {
    return item.multi
               ? strr::MqmbSearch(net, *con, *profile, plan->AllStartSegments(),
                                  plan->start_tod, plan->duration, opt)
               : strr::SqmbSearchSet(net, *con, plan->location_starts[0],
                                     plan->start_tod, plan->duration, opt);
  };

  strr::ScopedIoCounters io;
  strr::SearchMetrics metrics;
  strr::BoundingSearchOptions search_opt;
  search_opt.metrics = &metrics;
  size_t tables_before = con->MaterializedTables();
  StatusOr<strr::BoundingRegions> regions = strr::Status::Internal("unrun");
  int64_t bound_us;
  {
    ScopedSpan span(spans_, &spans, "bound", qid, tid, 1);
    regions = bound_search(search_opt);
    bound_us = span.End();
  }
  if (!regions.ok()) return fail("bound: " + regions.status().ToString());
  size_t tables_after = con->MaterializedTables();
  {
    // index.con_build_ms: first search minus an immediate identical rerun.
    ScopedSpan span(spans_, &spans, "probe.bound_rerun", qid, tid, 1);
    StatusOr<strr::BoundingRegions> again = bound_search({});
    int64_t us = span.End();
    if (!again.ok()) return fail("bound rerun: " + again.status().ToString());
    tt.con_build_ms += std::max<int64_t>(0, bound_us - us) / 1000.0;
  }
  StatusOr<strr::ReachabilityProbability> oracle =
      strr::Status::Internal("unrun");
  int64_t oracle_us;
  {
    ScopedSpan span(spans_, &spans, "oracle", qid, tid, 1);
    oracle = strr::ReachabilityProbability::Create(
        st, regions->start_segments, plan->start_tod,
        engine_->delta_t_seconds(), plan->duration);
    oracle_us = span.End();
  }
  if (!oracle.ok()) return fail("oracle: " + oracle.status().ToString());
  std::vector<SegmentId> region;
  int64_t tbs_us;
  {
    ScopedSpan span(spans_, &spans, "tbs", qid, tid, 1);
    // Same rule as the executor: no trajectory left the start window on
    // any day, so every probability is 0 and the region is empty.
    if (!oracle->StartHasNoTraffic()) {
      StatusOr<strr::TbsOutcome> tbs = strr::TraceBackSearch(
          net, *regions, plan->prob, *oracle);
      if (!tbs.ok()) return fail("tbs: " + tbs.status().ToString());
      region = std::move(tbs->region);
    }
    span.set_arg(region.size());
    tbs_us = span.End();
  }
  root.set_arg(item_index);
  root.End();
  spans_.Append(&spans);

  double sum_ms = (plan_us + bound_us + oracle_us + tbs_us) / 1000.0;
  ++tt.queries;
  tt.plan_us += plan_us;
  tt.bound_ms += bound_us / 1000.0;
  tt.oracle_ms += oracle_us / 1000.0;
  tt.tbs_ms += tbs_us / 1000.0;
  tt.con_builds += tables_after - tables_before;
  tt.busy_s += sum_ms / 1000.0;
  tt.span_sum_ms.push_back(sum_ms);
  Counts& c = out->counts;
  ++c.queries;
  c.io += io.stats();
  c.expanded += metrics.segments_expanded;
  c.heap_pops += metrics.heap_pops;
  c.verified += oracle->verifications();
  c.lists += oracle->time_lists_read();
  c.region += region.size();
  c.max_region += regions->max_region.size();
  if (out->probe_inputs.size() < 64) {
    out->probe_inputs.push_back(
        ProbeInput{regions->max_region, plan->start_tod, plan->duration});
  }

  // The decomposed path must answer exactly what the executor answers on
  // the same snapshot (untimed).
  StatusOr<RegionResult> want =
      engine_->live_manager() == nullptr
          ? engine_->executor().Execute(*plan)
          : engine_->executor().ExecuteAgainst(*plan, con, profile, version);
  if (!want.ok()) return fail("executor: " + want.status().ToString());
  if (want->segments != region) {
    return fail("decomposed region (" + std::to_string(region.size()) +
                " segments) differs from the executor's (" +
                std::to_string(want->segments.size()) + ")");
  }
  uint64_t hash = RegionHash(region);
  if (args_.workload == Workload::kPaperSweep) {
    if (item_index < kCheckPrefix) {
      out->region_hashes.emplace_back(item_index, hash);
    }
  } else if (args_.workload == Workload::kServeHot &&
             hash != reference_hash_[item_index]) {
    return fail("region differs from its warm-up answer");
  }
  return true;
}

void Bench::CheckPaperSweep() {
  // Seeded sample of the stream's first kCheckPrefix queries, so one seed
  // always checks the same plans.
  std::vector<uint32_t> singles, multis;
  for (uint32_t i = 0; i < std::min(kCheckPrefix, items_.size()); ++i) {
    (Item(i).multi ? multis : singles).push_back(i);
  }
  SplitMix64 rng(DeriveSeed(args_.seed, "paper_sweep.checks"));
  auto sample = [&rng](std::vector<uint32_t> from, size_t n) {
    for (size_t i = 0; i < from.size() && i < n; ++i) {
      std::swap(from[i], from[rng.Int(i, from.size() - 1)]);
    }
    from.resize(std::min(from.size(), n));
    return from;
  };
  strr::QueryExecutor& executor = engine_->executor();
  const strr::QueryPlanner& planner = engine_->planner();
  for (uint32_t i : sample(singles, kEsSampleS)) {
    const strr::MQuery& q = Item(i).query;
    strr::SQuery s{q.locations[0], q.start_tod, q.duration, q.prob};
    auto es_plan = planner.PlanSQuery(s, strr::QueryStrategy::kExhaustive);
    if (!es_plan.ok()) {
      Fail("ES plan " + std::to_string(i) + ": " + es_plan.status().ToString());
      continue;
    }
    auto es = executor.Execute(*es_plan);
    auto indexed = executor.Execute(Item(i).plan);
    if (!es.ok() || !indexed.ok()) {
      Fail("ES check " + std::to_string(i) + ": query failed");
      continue;
    }
    std::vector<SegmentId> missing;
    std::set_difference(es->segments.begin(), es->segments.end(),
                        indexed->segments.begin(), indexed->segments.end(),
                        std::back_inserter(missing));
    if (!missing.empty()) {
      Fail("plan " + std::to_string(i) + " (T=" + std::to_string(q.start_tod) +
           " L=" + std::to_string(q.duration) + " Prob=" +
           std::to_string(q.prob) + "): " + std::to_string(missing.size()) +
           " of " + std::to_string(es->segments.size()) +
           " ES segments are not in the indexed region (" +
           std::to_string(indexed->segments.size()) + " segments, max " +
           std::to_string(indexed->stats.max_region_segments) + ")");
    }
    if (indexed->stats.segments_verified > es->stats.segments_verified + 2) {
      Fail("plan " + std::to_string(i) + ": indexed verified " +
           std::to_string(indexed->stats.segments_verified) + " > ES " +
           std::to_string(es->stats.segments_verified) + " + 2");
    }
  }
  for (uint32_t i : sample(multis, kEsSampleM)) {
    const strr::MQuery& q = Item(i).query;
    auto mq = executor.Execute(Item(i).plan);
    if (!mq.ok()) {
      Fail("MQMB check " + std::to_string(i) + ": " + mq.status().ToString());
      continue;
    }
    uint64_t max_single = 0;
    for (const strr::XyPoint& p : q.locations) {
      auto leg = planner.PlanSQuery(
          strr::SQuery{p, q.start_tod, q.duration, q.prob});
      auto r = leg.ok() ? executor.Execute(*leg)
                        : StatusOr<RegionResult>(leg.status());
      if (!r.ok()) {
        Fail("MQMB check leg: " + r.status().ToString());
        continue;
      }
      max_single = std::max(max_single, r->stats.time_lists_read);
    }
    if (mq->stats.time_lists_read > q.locations.size() * max_single) {
      Fail("plan " + std::to_string(i) + ": MQMB lists " +
           std::to_string(mq->stats.time_lists_read) + " > n x SQMB lists " +
           std::to_string(q.locations.size() * max_single));
    }
  }
}

void Bench::CheckDecomposedSample() {
  ClientResult scratch;
  SplitMix64 rng(DeriveSeed(args_.seed, "decomposed.sample"));
  for (size_t i = 0; i < kDecomposedSample; ++i) {
    uint32_t index = static_cast<uint32_t>(rng.Int(0, items_.size() - 1));
    RunTraced(index, 0, &scratch);
  }
  for (const std::string& f : scratch.failures) Fail(f);
}

void Bench::CheckDigest(const std::vector<ClientResult>& results) {
  std::vector<uint64_t> hashes;
  if (args_.workload == Workload::kPaperSweep) {
    std::vector<std::optional<uint64_t>> seen(
        std::min(kCheckPrefix, items_.size()));
    for (const ClientResult& r : results) {
      for (const auto& [index, hash] : r.region_hashes) seen[index] = hash;
    }
    for (size_t i = 0; i < seen.size(); ++i) {
      if (!seen[i]) {
        auto r = engine_->executor().Execute(Item(i).plan);
        if (!r.ok()) {
          Fail("digest plan " + std::to_string(i) + ": " +
               r.status().ToString());
          continue;
        }
        seen[i] = RegionHash(r->segments);
      }
      hashes.push_back(*seen[i]);
    }
  } else {
    hashes = reference_hash_;  // every pool plan, before any ingestion
  }
  uint64_t digest = strr::kFnv1a64Offset;
  for (uint64_t h : hashes) digest = strr::HashCombine(digest, h);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::printf("# region digest %s seed=%llu plans=%zu: %s\n",
              WorkloadName(args_.workload),
              static_cast<unsigned long long>(args_.seed), hashes.size(), hex);
  // Same seed, same build, same dataset: the same answers, run after run.
  std::string dir = args_.state + "/digests";
  fs::create_directories(dir);
  std::string path = dir + "/" + build_digest_ + "." + dataset_digest_ +
                     "." + WorkloadName(args_.workload) + ".seed" +
                     std::to_string(args_.seed);
  std::string previous;
  if (std::ifstream in(path); in) std::getline(in, previous);
  if (previous.empty()) {
    std::ofstream(path) << hex << "\n";
  } else if (previous != hex) {
    Fail(std::string("region digest ") + hex + " differs from " + previous +
         " recorded by an earlier run of this seed");
  }
}

void Bench::CheckIngestAccounting() {
  strr::ObservationIngestor* ingestor = engine_->ingestor();
  if (ingestor == nullptr) {
    Fail("ingest_serve: live ingestion is off");
    return;
  }
  // Stop() joins the batcher and then flushes. Flush() alone only drains
  // what is still queued: a batch the batcher already drained can still be
  // mid-publish when it returns, so the counts would not have settled.
  ingestor->Stop();
  strr::ObservationIngestor::Stats s = ingestor->stats();
  uint64_t dropped = s.dropped_full + s.dropped_stopped + s.rejected_invalid;
  if (s.published + dropped != s.offered || s.offered != feed_offered_) {
    Fail("ingest accounting: published " + std::to_string(s.published) +
         " + dropped " + std::to_string(dropped) + " != offered " +
         std::to_string(s.offered) + " (feed offered " +
         std::to_string(feed_offered_) + ")");
  }
}

void Bench::StorageProbe(const std::vector<ProbeInput>& inputs,
                         double* cold_us, double* warm_us) {
  strr::StIndex& st = engine_->st_index();
  SplitMix64 rng(DeriveSeed(args_.seed, "storage.probe"));
  double cold_total = 0.0, warm_total = 0.0;
  uint64_t reads = 0;
  for (size_t n = 0; n < kProbeQueries && !inputs.empty(); ++n) {
    const ProbeInput& in = inputs[rng.Int(0, inputs.size() - 1)];
    std::vector<strr::SlotId> slots =
        st.SlotsCovering(in.start_tod, in.start_tod + in.duration);
    auto read_all = [&] {
      strr::Stopwatch watch;
      for (SegmentId seg : in.max_region) {
        for (strr::SlotId slot : slots) {
          if (!st.ReadTimeList(seg, slot).ok()) {
            Fail("storage probe: ReadTimeList failed");
          }
        }
      }
      return static_cast<double>(watch.ElapsedMicros());
    };
    st.DropCache();
    cold_total += read_all();
    warm_total += read_all();
    reads += in.max_region.size() * slots.size();
  }
  *cold_us = Ratio(cold_total, reads);
  *warm_us = Ratio(warm_total, reads);
}

void PrintMetric(const char* workload, const std::string& name, double value,
                 const std::string& unit) {
  std::printf("%-13s %-34s %18.6f %s\n", workload, name.c_str(), value,
              unit.c_str());
}

int Bench::Run() {
  host_ = GetHostFacts();
  build_digest_ = ExecutableDigest();
  if (!host_.ndebug) {
    std::fprintf(stderr,
                 "strrbench: refusing to time a build with assertions on "
                 "(NDEBUG is not defined); build with "
                 "CMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
  strr::Stopwatch phase;
  auto phase_done = [&phase](const char* name) {
    std::fprintf(stderr, "# phase %-8s %.2fs\n", name, phase.ElapsedSeconds());
    phase.Reset();
  };
  if (strr::Status s = Setup(); !s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 2;
  }
  phase_done("setup");
  if (strr::Status s = MakeInputs(); !s.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  phase_done("inputs");
  Warmup();
  phase_done("warmup");
  const bool ingest = args_.workload == Workload::kIngestServe;
  if (ingest) StartFeed();

  strr::QueryExecutor::FrontDoorStats fd_before =
      engine_->executor().front_door_stats();
  strr::ObservationIngestor::Stats ing_before;
  if (ingest) ing_before = engine_->ingestor()->stats();
  const int clients = ClientsFor(args_.workload);
  const CpuProbe cpu = ProbeCpu(host_.nproc);
  double wall_s = 0.0;
  std::vector<ClientResult> results =
      RunLoop(clients, args_.seconds, args_.trace, &wall_s);
  strr::QueryExecutor::FrontDoorStats fd_after =
      engine_->executor().front_door_stats();
  phase_done("loop");

  if (!args_.trace) CheckDecomposedSample();  // traced runs check every one
  double feed_lag_ms = 0.0;
  strr::ObservationIngestor::Stats ing;
  strr::ObservationJournal::Stats journal;
  strr::LiveProfileManager::Stats live;
  if (ingest) {
    StopFeed();
    CheckIngestAccounting();
    ing = engine_->ingestor()->stats();
    journal = engine_->journal()->stats();
    live = engine_->live_manager()->stats();
    feed_lag_ms = Ratio(feed_lag_ms_sum_, feed_offered_);
  }
  if (args_.workload == Workload::kPaperSweep) CheckPaperSweep();
  CheckDigest(results);
  phase_done("checks");

  // Merge the clients.
  ClientResult all;
  for (ClientResult& r : results) {
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    all.mquery_ms.insert(all.mquery_ms.end(), r.mquery_ms.begin(),
                         r.mquery_ms.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.untraced_ok += r.untraced_ok;
    all.untraced_busy_s += r.untraced_busy_s;
    all.counts.Add(r.counts);
    all.traced.Add(r.traced);
    all.probe_inputs.insert(all.probe_inputs.end(), r.probe_inputs.begin(),
                            r.probe_inputs.end());
    for (const std::string& f : r.failures) Fail(f);
  }

  std::vector<double> lat = Sorted(all.latency_ms);
  // A fixed percentile per workload, so a faster program never switches
  // the metric to a higher one: p95 where one client finishes hundreds of
  // queries a run, p99 where clients finish thousands.
  const double tail_p =
      args_.workload == Workload::kPaperSweep ? 0.95 : 0.99;
  if (!args_.trace && SamplesBeyond(lat.size(), tail_p) < kMinTailSamples) {
    std::fprintf(stderr,
                 "# warning: %zu queries leave fewer than %zu beyond p%g; "
                 "the highest supported percentile is p%g\n",
                 lat.size(), kMinTailSamples, tail_p * 100,
                 HighestSupportedPercentile(lat.size()) * 100);
  }
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  };
  const Counts& c = all.counts;
  const double q = static_cast<double>(std::max<uint64_t>(1, c.queries));
  if (!args_.trace) {
    add("setup_s", setup_s_, "s");
    add("throughput_qps", Ratio(all.untraced_ok, wall_s), "1/s");
    add("latency_p50_ms", SortedPercentile(lat, 0.5), "ms");
    add("latency_tail_ms", SortedPercentile(lat, tail_p), "ms");
    add("mquery_p50_ms", Median(all.mquery_ms), "ms");
  } else {
    double cold_us = 0.0, warm_us = 0.0;
    StorageProbe(all.probe_inputs, &cold_us, &warm_us);
    double parallel_efficiency = 0.0;
    if (args_.workload == Workload::kServeHot) {
      // Same plan streams, untraced: 4 clients vs 4x one client.
      double wall1 = 0.0, wall4 = 0.0;
      auto one = RunLoop(1, args_.seconds * 0.25, false, &wall1);
      auto four = RunLoop(4, args_.seconds * 0.25, false, &wall4);
      uint64_t ok1 = one[0].untraced_ok, ok4 = 0;
      for (const ClientResult& r : four) ok4 += r.untraced_ok;
      four.push_back(std::move(one[0]));
      for (const ClientResult& r : four) {
        for (const std::string& f : r.failures) Fail(f);
      }
      parallel_efficiency =
          Ratio(Ratio(ok4, wall4), 4.0 * Ratio(ok1, wall1));
    }
    const TracedTotals& t = all.traced;
    const double tq = static_cast<double>(std::max<uint64_t>(1, t.queries));
    add("storage.page_hit_rate",
        Ratio(c.io.cache_hits, c.io.TotalRequests()), "ratio");
    add("storage.page_reads_per_query", c.io.disk_page_reads / q, "count");
    add("storage.evictions_per_query", c.io.evictions / q, "count");
    add("storage.fetch_cold_us", cold_us, "us");
    add("storage.fetch_warm_us", warm_us, "us");
    add("search.ctx_pool_reuse_rate",
        Ratio(fd_after.ctx_pool_reuses - fd_before.ctx_pool_reuses,
              fd_after.ctx_pool_acquires - fd_before.ctx_pool_acquires),
        "ratio");
    add("search.expanded_per_query", c.expanded / q, "count");
    add("search.heap_pops_per_query", c.heap_pops / q, "count");
    add("core.parallel_efficiency", parallel_efficiency, "ratio");
    add("core.result_cache_hit_rate",
        Ratio(fd_after.cache_hits - fd_before.cache_hits,
              (fd_after.cache_hits - fd_before.cache_hits) +
                  (fd_after.cache_misses - fd_before.cache_misses)),
        "ratio");
    add("index.con_builds_per_query", t.con_builds / tq, "count");
    add("index.con_build_ms", t.con_build_ms / tq, "ms");
    add("index.st_lists_per_query", c.lists / q, "count");
    add("index.locate_us", t.locate_us / tq, "us");
    add("index.st_build_s", st_build_s_, "s");
    add("query.plan_us", t.plan_us / tq, "us");
    add("query.bound_ms", t.bound_ms / tq, "ms");
    add("query.oracle_ms", t.oracle_ms / tq, "ms");
    add("query.tbs_ms", t.tbs_ms / tq, "ms");
    add("query.verified_per_query", c.verified / q, "count");
    add("query.tbs_yield", Ratio(c.region, c.verified), "ratio");
    add("query.bound_tightness", Ratio(c.region, c.max_region), "ratio");
    add("error_rate", Ratio(all.failed, all.attempted), "ratio");
    double qps_traced = Ratio(t.queries, t.busy_s);
    double qps_untraced = Ratio(all.untraced_ok, all.untraced_busy_s);
    add("trace.qps_ratio", Ratio(qps_traced, qps_untraced), "ratio");
    add("trace.span_coverage",
        Ratio(Median(t.span_sum_ms), SortedPercentile(lat, 0.5)), "ratio");
    uint64_t batches = ing.batches - ing_before.batches;
    add("live.batches_per_s", Ratio(batches, feed_seconds_), "1/s");
    add("live.obs_per_batch", Ratio(ing.published - ing_before.published,
                                    batches), "count");
    add("live.slots_invalidated_per_batch",
        Ratio(live.slots_invalidated + live.slots_partially_invalidated,
              live.published),
        "count");
    add("live.feed_lag_ms", feed_lag_ms, "ms");
    add("storage.wal_bytes_per_obs",
        Ratio(journal.wal_bytes, journal.observations_appended), "B");
    add("storage.wal_syncs_per_s", Ratio(journal.wal_syncs, feed_seconds_),
        "1/s");
    add("ingest_staleness_ms", ing.mean_staleness_ms, "ms");
    add("ingest_drop_rate",
        Ratio(ing.dropped_full + ing.dropped_stopped, ing.offered), "ratio");

    std::string base = args_.state + "/traces/" +
                       WorkloadName(args_.workload) + ".seed" +
                       std::to_string(args_.seed);
    fs::create_directories(args_.state + "/traces");
    std::ofstream(base + ".trace.json") << spans_.ChromeTraceJson();
    std::string table = spans_.SelfTimeTable();
    std::ofstream(base + ".selftime.txt") << table;
    std::fprintf(stderr, "# per-layer self time (%s, %llu traced queries)\n%s",
                 WorkloadName(args_.workload),
                 static_cast<unsigned long long>(t.queries), table.c_str());
    std::fprintf(stderr,
                 "# tracing overhead: traced %.2f qps vs untraced %.2f qps "
                 "per client; span sum p50 %.3f ms vs untraced p50 %.3f ms\n",
                 qps_traced, qps_untraced, Median(t.span_sum_ms),
                 SortedPercentile(lat, 0.5));
  }
  if (!args_.trace) {
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("disk_mb", DirBytes(work_dir_) / 1e6, "MB");
  }

  const bool correct = failures_.empty();
  const char* wl = WorkloadName(args_.workload);
  std::error_code size_ec;
  uintmax_t posting_bytes =
      fs::file_size(work_dir_ + "/st_index_postings.bin", size_ec);
  if (size_ec) posting_bytes = 0;
  char provenance[1280];
  std::snprintf(
      provenance, sizeof(provenance),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"clients\": %d, \"segments\": %zu, "
      "\"trajectories\": %llu, \"postings\": %llu, "
      "\"posting_file_bytes\": %llu, \"pool_pages\": %zu, "
      "\"nproc\": %u, \"compiler\": %s, \"ndebug\": %s, "
      "\"dataset\": \"%s\", \"build\": \"%s\", \"tail_percentile\": %g, "
      "\"untraced_queries\": %zu, \"mqueries\": %zu, "
      "\"traced_queries\": %llu, \"cpu_probe_one_thread_ms\": %.3f, "
      "\"cpu_probe_all_threads_ms\": %.3f, \"effective_cores\": %.3f}",
      wl, static_cast<unsigned long long>(args_.seed), args_.seconds,
      args_.trace ? 1 : 0, clients, dataset_.network.NumSegments(),
      static_cast<unsigned long long>(dataset_.store->NumTrajectories()),
      static_cast<unsigned long long>(engine_->st_index().NumPostings()),
      static_cast<unsigned long long>(posting_bytes),
      EngineOptionsFor(work_dir_).cache_pages, host_.nproc,
      JsonString(host_.compiler).c_str(), host_.ndebug ? "true" : "false",
      dataset_digest_.c_str(), build_digest_.c_str(), tail_p, lat.size(),
      all.mquery_ms.size(),
      static_cast<unsigned long long>(all.traced.queries), cpu.one_thread_ms,
      cpu.all_threads_ms, cpu.effective_cores);
  std::printf("# provenance %s\n", provenance);
  if (ingest) {
    std::printf("# flush policy: WAL fdatasync per batch, %lld ms batch "
                "window, feed %.0f obs/s\n",
                static_cast<long long>(
                    EngineOptionsFor(work_dir_).live_batch_window_ms),
                kFeedObsPerSecond);
  }
  for (const auto& [name, vu] : metrics) {
    PrintMetric(wl, name, vu.first, vu.second);
  }

  std::string metrics_json = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    metrics_json += buf;
  }
  metrics_json += "}";
  std::string failures_json = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    failures_json += (i == 0 ? "" : ", ") + JsonString(failures_[i]);
  }
  failures_json += "]";
  std::snprintf(buf, sizeof(buf),
                "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
                correct ? "true" : "false",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed));
  const std::string counts_json = buf;

  fs::create_directories(args_.state + "/results");
  std::ofstream(args_.state + "/results/" + wl + ".seed" +
                std::to_string(args_.seed) + ".trace" +
                (args_.trace ? "1" : "0") + ".json")
      << "{\"provenance\": " << provenance << ", " << counts_json
      << ", \"metrics\": " << metrics_json
      << ", \"failures\": " << failures_json << "}\n";
  std::printf("{%s, \"metrics\": %s}\n", counts_json.c_str(),
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace strrbench

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--prepare" &&
      std::string(argv[2]) == "--state") {
    // Generates the dataset cache in a process of its own, so a measured
    // run's peak RSS never includes dataset generation.
    strr::DatasetOptions options = strr::BenchDatasetOptions();
    std::string root = std::string(argv[3]) + "/datasets";
    if (strrbench::DatasetCached(options, root)) return 0;
    auto dataset = strrbench::LoadOrBuildDataset(options, root);
    if (!dataset.ok()) {
      std::fprintf(stderr, "dataset generation failed: %s\n",
                   dataset.status().ToString().c_str());
      return 2;
    }
    return 0;
  }
  strrbench::Args args;
  if (!strrbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: strrbench --workload paper_sweep|serve_hot|"
                 "ingest_serve --seed N --seconds S --trace 0|1 --state DIR\n"
                 "       strrbench --prepare --state DIR\n");
    return 2;
  }
  strrbench::Bench bench(std::move(args));
  return bench.Run();
}
