#include "provenance.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/persist.h"
#include "util/hashing.h"
#include "util/stopwatch.h"

namespace strrbench {

namespace fs = std::filesystem;
using strr::Dataset;
using strr::DatasetOptions;
using strr::Status;
using strr::StatusOr;

namespace {

constexpr char kCountsFile[] = "strrbench_counts.txt";

void Field(std::ostringstream& out, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << name << '=' << buf << ';';
}

std::string CountsLine(const Dataset& dataset) {
  return std::to_string(dataset.network.NumSegments()) + " " +
         std::to_string(dataset.store->NumTrajectories());
}

std::string DescribeDatasetOptions(const DatasetOptions& o) {
  std::ostringstream out;
  out << "strrbench-dataset-v1;";
  Field(out, "city.grid_cols", o.city.grid_cols);
  Field(out, "city.grid_rows", o.city.grid_rows);
  Field(out, "city.block_meters", o.city.block_meters);
  Field(out, "city.jitter_meters", o.city.jitter_meters);
  Field(out, "city.one_way_fraction", o.city.one_way_fraction);
  Field(out, "city.radial_highways", o.city.radial_highways);
  Field(out, "city.ring_highway", o.city.ring_highway ? 1 : 0);
  out << "city.seed=" << o.city.seed << ';';
  Field(out, "city.local_every", o.city.local_every);
  Field(out, "city.geo_origin.lat", o.city.geo_origin.lat);
  Field(out, "city.geo_origin.lon", o.city.geo_origin.lon);
  Field(out, "reseg.granularity_meters", o.reseg.granularity_meters);
  Field(out, "fleet.num_taxis", o.fleet.num_taxis);
  Field(out, "fleet.num_days", o.fleet.num_days);
  Field(out, "fleet.trips_per_hour", o.fleet.trips_per_hour);
  Field(out, "fleet.shift_start_hour", o.fleet.shift_start_hour);
  Field(out, "fleet.shift_end_hour", o.fleet.shift_end_hour);
  Field(out, "fleet.night_fraction", o.fleet.night_fraction);
  Field(out, "fleet.num_hotspots", o.fleet.num_hotspots);
  Field(out, "fleet.hotspot_trip_fraction", o.fleet.hotspot_trip_fraction);
  Field(out, "fleet.gps_interval_sec", o.fleet.gps_interval_sec);
  Field(out, "fleet.gps_noise_std_m", o.fleet.gps_noise_std_m);
  Field(out, "fleet.speed_noise_std", o.fleet.speed_noise_std);
  Field(out, "fleet.slow_traversal_prob", o.fleet.slow_traversal_prob);
  Field(out, "fleet.slow_traversal_factor_lo",
        o.fleet.slow_traversal_factor_lo);
  Field(out, "fleet.slow_traversal_factor_hi",
        o.fleet.slow_traversal_factor_hi);
  out << "fleet.seed=" << o.fleet.seed << ';';
  const strr::CongestionModel& c = o.fleet.congestion;
  Field(out, "congestion.morning_peak_sec", c.morning_peak_sec);
  Field(out, "congestion.evening_peak_sec", c.evening_peak_sec);
  Field(out, "congestion.peak_width_sec", c.peak_width_sec);
  Field(out, "congestion.highway_dip", c.highway_dip);
  Field(out, "congestion.arterial_dip", c.arterial_dip);
  Field(out, "congestion.local_dip", c.local_dip);
  Field(out, "congestion.highway_base_dip", c.highway_base_dip);
  Field(out, "congestion.arterial_base_dip", c.arterial_base_dip);
  Field(out, "congestion.local_base_dip", c.local_base_dip);
  Field(out, "raw_gps_days", o.raw_gps_days);
  return out.str();
}

}  // namespace

std::string DatasetOptionsDigest(const DatasetOptions& options) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    strr::Fnv1a64(DescribeDatasetOptions(options))));
  return buf;
}

bool DatasetCached(const DatasetOptions& options,
                   const std::string& cache_root) {
  const std::string dir = cache_root + "/" + DatasetOptionsDigest(options);
  return fs::exists(dir + "/" + kCountsFile) && strr::DatasetExists(dir);
}

StatusOr<Dataset> LoadOrBuildDataset(const DatasetOptions& options,
                                     const std::string& cache_root) {
  const std::string dir = cache_root + "/" + DatasetOptionsDigest(options);
  const std::string counts_path = dir + "/" + kCountsFile;
  std::string recorded;
  if (std::ifstream in(counts_path); in) std::getline(in, recorded);
  if (!recorded.empty() && strr::DatasetExists(dir)) {
    strr::Stopwatch watch;
    StatusOr<Dataset> loaded = strr::LoadDataset(dir);
    if (loaded.ok() && CountsLine(*loaded) == recorded) {
      std::fprintf(stderr, "# dataset %s loaded in %.1fs\n", dir.c_str(),
                   watch.ElapsedSeconds());
      return loaded;
    }
    std::fprintf(stderr, "# dataset cache %s unusable (%s); regenerating\n",
                 dir.c_str(),
                 loaded.ok() ? "counts differ"
                             : loaded.status().ToString().c_str());
  }
  strr::Stopwatch watch;
  std::fprintf(stderr, "# generating dataset %s ...\n", dir.c_str());
  StatusOr<Dataset> built = strr::BuildDataset(options);
  if (!built.ok()) return built.status();
  std::fprintf(stderr, "# generated in %.1fs\n", watch.ElapsedSeconds());
  std::error_code ec;
  fs::remove(counts_path, ec);
  if (Status s = strr::SaveDataset(*built, dir); !s.ok()) return s;
  std::ofstream out(counts_path);
  out << CountsLine(*built) << "\n";
  if (!out) return Status::IoError("cannot write " + counts_path);
  return built;
}

HostFacts GetHostFacts() {
  HostFacts facts;
  facts.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  facts.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  facts.compiler = std::string("gcc ") + __VERSION__;
#else
  facts.compiler = "unknown";
#endif
#ifdef NDEBUG
  facts.ndebug = true;
#endif
  return facts;
}

namespace {

/// ~20M dependent integer steps; the result feeds `sink` so the loop stays.
double SpinMs(uint64_t* sink) {
  strr::Stopwatch watch;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000000; ++i) x = x * 6364136223846793005ULL + 1;
  *sink = x;
  return watch.ElapsedMillis();
}

}  // namespace

CpuProbe ProbeCpu(unsigned threads) {
  CpuProbe probe;
  threads = std::max(1u, threads);
  std::vector<uint64_t> sinks(threads);
  probe.one_thread_ms = SpinMs(&sinks[0]);
  std::vector<double> ms(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { ms[t] = SpinMs(&sinks[t]); });
  }
  for (std::thread& t : pool) t.join();
  probe.all_threads_ms = *std::max_element(ms.begin(), ms.end());
  probe.effective_cores =
      probe.all_threads_ms > 0.0
          ? threads * probe.one_thread_ms / probe.all_threads_ms
          : 0.0;
  return probe;
}

std::string ExecutableDigest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  uint64_t h = strr::kFnv1a64Offset;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    h = strr::Fnv1a64(buf, static_cast<size_t>(in.gcount()), h);
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace strrbench
