// Input provenance and host facts for every benchmark result.
//
// The full-scale dataset costs about a minute to generate, so it is cached
// on disk. The cache directory is keyed on a digest of every
// DatasetOptions field (the generator seeds included), so a changed option
// can never silently reuse stale inputs; the counts recorded at generation
// are re-checked on every load.
#ifndef STRRBENCH_PROVENANCE_H_
#define STRRBENCH_PROVENANCE_H_

#include <cstdint>
#include <string>

#include "core/dataset.h"
#include "util/result.h"

namespace strrbench {

/// 16-hex-digit FNV-1a digest of every DatasetOptions field (as
/// "name=value;" text, generator seeds included).
std::string DatasetOptionsDigest(const strr::DatasetOptions& options);

/// True when `cache_root` holds a generated dataset for `options` (checked
/// without loading it).
bool DatasetCached(const strr::DatasetOptions& options,
                   const std::string& cache_root);

/// Loads the dataset cached under `cache_root`/<digest>, or generates it,
/// saves it there and records its counts. Progress goes to stderr.
strr::StatusOr<strr::Dataset> LoadOrBuildDataset(
    const strr::DatasetOptions& options, const std::string& cache_root);

/// Facts about the build and host the result was measured on.
struct HostFacts {
  unsigned nproc = 0;
  std::string compiler;
  bool ndebug = false;
};
HostFacts GetHostFacts();

/// How many cores the host lends right now: a fixed integer loop timed on
/// one thread, then on `threads` threads at once. On a shared host the
/// second can run several times slower than the first.
struct CpuProbe {
  double one_thread_ms = 0.0;
  double all_threads_ms = 0.0;  ///< slowest of the concurrent threads
  double effective_cores = 0.0;  ///< threads x one_thread_ms / all_threads_ms
};
CpuProbe ProbeCpu(unsigned threads);

/// 16-hex-digit digest of this executable's bytes: identifies the build,
/// so results and recorded digests are only compared within one build.
std::string ExecutableDigest();

/// Peak resident set (VmHWM) of this process in MiB; 0 when unknown.
double PeakRssMb();

/// Total bytes of regular files under `dir` (recursive); 0 if missing.
uint64_t DirBytes(const std::string& dir);

/// JSON string literal for `s` (quotes and escapes included).
std::string JsonString(const std::string& s);

}  // namespace strrbench

#endif  // STRRBENCH_PROVENANCE_H_
