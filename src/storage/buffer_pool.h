// BufferPool: page cache over a FileManager.
//
// Every page request is either a cache hit (no disk traffic) or a miss
// (one disk_page_read). Capacity is configurable so the benchmarks can
// study the index algorithms under different memory pressure — the
// ablation bench sweeps this knob.
//
// Two replacement policies:
//
//  - kLru (default): plain LRU, the seed behavior.
//  - kTinyLfu: a segmented block cache (W-TinyLFU style). Pages enter a
//    probation segment and are promoted to a protected segment on re-use;
//    on eviction contests a frequency sketch (core/frequency_sketch.h,
//    the same admission idiom the ResultCache uses) decides whether the
//    incoming page is worth more than the probation victim — one-shot
//    scans cannot flush the hot working set. A rejected page is served
//    through the scratch frame without being cached.
//
// `BufferPoolOptions::role` labels this pool's metric series (e.g.
// role="posting"), giving per-file-role hit/miss/eviction accounting
// across the engine's pools.
#ifndef STRR_STORAGE_BUFFER_POOL_H_
#define STRR_STORAGE_BUFFER_POOL_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/frequency_sketch.h"
#include "obs/metrics.h"
#include "storage/file_manager.h"
#include "storage/page.h"
#include "util/result.h"

namespace strr {

enum class CachePolicy {
  kLru,      ///< plain LRU (seed behavior)
  kTinyLfu,  ///< segmented probation/protected with sketch admission
};

struct BufferPoolOptions {
  /// 0 means "cache nothing" (every request is a miss), which is how the
  /// benches emulate a cold disk.
  size_t capacity_pages = 0;
  CachePolicy policy = CachePolicy::kLru;
  /// TinyLFU only: fraction of capacity reserved for the protected
  /// segment (clamped so probation keeps at least one frame).
  double protected_share = 0.8;
  /// Metric label for this pool's series ("" = the unlabeled series).
  std::string role = {};
};

/// Page cache. Thread-safe.
class BufferPool {
 public:
  BufferPool(FileManager* file, size_t capacity_pages)
      : BufferPool(file, BufferPoolOptions{.capacity_pages = capacity_pages}) {}

  BufferPool(FileManager* file, const BufferPoolOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches page `id`, reading it from disk on a miss. The returned
  /// pointer is owned by the pool and remains valid only until the next
  /// Fetch/ReadInto from ANY thread (which may evict the frame, or reuse
  /// the scratch frame of a capacity-0 pool or a TinyLFU admission
  /// reject). Single-threaded callers (tests, benches) only; concurrent
  /// readers must use ReadInto, which copies while the frame is pinned
  /// under the pool lock.
  StatusOr<const Page*> Fetch(PageId id);

  /// Copies `n` bytes at `offset` within page `id` into `dst`, going
  /// through the cache (hit/miss accounting identical to Fetch). The copy
  /// happens under the pool lock, so the bytes are consistent even while
  /// other threads fetch and evict — this is the concurrent read path the
  /// query executor relies on. Caller guarantees offset + n <= page size.
  Status ReadInto(PageId id, uint32_t offset, void* dst, uint32_t n);

  /// Writes `page` through to disk and refreshes/installs the cached copy.
  Status WriteThrough(PageId id, const Page& page);

  /// Drops all cached pages (stats are preserved).
  void Clear();

  /// Combined statistics: pool-level hits/misses/evictions merged with the
  /// underlying file's disk counters.
  StorageStats stats() const;

  /// Zeroes both pool and file counters.
  void ResetStats();

  /// Policy-level detail beyond StorageStats.
  struct Detail {
    uint64_t admission_rejects = 0;  ///< TinyLFU: pages denied a frame
    size_t probation_pages = 0;
    size_t protected_pages = 0;  ///< 0 under kLru (single segment)
  };
  Detail detail() const;

  size_t capacity() const { return options_.capacity_pages; }
  CachePolicy policy() const { return options_.policy; }
  const std::string& role() const { return options_.role; }
  size_t CachedPages() const;
  FileManager* file() { return file_; }

 private:
  struct Frame {
    Page page;
    std::list<PageId>::iterator lru_it;
    bool in_protected = false;
    explicit Frame(uint32_t page_size) : page(page_size) {}
  };

  /// Hit/miss lookup for `id`. Caller holds mu_; the returned pointer is
  /// valid only while the lock is held.
  StatusOr<const Page*> FetchLocked(PageId id);

  /// Reads `id` into the scratch frame (capacity-0 pools and TinyLFU
  /// admission rejects). Caller holds mu_.
  StatusOr<const Page*> ReadScratchLocked(PageId id);

  /// Moves a resident frame to the front of its segment, promoting
  /// probation frames under TinyLFU. Caller holds mu_.
  void TouchLocked(PageId id, Frame* frame);

  /// Evicts from the back of probation (then protected) until a frame is
  /// free. Caller holds mu_.
  void EvictOneLocked();

  FileManager* file_;
  BufferPoolOptions options_;
  size_t protected_cap_ = 0;  // TinyLFU protected-segment frame budget

  mutable std::mutex mu_;
  std::unordered_map<PageId, std::unique_ptr<Frame>> frames_;
  std::list<PageId> probation_;  // front = most recent; kLru uses only this
  std::list<PageId> protected_;  // TinyLFU re-use segment
  std::unique_ptr<FrequencySketch> sketch_;  // TinyLFU admission
  std::unique_ptr<Page> scratch_;
  StorageStats pool_stats_;
  uint64_t admission_rejects_ = 0;

  obs::Counter& hits_counter_;
  obs::Counter& misses_counter_;
  obs::Counter& evictions_counter_;
  obs::Counter& admission_rejects_counter_;
};

}  // namespace strr

#endif  // STRR_STORAGE_BUFFER_POOL_H_
