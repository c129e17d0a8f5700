// Out-of-core memory engine (DESIGN.md §9).
//
// Three mechanisms make the eviction regime fast without touching the
// fault/checkpoint ladders: (1) a per-device size-class caching
// suballocator in front of backend->alloc_device — binned free lists that
// recycle evicted blocks without a platform malloc/free round-trip, each
// block carrying the precise completion events of its previous life
// instead of serializing on the shared alloc stream; (2) a per-device
// resident-instance index replacing the per-eviction full-registry scan,
// with lookahead-aware victim scoring (clean before dirty, idle before
// pending, and replay-log future uses when checkpointing is armed);
// (3) batched eviction plus prefetch-back of evicted instances through the
// transfer engine so re-fills overlap compute instead of stalling acquire.
//
// Cached blocks still count against the device pool, so the engine trims
// itself back to the platform under OOM pressure and at epoch boundaries
// (ctx.fence()/finalize()) — genuine exhaustion still surfaces as
// oom_error exactly like the pre-engine allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cudastf/events.hpp"

namespace cudastf {

struct context_state;
class logical_data_impl;
struct data_instance;

/// Rounds `bytes` up to its allocation size class: 3 significant mantissa
/// bits (jemalloc-style ≤12.5% spacing), 256-byte floor. Blocks are binned
/// under the class of their actual size, so recycling a block never wastes
/// more than one class step.
std::size_t mem_size_class(std::size_t bytes);

/// Per-context engine state. All entry points run under the context
/// submission lock.
class mem_engine {
 public:
  /// One entry of a per-device resident-instance index: an allocated,
  /// evictable-in-principle device instance and its owning logical data.
  struct resident_ref {
    logical_data_impl* data = nullptr;
    data_instance* inst = nullptr;
  };

  // --- caching suballocator ---

  /// Serves an allocation from the device's free lists; nullptr on miss.
  /// On a hit the block's carried events (previous readers/writer and
  /// staging copies) are appended to `out` — the precise per-block
  /// dependencies that replace alloc-stream ordering.
  void* take_cached(context_state& st, int device, std::size_t bytes,
                    event_list& out);

  /// Parks a freed block (with its outstanding events) for recycling.
  void release_block(context_state& st, int device, std::size_t bytes,
                     void* p, event_list deps);

  /// Returns cached blocks on `device` to the platform (asynchronous
  /// stream-ordered frees) until at least `want` bytes were handed back or
  /// the cache is empty. True when any block was freed.
  bool trim_device(context_state& st, int device, std::size_t want);

  /// Epoch-end trim: every device, everything.
  void trim_all(context_state& st);

  // --- resident-instance index ---

  void on_resident(int device, logical_data_impl& d, data_instance& inst);
  void on_nonresident(int device, data_instance& inst);

  /// The device's resident instances; nullptr when none were ever tracked.
  std::vector<resident_ref>* resident(int device);

  // --- prefetch-back ---

  /// Remembers an eviction victim as a prefetch-back candidate.
  void note_eviction(logical_data_impl& d, int device);

  /// Opportunistically re-fills remembered victims (FIFO — under a cyclic
  /// working-set sweep the oldest eviction is needed soonest) when a cached
  /// block or real pool headroom can back them without evicting anything.
  /// The later demand acquire coalesces onto the in-flight fill.
  void pump_prefetch(context_state& st, int device);

  /// Bytes currently parked in the device's free lists (they still count
  /// against the pool until trimmed).
  std::size_t cached_bytes(int device) const;

 private:
  struct cached_block {
    void* ptr = nullptr;
    std::size_t bytes = 0;
    event_list deps;
  };
  struct device_mem {
    std::unordered_map<std::size_t, std::vector<cached_block>> bins;
    std::size_t cached_bytes = 0;
    std::vector<resident_ref> resident;
  };
  struct prefetch_entry {
    std::weak_ptr<logical_data_impl> data;
    int device = -1;
  };

  device_mem& dev(int device);

  // deque, not vector: growing for a new device (e.g. peer staging inside
  // an eviction) must not move other devices' entries — evict_for holds a
  // pointer into its device's resident index across that call.
  std::deque<device_mem> dev_;
  std::deque<prefetch_entry> prefetch_q_;
  bool pumping_ = false;
};

/// Counted host staging allocation (eviction staging, blacklist
/// evacuation, checkpoint restore): plain host memory, but the bytes show
/// up in stats().host_staging_bytes so out-of-core pressure is visible.
void* alloc_host_staging(context_state& st, std::size_t bytes);

/// Frees a device instance's backing through the engine: removes it from
/// the resident index, carries its readers/writer as the block's
/// dependencies, and either parks the block for recycling (`recycle` on a
/// healthy device) or issues the asynchronous platform free. Leaves the
/// instance invalid and unallocated.
void release_device_instance(context_state& st, logical_data_impl& d,
                             data_instance& inst, bool recycle);

}  // namespace cudastf
