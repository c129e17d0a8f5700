// Multi-threaded submission primitives (DESIGN.md §11).
//
// Four building blocks keep concurrent host-side submission scalable
// without slowing the single-threaded path:
//
//  - relaxed_counter: per-thread statistic cells aggregated on read; the
//    increment compiles to the same plain store as the uint64 += it
//    replaces, so disarmed/single-thread submission pays nothing.
//  - submit_gate: a reader-writer gate whose exclusive side is reentrant.
//    Sharded fast-path submissions hold it shared; structural operations
//    (fence, finalize, data registration/destruction, allocation, recovery,
//    every slow-path submission) hold it exclusive, and may recurse.
//  - structural_lock: the one way a structural operation locks a context:
//    the gate exclusively while parallel_submit workers are live, then the
//    context lock. The context lock is private to it (context_locks).
//  - stripe_lock: locks the per-logical-data stripe mutexes of one task's
//    dependency set in canonical (address) order and holds them across
//    acquire -> backend run -> release (two-phase locking), so two threads
//    racing on shared data cannot interleave between a task's dependency
//    acquisition and the recording of its completion events.
//
// Lock hierarchy (outer to inner): structural lock (submit_gate, then the
// context lock) -> data stripes -> backend per-stream mutex -> platform
// driver lock. Each level only ever acquires levels to its right; the fast
// path holds the gate shared and never takes the context lock.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "cudasim/des.hpp"

namespace cudastf {
namespace detail {

/// Statistics counter that is data-race-free under concurrent submission:
/// each thread owns a cache-line-sized cell (by cudasim::thread_slot()) and
/// increments it with a relaxed load/store pair — the same single plain
/// store the uint64 `+=` it replaces compiled to. Readers sum the cells.
/// More than `cell_count` live submitter threads alias cells and can lose
/// increments under simultaneous writes; the counters are advisory
/// statistics, never control flow, so aliasing only undercounts.
class relaxed_counter {
 public:
  void operator+=(std::uint64_t v) noexcept {
    cell& c = cells_[static_cast<std::size_t>(cudasim::thread_slot()) %
                     cell_count];
    c.v.store(c.v.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
  }

  std::uint64_t load() const noexcept {
    std::uint64_t sum = 0;
    for (const cell& c : cells_) {
      sum += c.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static constexpr std::size_t cell_count = 32;
  struct alignas(64) cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<cell, cell_count> cells_;
};

/// Reader-writer gate whose exclusive side is reentrant for its owner.
/// Structural operations nest (finalize -> write-back -> restart -> replay
/// -> task submission), so a thread already holding the gate exclusively
/// re-enters instead of deadlocking on the non-recursive shared_mutex.
/// Shared acquisition is never recursive (the fast path takes it exactly
/// once and never calls back into gated code).
class submit_gate {
 public:
  void lock() {
    const std::thread::id me = std::this_thread::get_id();
    if (writer_.load(std::memory_order_relaxed) == me) {
      ++depth_;
      return;
    }
    mu_.lock();
    writer_.store(me, std::memory_order_relaxed);
    depth_ = 1;
  }

  void unlock() {
    if (--depth_ == 0) {
      writer_.store(std::thread::id{}, std::memory_order_relaxed);
      mu_.unlock();
    }
  }

  void lock_shared() { mu_.lock_shared(); }
  void unlock_shared() { mu_.unlock_shared(); }

  /// True when the calling thread currently holds the exclusive side. The
  /// fast path bails to the (reentrant) exclusive path in that case rather
  /// than taking the shared side against itself.
  bool held_exclusive_by_me() const {
    return writer_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

 private:
  std::shared_mutex mu_;
  std::atomic<std::thread::id> writer_{};
  int depth_ = 0;  ///< touched only while holding mu_ exclusively
};

/// The locks behind a context (context_state derives from this). Only
/// structural_lock takes the context lock, so every structural entry point
/// takes the pair in the same order.
class context_locks {
 public:
  /// True while parallel_submit() workers are live. Every structural entry
  /// point checks this one flag; single-threaded contexts pay a branch and
  /// nothing else.
  std::atomic<bool> mt_active{false};

  /// Fast-path submissions hold this shared (they touch only their deps'
  /// stripes plus thread-safe backend/platform state); structural
  /// operations hold it exclusive through structural_lock, so the
  /// single-threaded code bodies run unchanged under it. Engaged only while
  /// mt_active.
  submit_gate gate;

 private:
  friend class structural_lock;

  /// The context lock: serializes every structural operation, including
  /// submissions from raw threads outside parallel_submit() (§VII-E).
  /// Recursive because structural operations nest (finalize -> restart ->
  /// replay -> submission).
  std::recursive_mutex context_mu_;
};

/// RAII structural section of a context: the exclusive gate, engaged only
/// while mt_active (single-threaded contexts pay one branch), then the
/// context lock. Released in reverse order.
class structural_lock {
 public:
  explicit structural_lock(context_locks& l)
      : l_(l), gated_(l.mt_active.load(std::memory_order_acquire)) {
    if (gated_) {
      l_.gate.lock();
    }
    l_.context_mu_.lock();
  }
  ~structural_lock() {
    l_.context_mu_.unlock();
    if (gated_) {
      l_.gate.unlock();
    }
  }
  structural_lock(const structural_lock&) = delete;
  structural_lock& operator=(const structural_lock&) = delete;

 private:
  context_locks& l_;
  bool gated_;
};

/// RAII shared section of a submit_gate with early release.
class gate_shared {
 public:
  explicit gate_shared(submit_gate& g) : g_(&g) { g_->lock_shared(); }
  ~gate_shared() { unlock(); }
  void unlock() {
    if (g_ != nullptr) {
      g_->unlock_shared();
      g_ = nullptr;
    }
  }
  gate_shared(const gate_shared&) = delete;
  gate_shared& operator=(const gate_shared&) = delete;

 private:
  submit_gate* g_;
};

/// Deadlock-free acquisition of one task's data-stripe mutexes: collects up
/// to `max_stripes` mutexes, then locks them deduplicated in ascending
/// address order. Held across acquire -> run -> release (two-phase locking):
/// releasing between phases would let another thread acquire the same data
/// and miss this task's last-writer update. Tasks with more distinct data
/// than max_stripes take the exclusive path instead.
class stripe_lock {
 public:
  static constexpr std::size_t max_stripes = 16;

  /// Returns false (without locking anything) when capacity is exceeded.
  bool add(std::mutex* m) {
    if (n_ == max_stripes) {
      return false;
    }
    mus_[n_++] = m;
    return true;
  }

  void lock() {
    std::sort(mus_.begin(), mus_.begin() + static_cast<std::ptrdiff_t>(n_));
    n_ = static_cast<std::size_t>(
        std::unique(mus_.begin(),
                    mus_.begin() + static_cast<std::ptrdiff_t>(n_)) -
        mus_.begin());
    for (std::size_t i = 0; i < n_; ++i) {
      mus_[i]->lock();
    }
    locked_ = true;
  }

  void unlock() {
    if (!locked_) {
      return;
    }
    for (std::size_t i = n_; i > 0; --i) {
      mus_[i - 1]->unlock();
    }
    locked_ = false;
  }

  ~stripe_lock() { unlock(); }
  stripe_lock() = default;
  stripe_lock(const stripe_lock&) = delete;
  stripe_lock& operator=(const stripe_lock&) = delete;

 private:
  std::array<std::mutex*, max_stripes> mus_{};
  std::size_t n_ = 0;
  bool locked_ = false;
};

}  // namespace detail
}  // namespace cudastf
