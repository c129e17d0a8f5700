// Multi-threaded submission (DESIGN.md §11).
//
// One lock guards a context: the context lock, a recursive lock that knows
// its owner, taken by every structural operation through structural_lock.
// While parallel_submit() workers are live, submissions do not queue on it
// one by one. They go through flat combining (Hendler et al., SPAA 2010):
// a submitter publishes its lowered submission in a slot, and whichever
// submitter wins the context lock drains every published slot back to back
// through the unchanged single-threaded pipeline, then wakes each owner.
// The lock changes hands once per drain instead of once per task.
//
// Lock hierarchy (outer to inner): context lock -> platform driver lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

namespace cudastf {
namespace detail {

/// One published submission: the lowered closure and, once drained, the
/// exception it threw. Lives on the submitter's stack until `done`.
struct combine_request {
  void (*run)(void*);
  void* arg;
  std::exception_ptr err;
  std::atomic<bool> done{false};
};

/// The locks behind a context (context_state derives from this). Only
/// structural_lock and the combiner take the context lock, so every
/// structural entry point takes it the same way.
class context_locks {
 public:
  /// True while parallel_submit() workers are live: submissions combine.
  /// Single-threaded contexts pay this one load per submission.
  std::atomic<bool> mt_active{false};

  /// Submissions drained by the combiner (ctx.fast_path_submits()).
  /// Incremented under the context lock.
  std::uint64_t fast_submits = 0;

  /// Runs `f` under the context lock through the combiner and rethrows
  /// whatever it threw, on the calling thread. A thread already holding
  /// the lock (a nested submission, e.g. epoch replay) runs `f` directly.
  template <class F>
  void combine(F& f) {
    if (held_by_me()) {
      f();
      return;
    }
    combine_request r{[](void* p) { (*static_cast<F*>(p))(); }, &f, {}};
    publish_and_wait(r);
    if (r.err) {
      std::rethrow_exception(r.err);
    }
  }

 private:
  friend class structural_lock;

  static constexpr std::size_t slot_count = 16;
  /// Drain passes per combining session: the combiner stops early when a
  /// pass finds nothing, and hands over after this many full passes.
  static constexpr int pass_cap = 8;
  /// Pause iterations a waiter spins before yielding its time slice.
  static constexpr int spin_count = 64;

  struct alignas(64) slot {
    std::atomic<combine_request*> req{nullptr};
  };

  bool held_by_me() const {
    return context_owner_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }
  void lock_context();
  bool try_lock_context();
  void unlock_context();

  void publish_and_wait(combine_request& r);
  /// Runs every published request; context lock held.
  void drain();

  std::mutex context_mu_;
  std::atomic<std::thread::id> context_owner_{};
  int context_depth_ = 0;  ///< touched only by the owner
  std::array<slot, slot_count> slots_;
};

/// RAII structural section of a context: the context lock, reentrant for
/// its owner because structural operations nest (finalize -> restart ->
/// replay -> submission).
class structural_lock {
 public:
  explicit structural_lock(context_locks& l) : l_(l) { l_.lock_context(); }
  ~structural_lock() { l_.unlock_context(); }
  structural_lock(const structural_lock&) = delete;
  structural_lock& operator=(const structural_lock&) = delete;

 private:
  context_locks& l_;
};

}  // namespace detail
}  // namespace cudastf
