// Flat-combining submission and the context lock (DESIGN.md §11).
#include "cudastf/threading.hpp"

#include "cudasim/des.hpp"

namespace cudastf::detail {

namespace {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void context_locks::lock_context() {
  if (held_by_me()) {
    ++context_depth_;
    return;
  }
  context_mu_.lock();
  context_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  context_depth_ = 1;
}

bool context_locks::try_lock_context() {
  if (!context_mu_.try_lock()) {
    return false;
  }
  context_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  context_depth_ = 1;
  return true;
}

void context_locks::unlock_context() {
  if (--context_depth_ == 0) {
    context_owner_.store(std::thread::id{}, std::memory_order_relaxed);
    context_mu_.unlock();
  }
}

void context_locks::publish_and_wait(combine_request& r) {
  // Publish: the thread's home slot first, probing onward when another
  // thread's request occupies it (more live submitters than slots).
  const std::size_t home = static_cast<std::size_t>(cudasim::thread_slot());
  for (std::size_t i = home;; ++i) {
    combine_request* expected = nullptr;
    if (slots_[i % slot_count].req.compare_exchange_strong(
            expected, &r, std::memory_order_release,
            std::memory_order_relaxed)) {
      break;
    }
    if ((i + 1 - home) % slot_count == 0) {
      std::this_thread::yield();
    }
  }
  // Wait until some combiner, possibly this thread, has drained the slot.
  while (!r.done.load(std::memory_order_acquire)) {
    if (try_lock_context()) {
      drain();
      unlock_context();
      continue;
    }
    for (int i = 0; i < spin_count; ++i) {
      if (r.done.load(std::memory_order_acquire)) {
        return;
      }
      cpu_pause();
    }
    std::this_thread::yield();
  }
}

void context_locks::drain() {
  for (int pass = 0; pass < pass_cap; ++pass) {
    bool any = false;
    for (slot& s : slots_) {
      combine_request* q = s.req.load(std::memory_order_acquire);
      if (q == nullptr) {
        continue;
      }
      any = true;
      try {
        q->run(q->arg);
      } catch (...) {
        q->err = std::current_exception();
      }
      ++fast_submits;
      // Free the slot before waking the owner: once `done` is set the
      // request's stack frame may be gone.
      s.req.store(nullptr, std::memory_order_relaxed);
      q->done.store(true, std::memory_order_release);
    }
    if (!any) {
      return;
    }
  }
}

}  // namespace cudastf::detail
