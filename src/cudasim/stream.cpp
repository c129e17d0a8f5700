#include "cudasim/stream.hpp"

#include <atomic>
#include <stdexcept>

#include "cudasim/graph.hpp"
#include "cudasim/platform.hpp"

namespace cudasim {

namespace {
// Process-global so stream identities never collide, even across platforms.
std::atomic<std::uint64_t> next_stream_uid{1};
}  // namespace

stream::stream(platform& p, int device)
    : plat_(&p),
      device_(device < 0 ? p.current_device() : device),
      uid_(next_stream_uid.fetch_add(1, std::memory_order_relaxed)) {
  if (device_ >= p.device_count()) {
    throw std::out_of_range("cudasim: stream on nonexistent device");
  }
}

void stream::wait_event(const event& e) {
  const node_ref r = e.ref();
  wait_events(&r, 1);
}

void stream::wait_events(const node_ref* refs, std::size_t n) {
  if (capturing()) {
    throw std::logic_error(
        "cudasim: wait_event is not supported during capture; use graph "
        "dependencies instead");
  }
  std::lock_guard lock(plat_->mutex());
  // Collect still-pending nodes (completed events need no ordering) and fuse
  // them, together with the previous tail, into one join marker so future
  // work waits on everything. Very wide lists chain one join per chunk.
  op_node* tail = last();
  constexpr std::size_t chunk = 16;
  op_node* pending[chunk];
  std::size_t np = 0;
  for (std::size_t i = 0; i < n; ++i) {
    op_node* evn = refs[i].live();
    if (evn == nullptr || evn->done.load(std::memory_order_relaxed) ||
        evn == tail) {
      continue;
    }
    pending[np++] = evn;
    if (np == chunk) {
      op_node* join = plat_->tl().make_node("waitEvent", device_, nullptr, 0.0);
      timeline::add_dep(tail, join);
      for (std::size_t j = 0; j < np; ++j) {
        timeline::add_dep(pending[j], join);
      }
      tail = join;
      set_last(join);
      plat_->tl().submit(join);
      np = 0;
    }
  }
  if (np != 0) {
    op_node* join = plat_->tl().make_node("waitEvent", device_, nullptr, 0.0);
    timeline::add_dep(tail, join);
    for (std::size_t j = 0; j < np; ++j) {
      timeline::add_dep(pending[j], join);
    }
    set_last(join);
    plat_->tl().submit(join);
  }
}

void stream::synchronize() { plat_->stream_synchronize(*this); }

void stream::begin_capture(graph& g) {
  if (capturing()) {
    throw std::logic_error("cudasim: stream already capturing");
  }
  capture_ = &g;
  capture_tail_ = {};
}

graph* stream::end_capture() {
  graph* g = capture_;
  capture_ = nullptr;
  capture_tail_ = {};
  return g;
}

void event::record(stream& s) {
  if (s.capturing()) {
    throw std::logic_error("cudasim: event record during capture unsupported");
  }
  std::lock_guard lock(plat_->mutex());
  // Capture the stream's current tail directly (the event completes exactly
  // when the tail op completes) instead of enqueueing a marker node — the
  // common record-after-submit pattern then allocates nothing. An idle
  // stream's tail is null, completed or recycled: the event is complete.
  recorded_ = true;
  stream_uid_ = s.uid();
  seq_ = s.next_record_seq();
  node_ = s.last_ref();
}

void event::synchronize() {
  if (!recorded_) {
    throw std::logic_error("cudasim: synchronizing an unrecorded event");
  }
  plat_->synchronize(node_);
}

}  // namespace cudasim
