// Simulated CUDA streams and events.
//
// Thread-safety: all mutating operations take the platform lock internally;
// creating, moving and destroying a stream or event takes no lock. Both hold
// their DES node as a node_ref, which reads as completed once the node is
// recycled, so no sweep has to find them. event::query() is the one
// lock-free read (it backs event_list pruning, which may run outside the
// platform lock): it never returns a false `true`, and once true it stays
// true. An event must be recorded before other threads query it.
// Concurrent submissions to the *same* stream must be serialized externally
// (the STF layer submits under its context lock, DESIGN.md §11); different
// streams need no coordination.
#pragma once

#include <cstdint>

#include "cudasim/des.hpp"
#include "cudasim/fault.hpp"

namespace cudasim {

class platform;
class graph;
class event;

/// Opaque handle to a node inside a graph template.
struct graph_node {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

/// An in-order queue of asynchronous operations on one device
/// (cudaStream_t). Streams are movable handles; destroying a stream does
/// not wait for its work (as in CUDA).
class stream {
 public:
  /// Creates a stream on `device` (default: the platform's current device).
  explicit stream(platform& p, int device = -1);

  stream(stream&&) noexcept = default;
  stream& operator=(stream&&) = delete;
  stream(const stream&) = delete;
  stream& operator=(const stream&) = delete;

  platform& owner() const { return *plat_; }
  int device() const { return device_; }

  /// Process-unique stream identity, stable across moves. Used by the STF
  /// layer to prune events dominated by a later event on the same stream
  /// (paper §IV: in-order streams make the later event a superset).
  std::uint64_t uid() const { return uid_; }

  /// Sticky CUDA-style error state. A fault injected on a submission marks
  /// the stream; while marked, further kernel/copy/alloc submissions are
  /// refused without side effects (work submitted *before* the fault still
  /// completes). The caller observes the code here and acknowledges it with
  /// clear_status() — mirroring cudaStreamQuery + cudaGetLastError.
  sim_status status() const { return status_; }
  void set_status(sim_status s) { status_ = s; }
  void clear_status() { status_ = sim_status::success; }

  /// Makes future work on this stream wait for `e` (cudaStreamWaitEvent).
  void wait_event(const event& e);

  /// Batched cudaStreamWaitEvent on recorded stream tails: future work on
  /// this stream waits for all `n` nodes. Pending nodes are fused into a
  /// single join marker instead of one marker per node, so the fast path
  /// creates at most one node.
  void wait_events(const node_ref* refs, std::size_t n);

  /// Blocks (drains the simulation) until all work submitted so far is done.
  void synchronize();

  // --- stream capture (cudaStreamBeginCapture-style) ---
  // While capturing, operations submitted to this stream are recorded into
  // `g` as graph nodes instead of being executed.
  void begin_capture(graph& g);
  graph* end_capture();
  bool capturing() const { return capture_ != nullptr; }
  graph* capture_graph() const { return capture_; }
  /// The node the next captured op depends on: the last one this stream
  /// recorded, or whatever the STF graph backend set as the task's join
  /// (invalid: none).
  graph_node capture_tail() const { return capture_tail_; }
  void set_capture_tail(graph_node n) { capture_tail_ = n; }

  // Internal: dependency chaining used by the platform, platform lock held.
  // last() is the tail node, or null once it has been recycled (a recycled
  // tail completed, so nothing needs to wait for it); last_ref() is the
  // handle itself, for comparing tails across a submission.
  op_node* last() const { return last_.live(); }
  node_ref last_ref() const { return last_; }
  void set_last(op_node* n) { last_ = node_ref(n); }
  /// Internal: monotone per-stream counter stamped onto recorded events.
  std::uint64_t next_record_seq() { return ++record_seq_; }

 private:
  platform* plat_;
  int device_;
  std::uint64_t uid_;
  std::uint64_t record_seq_ = 0;
  node_ref last_;
  graph* capture_ = nullptr;
  graph_node capture_tail_;
  // Written only by platform submission calls made while the submitting
  // thread owns the stream (same thread that reads it back), so it needs no
  // atomicity of its own.
  sim_status status_ = sim_status::success;
};

/// A marker in a stream's work queue (cudaEvent_t).
class event {
 public:
  explicit event(platform& p) : plat_(&p) {}

  event(event&&) noexcept = default;
  event(const event&) = delete;
  event& operator=(const event&) = delete;
  event& operator=(event&&) = delete;

  /// Captures the current tail of `s` (cudaEventRecord).
  void record(stream& s);

  /// Drains the simulation until the recorded point has completed.
  void synchronize();

  /// True once the recorded point has completed (cudaEventQuery).
  /// Lock-free and safe to call from any thread; monotonic once it returns
  /// true (see node_ref::done()).
  bool query() const { return recorded_ && node_.done(); }

  /// uid() of the stream this event was last recorded on (0 if never
  /// recorded). Together with record_seq() this orders events on the same
  /// stream for dominance pruning.
  std::uint64_t record_stream_uid() const { return stream_uid_; }
  std::uint64_t record_seq() const { return seq_; }

  /// Internal: the recorded tail node (matched against cancelled ops).
  node_ref ref() const { return node_; }

 private:
  platform* plat_;
  /// The stream tail captured by record(); written only by record().
  node_ref node_;
  bool recorded_ = false;
  std::uint64_t stream_uid_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace cudasim
