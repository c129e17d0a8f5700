// The simulated CUDA platform: a set of devices, their engines and memory
// pools, and the shared virtual timeline. Plays the role of the CUDA
// runtime + driver in this reproduction (see DESIGN.md §1).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cudasim/des.hpp"
#include "cudasim/device.hpp"
#include "cudasim/fault.hpp"
#include "cudasim/stream.hpp"

namespace cudasim {

/// Memory kinds understood by memcpy_async.
enum class memcpy_kind : std::uint8_t {
  host_to_device,
  device_to_host,
  device_to_device,  ///< same device or peer-to-peer; platform inspects
  host_to_host,
};

/// A byte range the next kernel submission will write (integrity hinting:
/// an armed kernel_output bit flip lands inside a hinted range instead of
/// an arbitrary live allocation).
struct byte_span {
  void* ptr = nullptr;
  std::size_t len = 0;
};

/// Cost descriptor attached to a simulated kernel launch.
///
/// `bytes` is traffic served from the executing device's own memory;
/// `remote_bytes` crosses a peer link; `host_bytes` crosses the host link.
struct kernel_desc {
  std::string name = "kernel";
  double flops = 0.0;
  double bytes = 0.0;
  double remote_bytes = 0.0;
  double host_bytes = 0.0;
  double fixed_seconds = 0.0;  ///< extra fixed device time, if any
};

/// Kinds of simulated operations (and of graph template nodes).
enum class op_kind : std::uint8_t {
  empty,  ///< a marker: a graph's empty node, a stream's retry backoff
  kernel,
  memcpy,
  mem_alloc,
  mem_free,
  host,
};

/// One simulated operation, described once by its stream entry point or by
/// a graph template node; platform::lower turns it into DES nodes.
struct sim_op {
  op_kind kind = op_kind::empty;
  int device = -1;  ///< executing device; a peer copy's source
  int peer = -1;    ///< a peer copy's destination device, else -1
  const kernel_desc* k = nullptr;
  void* dst = nullptr;  ///< copy destination, allocation, freed buffer
  const void* src = nullptr;
  std::size_t bytes = 0;
  memcpy_kind ckind = memcpy_kind::device_to_device;
  double cost = 0.0;  ///< host function cost; a marker's duration
  /// A silent corruption armed on a stream copy: one destination bit flips
  /// once the bytes landed.
  bool flip = false;
  std::uint64_t flip_seed = 0;
};

/// Per-device state: engines and the stream-ordered memory pool.
class device_state {
 public:
  explicit device_state(int index, device_desc desc);

  int index() const { return index_; }
  const device_desc& desc() const { return desc_; }

  engine& compute() { return compute_; }
  engine& copy_in() { return copy_in_; }
  engine& copy_out() { return copy_out_; }

  std::size_t pool_used() const { return pool_used_; }
  std::size_t pool_capacity() const { return desc_.mem_capacity; }
  /// Overrides the pool capacity (used by the Fig. 3 experiment).
  void set_pool_capacity(std::size_t bytes) { desc_.mem_capacity = bytes; }

  /// Fail-stop flag: once set the device accepts no new kernels, copies
  /// (except evacuating device-to-host reads) or allocations. Work already
  /// submitted still completes — the model is fail-stop *at submission*.
  bool failed() const { return failed_; }

  /// Bookkeeping for one live malloc_async/pool_reserve buffer. The
  /// allocation sequence number gives resident bit flips a deterministic
  /// victim order independent of hash-map iteration and pointer values.
  struct alloc_info {
    std::size_t bytes = 0;
    std::uint64_t seq = 0;
  };

 private:
  friend class platform;
  int index_;
  device_desc desc_;
  engine compute_{engine_kind::compute};
  engine copy_in_{engine_kind::copy_in};
  engine copy_out_{engine_kind::copy_out};
  std::size_t pool_used_ = 0;
  bool failed_ = false;
  /// Buffers handed out by malloc_async; maps base pointer -> info.
  std::unordered_map<void*, alloc_info> live_allocs_;
  std::uint64_t alloc_seq_ = 0;
};

/// Computes the modelled execution time of `k` on a device.
double kernel_cost_seconds(const device_desc& d, const kernel_desc& k);

/// The simulated machine. Thread-safe for submission: a single mutex
/// serializes the stateful API calls (mirroring the driver lock), while the
/// hottest per-task reads bypass it — current_device() and faults_armed()
/// are lock-free atomics, stream and event handles are created and
/// destroyed without any lock, and event::query() reads atomic completion
/// flags. The critical sections are short (one node
/// creation plus wiring), so concurrent submitters from many host threads
/// contend only briefly (DESIGN.md §11).
class platform {
 public:
  /// Builds a homogeneous machine of `num_devices` copies of `desc`.
  platform(int num_devices, const device_desc& desc);
  /// Releases the host backing of every allocation never freed; a free
  /// whose node has not run releases its backing as the node is dropped.
  ~platform();

  platform(const platform&) = delete;
  platform& operator=(const platform&) = delete;

  int device_count() const { return static_cast<int>(devices_.size()); }
  device_state& device(int i);
  const device_state& device(int i) const;

  /// Current-device TLS emulation (cudaSetDevice / cudaGetDevice).
  void set_device(int i);
  int current_device() const;

  // --- asynchronous operations (stream-ordered) ---

  /// Launches a simulated kernel; `body` runs when the kernel completes in
  /// virtual time (it may be empty for timing-only runs). With kernel
  /// payloads off the body is dropped.
  void launch_kernel(stream& s, const kernel_desc& k,
                     std::function<void()> body);

  /// Wraps `body` for launch_kernel, or returns an empty body while kernel
  /// payloads are off, so timing-only submissions never build the bodies
  /// launch_kernel would drop.
  template <class Body>
  std::function<void()> kernel_body(Body&& body) const {
    return kernel_payloads_ ? std::function<void()>(std::forward<Body>(body))
                            : std::function<void()>();
  }

  void memcpy_async(void* dst, const void* src, std::size_t n, memcpy_kind kind,
                    stream& s);

  /// Peer copy between two devices (cudaMemcpyPeerAsync). Unlike the
  /// device_to_device kind of memcpy_async — which only charges the source
  /// device's copy_out engine — a cross-device peer copy occupies *both*
  /// endpoints: copy_out on `src_device` and copy_in on `dst_device` run in
  /// parallel for the link-transfer duration, and the operation completes
  /// when both have. This models real NVLink contention: a device cannot
  /// absorb two incoming transfers faster than one. Same-device calls fall
  /// back to plain device_to_device semantics.
  void memcpy_peer_async(void* dst, int dst_device, const void* src,
                         int src_device, std::size_t n, stream& s);

  /// Stream-ordered allocation from the device pool backing `s`.
  /// Returns nullptr when the pool capacity would be exceeded (the caller —
  /// e.g. CUDASTF's allocator — is expected to react, typically by evicting).
  void* malloc_async(std::size_t bytes, stream& s);
  void free_async(void* p, stream& s);

  void launch_host_func(stream& s, std::function<void()> fn, double cost = 0.0);

  // --- synchronization ---

  void stream_synchronize(stream& s);
  void synchronize();  ///< cudaDeviceSynchronize over the whole machine
  /// Drains the simulation until the node behind `until` has completed (a
  /// null or recycled handle already has).
  void synchronize(node_ref until);

  /// Virtual clock: largest completion time processed so far. Call
  /// synchronize() first for a quiescent reading.
  timepoint now() const { return tl_.now(); }

  /// When disabled, memcpy bodies become no-ops (timing-only runs at paper
  /// scale avoid faulting tens of GB of backing memory). Default: enabled.
  void set_copy_payloads(bool on) { copy_payloads_ = on; }
  bool copy_payloads() const { return copy_payloads_; }

  /// When disabled, launch_kernel drops kernel bodies: virtual time is
  /// charged as usual but no host-side numerics run, whichever construct
  /// submitted the kernel. Default: enabled.
  void set_kernel_payloads(bool on) { kernel_payloads_ = on; }
  bool kernel_payloads() const { return kernel_payloads_; }

  std::uint64_t ops_completed() const { return tl_.completed_count(); }

  // --- fault injection / failure model (see DESIGN.md §5) ---

  /// Installs (or replaces) the platform's fault injector. The platform
  /// owns it; pass nullptr to disarm.
  void set_fault_injector(std::shared_ptr<fault_injector> fi);
  /// Creates an injector if none is installed and returns it for scheduling.
  fault_injector& ensure_fault_injector();
  fault_injector* injector() const { return injector_.get(); }
  /// Lock-free (the STF layer consults it per task without the driver
  /// lock); tracks injector_ through an atomic mirror.
  bool has_injector() const {
    return has_injector_.load(std::memory_order_acquire);
  }

  /// Marks a device as permanently failed (fail-stop at submission). Also
  /// fired by the injector on device_fail events. Idempotent.
  void fail_device(int dev);
  bool device_failed(int dev) const;

  /// True once an injector is installed or any device has failed. The
  /// submission paths skip all fault bookkeeping while this is false, so a
  /// fault-free platform pays one predictable branch per op. Lock-free, so
  /// the STF layer can consult it per task without the driver lock.
  bool faults_armed() const {
    return faults_armed_.load(std::memory_order_acquire);
  }

  /// True exactly once after an injected alloc_fail made malloc_async
  /// return nullptr. Lets allocators distinguish the injected (transient,
  /// retryable) failure from genuine pool exhaustion — matching CUDA, where
  /// a cudaMallocAsync OOM is returned but not sticky.
  bool consume_injected_alloc_failure();

  /// Enqueues a pure delay of `seconds` virtual time on the stream (no
  /// engine occupancy). Used for exponential-backoff task retries.
  void stream_delay(stream& s, double seconds);

  // --- hang injection / recovery (fault_kind::stall, DESIGN.md §12) ---

  /// What cancel_stalled_op() tore out of the DES (found == false when no
  /// cancellable stalled op existed). `name` points at the timeline's
  /// interned string; `node` matches the event that recorded the op.
  struct stall_info {
    bool found = false;
    std::uint64_t id = 0;
    const char* name = "";
    int device = -1;
    node_ref node;
  };

  /// Cooperatively cancels one injected-stall victim: `prefer` (when it is
  /// itself a stalled op) else the oldest cancellable stalled op. The
  /// cancelled op's body is discarded, its engine un-wedged and its
  /// successors released (see timeline::cancel). Recovery layers decide
  /// what the administrative completion means for data validity.
  stall_info cancel_stalled_op(node_ref prefer = {});

  /// Bounded drain: completes every pending op with finish time <= t_limit.
  /// Returns how many completed. Never blocks on a wedged engine.
  std::size_t drain_window(timepoint t_limit);
  /// Completes the single earliest pending op; false when nothing pending.
  bool drain_one();
  /// Advances the virtual clock to at least t (deadline waits cost time).
  void advance_clock(timepoint t);
  /// Submitted-but-incomplete op count (deadline monitor's wedge check).
  std::uint64_t live_ops() const;
  /// Diagnostic passthrough to timeline::stuck_report() under the lock.
  std::string stuck_report() const;

  /// Declares the byte ranges the next kernel submissions will write, so an
  /// armed kernel_output bit flip corrupts genuine task output. Cleared with
  /// clear_output_hints(); without hints the flip falls back to a live
  /// allocation on the device. Only consulted while an injector is armed.
  void set_output_hints(std::vector<byte_span> spans);
  void clear_output_hints();

  /// DES nodes recycled through the timeline's slab pool (fast-path
  /// perf counter; see DESIGN.md "Host-side fast path").
  std::uint64_t nodes_pooled() const { return tl_.nodes_pooled(); }

  // --- internals shared with stream/event/graph (not for end users) ---

  /// Charges `bytes` against device `dev`'s pool and returns backing memory
  /// (nullptr if the capacity would be exceeded). Used by graph alloc nodes.
  void* pool_reserve(int dev, std::size_t bytes);
  /// Returns memory obtained from pool_reserve / malloc_async without
  /// stream ordering (immediate release).
  void pool_unreserve(int dev, void* p);

  /// Accounting-only variants used by the VMM layer, which supplies its own
  /// backing memory. pool_charge returns false if the capacity is exceeded.
  bool pool_charge(int dev, std::size_t bytes);
  void pool_discharge(int dev, std::size_t bytes);

  timeline& tl() { return tl_; }
  std::recursive_mutex& mutex() { return mu_; }

  // Every simulated op takes one path: the fault gate, then the capture
  // step while its stream captures, else lower(). A graph launch passes the
  // gate once and lowers each template node (DESIGN.md §1).

  /// The fault gate, mu_ held. Polls the injector for a `cat` submission on
  /// the stream's device, then refuses the op when the stream carries a
  /// sticky status, when `lost()` finds a failed device among those the op
  /// touches, or when the poll injected a fault. A refused kernel, copy or
  /// graph launch leaves its status on the stream; a refused allocation
  /// only returns (an injected OOM is flagged for
  /// consume_injected_alloc_failure()). Returns whether the op may run.
  template <class Lost>
  bool gate_locked(stream& s, op_category cat, Lost&& lost) {
    if (!faults_armed_) {
      return s.status() == sim_status::success;  // sticky without injector
    }
    const sim_status injected = poll_faults_locked(cat, s.device());
    if (s.status() != sim_status::success) {
      return false;  // sticky: refused until the caller clears the status
    }
    const sim_status refusal =
        lost() ? sim_status::error_device_lost : injected;
    if (refusal == sim_status::success) {
      return true;
    }
    if (cat != op_category::alloc) {
      s.set_status(refusal);
    } else if (refusal == sim_status::error_out_of_memory) {
      alloc_fault_pending_ = true;
    }
    return false;
  }

  /// Where lower() places an op. On a stream it goes behind `tail`. As a
  /// node of a graph launch (`graph`) it goes behind the lowered nodes of
  /// its template dependencies — `tail`, the launch stream's, when it has
  /// none — is charged graph_node_latency instead of launch_latency, takes
  /// a graph.* node name, and only a kernel takes a pending stall.
  struct lowering {
    op_node* tail = nullptr;
    bool graph = false;
    const std::vector<std::uint32_t>* deps = nullptr;
    op_node* const* lowered = nullptr;
  };

  /// The one lowering of every op kind, mu_ held: builds and submits the
  /// op's DES nodes (cost, engine, payload body, pending stall, and a
  /// copy's armed flip) and returns the node that completes it — a peer
  /// copy's join of its two engine halves. An empty copy body is filled
  /// with the one copy payload unless copy payloads are off.
  op_node* lower(const sim_op& op, task_fn&& body, const lowering& at);

 private:
  /// Appends `op` to the graph `s` captures, behind its capture tail; a
  /// copy carrying a flip gets a one-shot host node right behind it.
  void capture(stream& s, sim_op& op, std::function<void()>&& body = {});
  /// Lowers `op` behind the tail of `s` and makes it the new tail. mu_ held.
  void append_locked(stream& s, const sim_op& op, task_fn&& body = {});
  /// The stream half of a gated op: capture() while `s` captures, else
  /// append_locked(). mu_ held.
  void enqueue_locked(stream& s, sim_op& op,
                      std::function<void()>&& body = {});

  /// Accounts one submission with the injector (if armed) and returns the
  /// injected status. Called by gate_locked() only; mu_ held.
  sim_status poll_faults_locked(op_category cat, int device);

  /// Hands over (and clears) the armed stall. Unlike flips, a pending stall
  /// is sticky across polls: one armed during stream capture (where no DES
  /// node exists yet) rides forward and lands on the next engine op lowered
  /// — e.g. the first kernel node of a graph launch. mu_ held.
  bool take_pending_stall(stall_request* out);

  /// Marks the (not yet submitted) node as the stall victim: a transient
  /// stall enlarges its duration, a permanent one wedges its engine until
  /// cancelled. Tracked in stalled_ops_ for cancel_stalled_op(). mu_ held.
  void apply_stall_locked(op_node* n, const stall_request& sr);

  /// Bounds simulator memory: once too many live ops accumulate, drain the
  /// timeline (virtual timestamps are unaffected — everything submitted is
  /// fully determined) and recycle nodes. Called with mu_ held.
  void maybe_drain_locked();

  /// Corrupts one byte of a deterministically chosen live allocation on the
  /// request's device, immediately (at-rest aging needs no stream ordering,
  /// and deferring would race the deferred std::free bodies). mu_ held.
  void apply_resident_flip_locked(const flip_request& fr);

  /// Hands over (and clears) the flip armed by the last poll. Only kernels
  /// and copies consume one; the next poll drops a flip no op took, so it
  /// never leaks into a later op.
  bool take_pending_flip(flip_request* out);

  std::vector<std::unique_ptr<device_state>> devices_;
  engine host_engine_{engine_kind::host};
  timeline tl_;
  mutable std::recursive_mutex mu_;
  /// Current device. Atomic so current_device() — consulted once per task by
  /// the STF layer — never touches the driver lock.
  std::atomic<int> current_{0};
  bool copy_payloads_ = true;
  bool kernel_payloads_ = true;
  std::shared_ptr<fault_injector> injector_;
  std::atomic<bool> has_injector_{false};
  bool alloc_fault_pending_ = false;
  std::atomic<bool> faults_armed_{false};
  bool any_device_failed_ = false;
  flip_request pending_flip_;
  stall_request pending_stall_;
  bool stall_pending_ = false;
  /// Stall victims, in arming (= oldest-first) order. Completed (and
  /// recycled) ones are pruned when the next stall is armed.
  std::vector<node_ref> stalled_ops_;
  std::vector<byte_span> output_hints_;
};

/// Flips one deterministic bit of `[p, p+len)` derived from `seed`.
void flip_payload_byte(void* p, std::size_t len, std::uint64_t seed);

/// Process-wide default platform management. Tests and benches typically
/// install their own platform for the duration of a scope.
platform& default_platform();
/// Replaces the default platform; returns the previous one (may be null).
std::shared_ptr<platform> set_default_platform(std::shared_ptr<platform> p);

/// RAII helper installing a fresh default platform for a scope.
class scoped_platform {
 public:
  scoped_platform(int num_devices, const device_desc& desc);
  ~scoped_platform();
  platform& get() { return *mine_; }

 private:
  std::shared_ptr<platform> mine_;
  std::shared_ptr<platform> previous_;
};

}  // namespace cudasim
