#include "cudasim/platform.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "cudasim/graph.hpp"
#include "cudasim/stream.hpp"

namespace cudasim {

device_state::device_state(int index, device_desc desc)
    : index_(index), desc_(std::move(desc)) {}

double kernel_cost_seconds(const device_desc& d, const kernel_desc& k) {
  const double compute = k.flops > 0 ? k.flops / d.fp64_flops : 0.0;
  const double mem = k.bytes > 0 ? k.bytes / d.hbm_bw : 0.0;
  const double remote = k.remote_bytes > 0 ? k.remote_bytes / d.p2p_bw : 0.0;
  const double host = k.host_bytes > 0 ? k.host_bytes / d.host_link_bw : 0.0;
  // Compute overlaps with local memory traffic (roofline); link traffic is
  // additive since it serializes behind the interconnect.
  return std::max(compute, mem) + remote + host + k.fixed_seconds;
}

platform::platform(int num_devices, const device_desc& desc) {
  if (num_devices < 1) {
    throw std::invalid_argument("cudasim: platform needs at least one device");
  }
  devices_.reserve(static_cast<std::size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    devices_.push_back(std::make_unique<device_state>(i, desc));
  }
}

platform::~platform() {
  for (const auto& dev : devices_) {
    for (const auto& [p, info] : dev->live_allocs_) {
      std::free(p);
    }
  }
}

device_state& platform::device(int i) {
  return *devices_.at(static_cast<std::size_t>(i));
}

const device_state& platform::device(int i) const {
  return *devices_.at(static_cast<std::size_t>(i));
}

void platform::set_device(int i) {
  if (i < 0 || i >= device_count()) {
    throw std::out_of_range("cudasim: set_device out of range");
  }
  current_.store(i, std::memory_order_release);
}

int platform::current_device() const {
  return current_.load(std::memory_order_acquire);
}

void flip_payload_byte(void* p, std::size_t len, std::uint64_t seed) {
  if (p == nullptr || len == 0) {
    return;
  }
  auto* b = static_cast<unsigned char*>(p);
  b[seed % len] ^= static_cast<unsigned char>(1u << ((seed >> 8) % 8));
}

namespace {

/// Bandwidth of host-to-host staging copies (checkpoint snapshots of
/// host-resident data, eviction staging): a DDR memcpy, well above any host
/// link, so staging never dominates a copy that crosses one.
constexpr double host_memcpy_bw = 50.0e9;

/// Deterministic corruption victim among a device's live allocations:
/// ordered by allocation sequence so the pick never depends on hash-map
/// iteration order or pointer values.
bool pick_live_alloc(const std::unordered_map<void*, device_state::alloc_info>&
                         allocs,
                     std::uint64_t seed, void** out_p, std::size_t* out_len) {
  if (allocs.empty()) {
    return false;
  }
  std::vector<std::pair<std::uint64_t, std::pair<void*, std::size_t>>> order;
  order.reserve(allocs.size());
  for (const auto& [p, info] : allocs) {
    order.emplace_back(info.seq, std::make_pair(p, info.bytes));
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto& pick = order[seed % order.size()].second;
  if (pick.second == 0) {
    return false;
  }
  *out_p = pick.first;
  *out_len = pick.second;
  return true;
}

/// The one copy payload: moves `n` bytes (nothing without a source), then,
/// when a silent corruption was armed (`fired` set), flips one destination
/// bit once — the guard keeps memoized graph relaunches from re-flipping,
/// as two flips of the same bit cancel.
struct copy_body {
  void* dst;
  const void* src;
  std::size_t n;
  std::uint64_t seed = 0;
  std::shared_ptr<bool> fired;

  void operator()() const {
    if (dst != nullptr && src != nullptr && n > 0) {
      std::memmove(dst, src, n);
    }
    if (fired != nullptr && !*fired) {
      *fired = true;
      flip_payload_byte(dst, n, seed);
    }
  }
};

/// The flip half of copy_body alone: corrupts [p, p+len) once.
copy_body one_shot_flip(void* p, std::size_t len, std::uint64_t seed) {
  return {p, nullptr, len, seed, std::make_shared<bool>(false)};
}

}  // namespace

void platform::launch_kernel(stream& s, const kernel_desc& k,
                             std::function<void()> body) {
  if (!kernel_payloads_) {
    body = nullptr;
  }
  std::lock_guard lock(mu_);
  if (!gate_locked(s, op_category::kernel,
                   [&] { return device(s.device()).failed(); })) {
    return;
  }
  flip_request fr;
  if (take_pending_flip(&fr)) {
    // Silent output corruption: the kernel runs normally, then one bit of a
    // hinted output range (or, without hints, of a live allocation on the
    // device) flips.
    void* tp = nullptr;
    std::size_t tlen = 0;
    if (!output_hints_.empty()) {
      const byte_span& sp = output_hints_[fr.seed % output_hints_.size()];
      tp = sp.ptr;
      tlen = sp.len;
    } else {
      pick_live_alloc(device(s.device()).live_allocs_, fr.seed, &tp, &tlen);
    }
    if (tp != nullptr && tlen > 0) {
      body = [inner = std::move(body), flip = one_shot_flip(tp, tlen, fr.seed)] {
        if (inner) {
          inner();
        }
        flip();
      };
    }
  }
  sim_op op{.kind = op_kind::kernel, .device = s.device(), .k = &k};
  enqueue_locked(s, op, std::move(body));
}

void platform::memcpy_async(void* dst, const void* src, std::size_t n,
                            memcpy_kind kind, stream& s) {
  std::lock_guard lock(mu_);
  // Fail-stop at submission, with an evacuation grace: copies *out* of a
  // failed device toward the host stay possible (modelling graceful
  // decommissioning), so the runtime can rescue sole modified copies.
  if (!gate_locked(s, op_category::copy, [&] {
        return kind != memcpy_kind::device_to_host &&
               device(s.device()).failed();
      })) {
    return;
  }
  sim_op op{.kind = op_kind::memcpy, .device = s.device(), .dst = dst,
            .src = src, .bytes = n, .ckind = kind};
  enqueue_locked(s, op);
}

void platform::memcpy_peer_async(void* dst, int dst_device, const void* src,
                                 int src_device, std::size_t n, stream& s) {
  if (dst_device == src_device) {
    memcpy_async(dst, src, n, memcpy_kind::device_to_device, s);
    return;
  }
  if (dst_device < 0 || dst_device >= device_count() || src_device < 0 ||
      src_device >= device_count()) {
    throw std::out_of_range("cudasim: memcpy_peer_async device out of range");
  }
  std::lock_guard lock(mu_);
  // No evacuation grace on peer links: rescuing data off a failed device
  // goes through the host path (device_to_host), never through a peer.
  if (!gate_locked(s, op_category::copy, [&] {
        return device(src_device).failed() || device(dst_device).failed();
      })) {
    return;
  }
  sim_op op{.kind = op_kind::memcpy, .device = src_device, .peer = dst_device,
            .dst = dst, .src = src, .bytes = n};
  enqueue_locked(s, op);
}

void* platform::malloc_async(std::size_t bytes, stream& s) {
  std::lock_guard lock(mu_);
  // Like genuine exhaustion a refusal is a plain nullptr, not a sticky
  // error; callers tell a failed device (device_failed()) and an injected
  // OOM (consume_injected_alloc_failure()) apart from it.
  if (!gate_locked(s, op_category::alloc,
                   [&] { return device(s.device()).failed(); })) {
    return nullptr;
  }
  sim_op op{.kind = op_kind::mem_alloc, .device = s.device(), .bytes = bytes};
  if (s.capturing()) {
    capture(s, op);
    return op.dst;
  }
  void* p = pool_reserve(s.device(), bytes);
  if (p != nullptr) {
    // The allocation itself is stream-ordered: later ops on the stream wait
    // for it, modelling cudaMallocAsync.
    append_locked(s, op);
  }
  return p;  // nullptr: pool exhausted; caller reacts (eviction, etc.)
}

void platform::free_async(void* p, stream& s) {
  if (p == nullptr) {
    return;
  }
  sim_op op{.kind = op_kind::mem_free, .device = s.device(), .dst = p};
  if (s.capturing()) {
    capture(s, op);
    return;
  }
  std::lock_guard lock(mu_);
  device_state& dev = device(s.device());
  auto it = dev.live_allocs_.find(p);
  if (it == dev.live_allocs_.end()) {
    throw std::logic_error("cudasim: free_async of unknown pointer");
  }
  const std::size_t bytes = it->second.bytes;
  dev.live_allocs_.erase(it);
  // Pool space is returned in submission order (the pool can reuse the range
  // for future stream-ordered allocations). The free node owns the host
  // backing: it is released when the node runs, or when a node that never
  // runs (cancelled, or pending when the platform is destroyed) is dropped.
  dev.pool_used_ -= bytes;
  struct free_backing {
    void operator()(void* q) const noexcept { std::free(q); }
  };
  append_locked(s, op,
                [backing = std::unique_ptr<void, free_backing>(p)]() mutable {
                  backing.reset();
                });
}

void platform::launch_host_func(stream& s, std::function<void()> fn,
                                double cost) {
  std::lock_guard lock(mu_);
  sim_op op{.kind = op_kind::host, .cost = cost};
  enqueue_locked(s, op, std::move(fn));
}

void platform::stream_delay(stream& s, double seconds) {
  // No-op during capture: a backoff node would change the captured graph
  // topology (breaking exec-graph memoization) and confuse the backends'
  // partial-submission detection, which compares capture tails.
  if (seconds <= 0.0 || s.capturing()) {
    return;
  }
  std::lock_guard lock(mu_);
  append_locked(s, {.kind = op_kind::empty, .device = s.device(),
                    .cost = seconds});
}

void platform::enqueue_locked(stream& s, sim_op& op,
                              std::function<void()>&& body) {
  flip_request fr;
  if (op.kind == op_kind::memcpy && take_pending_flip(&fr)) {
    op.flip = op.dst != nullptr && op.bytes > 0;
    op.flip_seed = fr.seed;
  }
  if (s.capturing()) {
    capture(s, op, std::move(body));
  } else {
    append_locked(s, op, task_fn(std::move(body)));
  }
}

void platform::capture(stream& s, sim_op& op,
                       std::function<void()>&& body) {
  graph& g = *s.capture_graph();
  std::vector<graph_node> deps;
  if (s.capture_tail().valid()) {
    deps.push_back(s.capture_tail());
  }
  graph_node n = g.add(deps, op, std::move(body));
  if (n.valid() && op.flip) {
    // In-flight corruption during capture: a host node right behind the
    // copy flips one destination bit, once across relaunches.
    n = g.add_host_node({n}, one_shot_flip(op.dst, op.bytes, op.flip_seed));
  }
  if (n.valid()) {
    s.set_capture_tail(n);
  }
}

void platform::append_locked(stream& s, const sim_op& op, task_fn&& body) {
  s.set_last(lower(op, std::move(body), {.tail = s.last()}));
  maybe_drain_locked();
}

op_node* platform::lower(const sim_op& op, task_fn&& body,
                         const lowering& at) {
  const bool g = at.graph;
  device_state* dev = op.device >= 0 ? &device(op.device) : nullptr;
  if (op.kind == op_kind::memcpy && !body && copy_payloads_) {
    body = copy_body{op.dst, op.src, op.bytes, op.flip_seed,
                     op.flip ? std::make_shared<bool>(false) : nullptr};
  }
  op_node* n = nullptr;
  op_node* in = nullptr;    // a peer copy's destination half...
  op_node* join = nullptr;  // ...and the join of both halves
  switch (op.kind) {
    case op_kind::empty:
      n = tl_.make_node(g ? "graph.empty" : "retryBackoff", op.device, nullptr,
                        op.cost);
      break;
    case op_kind::kernel: {
      const device_desc& d = dev->desc();
      const double latency = g ? d.graph_node_latency : d.launch_latency;
      n = tl_.make_node(op.k->name, op.device, &dev->compute(),
                        latency + kernel_cost_seconds(d, *op.k),
                        std::move(body));
      break;
    }
    case op_kind::memcpy: {
      const device_desc& d = dev->desc();
      if (op.peer >= 0) {
        // Dual-engine peer copy: copy_out on the source and copy_in on the
        // peer run in parallel, and the op completes with their join.
        const double dur =
            d.copy_latency + static_cast<double>(op.bytes) / d.p2p_bw;
        n = tl_.make_node(g ? "graph.memcpyPeerSrc" : "memcpyPeerSrc",
                          op.device, &dev->copy_out(), dur, std::move(body));
        in = tl_.make_node(g ? "graph.memcpyPeerDst" : "memcpyPeerDst",
                           op.peer, &device(op.peer).copy_in(), dur);
        join = tl_.make_node(g ? "graph.memcpyPeer" : "memcpyPeer", op.device,
                             nullptr, 0.0);
        join->real_work = true;  // accepted work, not a mere marker
        break;
      }
      engine* eng = &dev->copy_out();
      double bw = d.p2p_bw;
      if (op.ckind == memcpy_kind::host_to_device) {
        eng = &dev->copy_in();
        bw = d.host_link_bw;
      } else if (op.ckind == memcpy_kind::device_to_host) {
        bw = d.host_link_bw;
      } else if (op.ckind == memcpy_kind::host_to_host) {
        eng = &host_engine_;
        bw = host_memcpy_bw;
      }
      n = tl_.make_node(g ? "graph.memcpy" : "memcpy", op.device, eng,
                        d.copy_latency + static_cast<double>(op.bytes) / bw,
                        std::move(body));
      break;
    }
    case op_kind::mem_alloc:
    case op_kind::mem_free:
      n = tl_.make_node(g                                ? "graph.mem"
                        : op.kind == op_kind::mem_alloc ? "mallocAsync"
                                                         : "freeAsync",
                        op.device, &dev->compute(), dev->desc().alloc_latency,
                        std::move(body));
      break;
    case op_kind::host:
      n = tl_.make_node(g ? "graph.host" : "hostFunc", -1, &host_engine_,
                        op.cost, std::move(body));
      break;
  }
  stall_request sr;
  if ((op.kind == op_kind::kernel || (op.kind == op_kind::memcpy && !g)) &&
      take_pending_stall(&sr)) {
    apply_stall_locked(n, sr);  // a peer copy's source half carries it
  }
  const auto wire = [&](op_node* succ) {
    if (at.deps == nullptr || at.deps->empty()) {
      timeline::add_dep(at.tail, succ);
      return;
    }
    for (std::uint32_t d : *at.deps) {
      timeline::add_dep(at.lowered[d], succ);
    }
  };
  try {
    wire(n);
    if (in != nullptr) {
      wire(in);
    }
  } catch (...) {
    tl_.abandon(n);
    tl_.abandon(in);
    tl_.abandon(join);
    throw;
  }
  tl_.submit(n);
  if (join == nullptr) {
    return n;
  }
  tl_.submit(in);
  try {
    // Wired after submit: edges *into* a node whose predecessors are live
    // always resolve, so abandoning `join` below can never strand it.
    timeline::add_dep(n, join);
    timeline::add_dep(in, join);
  } catch (...) {
    tl_.abandon(join);
    throw;
  }
  tl_.submit(join);
  return join;
}

void* platform::pool_reserve(int devidx, std::size_t bytes) {
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  if (dev.pool_used_ + bytes > dev.pool_capacity()) {
    return nullptr;
  }
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) {
    return nullptr;
  }
  dev.pool_used_ += bytes;
  dev.live_allocs_.emplace(p,
                           device_state::alloc_info{bytes, dev.alloc_seq_++});
  return p;
}

void platform::pool_unreserve(int devidx, void* p) {
  if (p == nullptr) {
    return;
  }
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  auto it = dev.live_allocs_.find(p);
  if (it == dev.live_allocs_.end()) {
    throw std::logic_error("cudasim: pool_unreserve of unknown pointer");
  }
  dev.pool_used_ -= it->second.bytes;
  dev.live_allocs_.erase(it);
  std::free(p);
}

bool platform::pool_charge(int devidx, std::size_t bytes) {
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  if (dev.pool_used_ + bytes > dev.pool_capacity()) {
    return false;
  }
  dev.pool_used_ += bytes;
  return true;
}

void platform::pool_discharge(int devidx, std::size_t bytes) {
  std::lock_guard lock(mu_);
  device_state& dev = device(devidx);
  if (dev.pool_used_ < bytes) {
    throw std::logic_error("cudasim: pool_discharge underflow");
  }
  dev.pool_used_ -= bytes;
}

void platform::set_fault_injector(std::shared_ptr<fault_injector> fi) {
  std::lock_guard lock(mu_);
  injector_ = std::move(fi);
  has_injector_.store(injector_ != nullptr, std::memory_order_release);
  faults_armed_.store(injector_ != nullptr || any_device_failed_,
                      std::memory_order_release);
}

fault_injector& platform::ensure_fault_injector() {
  std::lock_guard lock(mu_);
  if (!injector_) {
    injector_ = std::make_shared<fault_injector>();
  }
  has_injector_.store(true, std::memory_order_release);
  faults_armed_.store(true, std::memory_order_release);
  return *injector_;
}

sim_status platform::poll_faults_locked(op_category cat, int device) {
  if (!injector_) {
    return sim_status::success;
  }
  pending_flip_ = {};  // a flip armed on a refused earlier op is dropped
  const sim_status st = injector_->on_op(cat, device, tl_.now(), *this);
  flip_request fr;
  if (injector_->take_flip(&fr)) {
    if (!copy_payloads_) {
      // Timing-only runs carry no meaningful payload bytes to corrupt.
    } else if (fr.site == flip_site::resident) {
      apply_resident_flip_locked(fr);
    } else {
      pending_flip_ = fr;
    }
  }
  // Stalls stay pending until an engine op absorbs them (sticky across
  // polls, unlike flips): a stall armed during stream capture has no DES
  // node to land on and rides forward to the eventual graph launch.
  stall_request sr;
  if (injector_->take_stall(&sr)) {
    pending_stall_ = sr;
    stall_pending_ = true;
  }
  return st;
}

bool platform::take_pending_stall(stall_request* out) {
  if (!stall_pending_) {
    return false;
  }
  *out = pending_stall_;
  pending_stall_ = {};
  stall_pending_ = false;
  return true;
}

void platform::apply_stall_locked(op_node* n, const stall_request& sr) {
  if (n == nullptr) {
    return;
  }
  if (sr.permanent) {
    n->stall_permanent = true;
  } else {
    n->stalled = true;
    n->duration += sr.seconds;
  }
  // Victims that completed since the last stall are dropped here, so the
  // list stays bounded by the stalls still live.
  std::erase_if(stalled_ops_, [](const node_ref& r) { return r.done(); });
  stalled_ops_.emplace_back(n);
}

platform::stall_info platform::cancel_stalled_op(node_ref prefer) {
  std::lock_guard lock(mu_);
  stall_info info;
  const auto try_cancel = [&](const node_ref& r) {
    // A recycled victim reads as done, so its reused node is never touched.
    op_node* n = r.node;
    if (r.done() || !tl_.cancel(n)) {
      return false;  // e.g. still waiting on predecessors
    }
    info.found = true;
    info.id = n->id;
    info.name = n->name;
    info.device = n->device;
    info.node = r;
    return true;
  };
  if (prefer.node != nullptr) {
    for (const node_ref& r : stalled_ops_) {
      if (r == prefer && try_cancel(r)) {
        return info;
      }
    }
  }
  for (const node_ref& r : stalled_ops_) {
    if (try_cancel(r)) {
      return info;
    }
  }
  return info;
}

std::size_t platform::drain_window(timepoint t_limit) {
  std::lock_guard lock(mu_);
  return tl_.drain_until_time(t_limit);
}

bool platform::drain_one() {
  std::lock_guard lock(mu_);
  return tl_.drain_one();
}

void platform::advance_clock(timepoint t) {
  std::lock_guard lock(mu_);
  tl_.advance_now(t);
}

std::uint64_t platform::live_ops() const {
  std::lock_guard lock(mu_);
  return tl_.live_count();
}

std::string platform::stuck_report() const {
  std::lock_guard lock(mu_);
  return tl_.stuck_report();
}

void platform::apply_resident_flip_locked(const flip_request& fr) {
  if (fr.device < 0 || fr.device >= device_count()) {
    return;
  }
  device_state& dev = device(fr.device);
  void* p = nullptr;
  std::size_t len = 0;
  // Applied immediately: at-rest aging needs no stream ordering, and a
  // pointer still present in live_allocs_ has not had free_async submitted,
  // so its backing is alive. Deferring to a DES node would race the
  // deferred std::free bodies.
  if (pick_live_alloc(dev.live_allocs_, fr.seed, &p, &len)) {
    flip_payload_byte(p, len, fr.seed);
  }
}

bool platform::take_pending_flip(flip_request* out) {
  if (pending_flip_.site == flip_site::none) {
    return false;
  }
  *out = pending_flip_;
  pending_flip_ = {};
  return true;
}

void platform::set_output_hints(std::vector<byte_span> spans) {
  std::lock_guard lock(mu_);
  output_hints_ = std::move(spans);
}

void platform::clear_output_hints() {
  std::lock_guard lock(mu_);
  output_hints_.clear();
}

void platform::fail_device(int dev) {
  std::lock_guard lock(mu_);
  device(dev).failed_ = true;
  any_device_failed_ = true;
  faults_armed_.store(true, std::memory_order_release);
}

bool platform::device_failed(int dev) const {
  std::lock_guard lock(mu_);
  return device(dev).failed_;
}

bool platform::consume_injected_alloc_failure() {
  std::lock_guard lock(mu_);
  const bool was = alloc_fault_pending_;
  alloc_fault_pending_ = false;
  return was;
}

void platform::maybe_drain_locked() {
  if (tl_.live_count() > 100000) {
    tl_.drain();
    tl_.gc();
  }
}

void platform::stream_synchronize(stream& s) {
  std::lock_guard lock(mu_);
  op_node* last = s.last();
  if (last == nullptr) {
    return;
  }
  if (!last->done.load(std::memory_order_relaxed)) {
    tl_.drain_until(last);
  }
  tl_.gc();
}

void platform::synchronize(node_ref until) {
  std::lock_guard lock(mu_);
  op_node* n = until.live();
  if (n != nullptr && !n->done.load(std::memory_order_relaxed)) {
    tl_.drain_until(n);
  }
}

void platform::synchronize() {
  std::lock_guard lock(mu_);
  tl_.drain();
  tl_.gc();
}

namespace {
std::shared_ptr<platform>& default_slot() {
  static std::shared_ptr<platform> p;
  return p;
}
}  // namespace

platform& default_platform() {
  auto& slot = default_slot();
  if (!slot) {
    slot = std::make_shared<platform>(1, a100_desc());
  }
  return *slot;
}

std::shared_ptr<platform> set_default_platform(std::shared_ptr<platform> p) {
  auto& slot = default_slot();
  std::shared_ptr<platform> prev = slot;
  slot = std::move(p);
  return prev;
}

scoped_platform::scoped_platform(int num_devices, const device_desc& desc)
    : mine_(std::make_shared<platform>(num_devices, desc)) {
  previous_ = set_default_platform(mine_);
}

scoped_platform::~scoped_platform() {
  try {
    mine_->synchronize();
  } catch (...) {
    // A throwing kernel body can leave the timeline unfinishable; the
    // platform is being torn down anyway, so absorb the failure rather
    // than terminating during unwinding.
  }
  set_default_platform(previous_);
}

}  // namespace cudasim
