#include "cudasim/graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "cudasim/stream.hpp"

namespace cudasim {

namespace {
constexpr double instantiate_cost_per_node = 5.0e-6;  // seconds of host time
constexpr double update_cost_per_node = 0.5e-6;       // ~10x cheaper (paper §III-B)
}  // namespace

graph_node graph::add(const std::vector<graph_node>& deps, sim_op& op,
                      std::function<void()> body) {
  if (op.kind == op_kind::mem_alloc) {
    op.dst = plat_->pool_reserve(op.device, op.bytes);
    if (op.dst == nullptr) {
      return graph_node{};  // pool exhausted
    }
    owned_allocs_.emplace_back(op.device, op.dst);
  } else if (op.kind == op_kind::mem_free &&
             std::none_of(owned_allocs_.begin(), owned_allocs_.end(),
                          [&](const auto& a) { return a.second == op.dst; })) {
    throw std::logic_error(
        "cudasim: graph mem-free node must target a graph-allocated buffer");
  } else if (op.kind == op_kind::memcpy && op.peer == op.device) {
    op.peer = -1;  // a same-device peer copy is a plain device_to_device one
  }
  node n{op, {}, op.k != nullptr ? *op.k : kernel_desc{}, std::move(body)};
  n.op.k = nullptr;
  n.op.flip = false;  // a captured flip is a host node of its own
  n.deps.reserve(deps.size());
  for (graph_node d : deps) {
    if (!d.valid()) {
      throw std::invalid_argument("cudasim: invalid graph node handle");
    }
    if (d.index >= nodes_.size()) {
      throw std::out_of_range("cudasim: graph dependency on unknown node");
    }
    n.deps.push_back(d.index);
  }
  nodes_.push_back(std::move(n));
  return graph_node{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

graph_node graph::add_empty_node(const std::vector<graph_node>& deps) {
  sim_op op;
  return add(deps, op);
}

graph_node graph::add_kernel_node(const std::vector<graph_node>& deps,
                                  int device, const kernel_desc& k,
                                  std::function<void()> body) {
  sim_op op{.kind = op_kind::kernel, .device = device, .k = &k};
  return add(deps, op, std::move(body));
}

graph_node graph::add_memcpy_node(const std::vector<graph_node>& deps, void* dst,
                                  const void* src, std::size_t bytes,
                                  memcpy_kind kind, int device) {
  sim_op op{.kind = op_kind::memcpy, .device = device, .dst = dst, .src = src,
            .bytes = bytes, .ckind = kind};
  return add(deps, op);
}

graph_node graph::add_memcpy_peer_node(const std::vector<graph_node>& deps,
                                       void* dst, int dst_device,
                                       const void* src, int src_device,
                                       std::size_t bytes) {
  sim_op op{.kind = op_kind::memcpy, .device = src_device, .peer = dst_device,
            .dst = dst, .src = src, .bytes = bytes};
  return add(deps, op);
}

graph_node graph::add_mem_alloc_node(const std::vector<graph_node>& deps,
                                     int device, std::size_t bytes,
                                     void** out_ptr) {
  sim_op op{.kind = op_kind::mem_alloc, .device = device, .bytes = bytes};
  const graph_node n = add(deps, op);
  *out_ptr = op.dst;
  return n;
}

graph_node graph::add_mem_free_node(const std::vector<graph_node>& deps,
                                    int device, void* ptr) {
  sim_op op{.kind = op_kind::mem_free, .device = device, .dst = ptr};
  return add(deps, op);
}

graph_node graph::add_host_node(const std::vector<graph_node>& deps,
                                std::function<void()> fn, double cost) {
  sim_op op{.kind = op_kind::host, .cost = cost};
  return add(deps, op, std::move(fn));
}

void graph::release_resources() {
  for (auto& [dev, ptr] : owned_allocs_) {
    plat_->pool_unreserve(dev, ptr);
  }
  owned_allocs_.clear();
}

graph_exec::graph_exec(const graph& g) : plat_(&g.owner()), nodes_(g.nodes_) {
  last_build_cost_ = instantiate_cost_per_node * static_cast<double>(nodes_.size());
}

bool graph_exec::update(const graph& g) {
  if (&g.owner() != plat_ || g.nodes_.size() != nodes_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const graph::node& a = nodes_[i];
    const graph::node& b = g.nodes_[i];
    if (a.op.kind != b.op.kind || a.op.device != b.op.device ||
        a.op.peer != b.op.peer || a.deps != b.deps) {
      return false;
    }
  }
  nodes_ = g.nodes_;  // parameter swap (kernel args, copy endpoints, bodies)
  last_build_cost_ = update_cost_per_node * static_cast<double>(nodes_.size());
  return true;
}

void graph_exec::launch(stream& s) {
  if (s.capturing()) {
    throw std::logic_error("cudasim: launching an exec graph during capture");
  }
  std::lock_guard lock(plat_->mutex());
  // One whole-graph launch is a single kernel-category submission for the
  // fault injector, refused whole when any node touches a failed device: a
  // refused launch enqueues none of the nodes.
  const auto failed = [&](int d) { return d >= 0 && plat_->device(d).failed(); };
  if (!plat_->gate_locked(s, op_category::kernel, [&] {
        return failed(s.device()) ||
               std::any_of(nodes_.begin(), nodes_.end(), [&](const auto& n) {
                 return failed(n.op.device) || failed(n.op.peer);
               });
      })) {
    return;
  }
  std::vector<op_node*> lowered(nodes_.size(), nullptr);
  std::vector<bool> has_succ(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const graph::node& n = nodes_[i];
    sim_op op = n.op;
    op.k = &n.kdesc;
    if (op.device < 0) {
      op.device = s.device();
    }
    lowered[i] = plat_->lower(op, n.body,
                              {.tail = s.last(), .graph = true,
                               .deps = &n.deps, .lowered = lowered.data()});
    for (std::uint32_t d : n.deps) {
      has_succ[d] = true;
    }
  }

  // Join all sink nodes so stream order continues after the whole graph.
  timeline& tl = plat_->tl();
  op_node* join = tl.make_node("graph.join", s.device(), nullptr, 0.0);
  timeline::add_dep(s.last(), join);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!has_succ[i]) {
      timeline::add_dep(lowered[i], join);
    }
  }
  s.set_last(join);
  tl.submit(join);
  ++launches_;
}

}  // namespace cudasim
