// Simulated CUDA Graphs: build a template of asynchronous operations once,
// instantiate it into an executable graph, update it in place when only
// parameters changed, and launch it many times at a reduced per-node cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cudasim/platform.hpp"

namespace cudasim {

/// A graph template (cudaGraph_t). Cheap to build; cannot execute directly.
class graph {
 public:
  explicit graph(platform& p) : plat_(&p) {}

  graph_node add_empty_node(const std::vector<graph_node>& deps);
  graph_node add_kernel_node(const std::vector<graph_node>& deps, int device,
                             const kernel_desc& k, std::function<void()> body);
  graph_node add_memcpy_node(const std::vector<graph_node>& deps, void* dst,
                             const void* src, std::size_t bytes,
                             memcpy_kind kind, int device);
  /// Cross-device peer copy node (cudaGraphAddMemcpyNode with distinct
  /// endpoints): lowered exactly like platform::memcpy_peer_async, so it
  /// occupies copy_out on `src_device` and copy_in on `dst_device` in
  /// parallel. Same-device calls degrade to a plain device_to_device
  /// memcpy node.
  graph_node add_memcpy_peer_node(const std::vector<graph_node>& deps,
                                  void* dst, int dst_device, const void* src,
                                  int src_device, std::size_t bytes);
  /// Graph-ordered allocation (cudaGraphAddMemAllocNode). The buffer is
  /// carved from the device pool when the node is added and returned
  /// immediately, mirroring CUDA's eager virtual-address assignment.
  /// Returns nullptr if the pool capacity would be exceeded.
  graph_node add_mem_alloc_node(const std::vector<graph_node>& deps, int device,
                                std::size_t bytes, void** out_ptr);
  graph_node add_mem_free_node(const std::vector<graph_node>& deps, int device,
                               void* ptr);
  graph_node add_host_node(const std::vector<graph_node>& deps,
                           std::function<void()> fn, double cost = 0.0);
  /// The one way a node enters the template: every add_*_node above and
  /// the platform's stream capture call it. Reserves a mem_alloc node's
  /// buffer (written back to `op.dst`; an invalid handle when the pool is
  /// exhausted) and checks that a mem_free node targets one.
  graph_node add(const std::vector<graph_node>& deps, sim_op& op,
                 std::function<void()> body = {});

  std::size_t node_count() const { return nodes_.size(); }
  platform& owner() const { return *plat_; }

  /// Releases pool space still held by alloc nodes without matching free
  /// nodes. Called by the owner when the graph is abandoned un-launched.
  void release_resources();

 private:
  friend class graph_exec;
  struct node {
    sim_op op;  // op.k is null: the kernel lives in kdesc
    std::vector<std::uint32_t> deps;
    kernel_desc kdesc;
    std::function<void()> body;  // kernel or host payload
  };

  platform* plat_;
  std::vector<node> nodes_;
  /// Buffers carved out by add_mem_alloc_node, owned by this template until
  /// release_resources() (or destruction) returns them to the pool.
  std::vector<std::pair<int, void*>> owned_allocs_;

 public:
  ~graph() { release_resources(); }
  graph(graph&& other) noexcept
      : plat_(other.plat_),
        nodes_(std::move(other.nodes_)),
        owned_allocs_(std::move(other.owned_allocs_)) {
    other.owned_allocs_.clear();
  }
  graph(const graph&) = delete;
  graph& operator=(const graph&) = delete;
  graph& operator=(graph&&) = delete;
};

/// An executable graph (cudaGraphExec_t).
class graph_exec {
 public:
  /// Instantiates `g` (cudaGraphInstantiate). Relatively expensive; prefer
  /// update() when a structurally identical graph is re-issued.
  explicit graph_exec(const graph& g);

  /// Attempts cudaGraphExecUpdate semantics: if `g` has the same topology
  /// (node count, kinds, dependency structure), swaps in its parameters and
  /// returns true. Otherwise leaves this exec untouched and returns false.
  /// Roughly an order of magnitude cheaper than instantiation.
  bool update(const graph& g);

  /// Enqueues one execution of the graph behind prior work on `s`: one
  /// fault gate for the whole launch, then every node lowered by
  /// platform::lower, as its stream entry point would, except that the
  /// per-node launch overhead is the device's graph_node_latency.
  void launch(stream& s);

  std::size_t node_count() const { return nodes_.size(); }

  /// Modelled host-side cost of the last instantiate/update, charged by
  /// callers that account for host overhead on the submission path.
  double last_build_cost_seconds() const { return last_build_cost_; }
  std::uint64_t launches() const { return launches_; }

 private:
  platform* plat_;
  std::vector<graph::node> nodes_;
  double last_build_cost_ = 0.0;
  std::uint64_t launches_ = 0;
};

}  // namespace cudasim
