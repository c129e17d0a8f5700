// ctx.launch(spec, where, deps...)->*body (§V): dispatches a lambda for
// collective execution by a structured thread hierarchy, possibly spanning
// several devices (Fig. 6). The body receives a thread_hierarchy handle and
// one typed view per dependency.
//
// Like the other builders, this one only lowers through the shared
// builder_core (DESIGN.md §13). The construct-specific parts kept here are
// the hierarchy sub-launches and the launch cost model.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <tuple>

#include "cudastf/hierarchy.hpp"
#include "cudastf/parallel_for.hpp"
#include "cudastf/task.hpp"

namespace cudastf {

template <class... Deps>
class [[nodiscard]] launch_builder {
 public:
  launch_builder(std::shared_ptr<context_state> st, hierarchy_spec spec,
                 exec_place where, Deps... deps)
      : core_{std::move(st), std::move(where), {std::move(deps)...}},
        spec_(spec) {}

  launch_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }
  /// Cost model override: total FLOPs across the whole launch.
  launch_builder&& set_flops(double f) && {
    flops_ = f;
    return std::move(*this);
  }
  /// Arms a virtual-time deadline (seconds) for this submission: if it is
  /// still incomplete past the deadline the wedged op is cancelled and the
  /// hang escalated (DESIGN.md §12).
  launch_builder&& deadline(double seconds) && {
    deadline_ = seconds;
    return std::move(*this);
  }

  /// Structured constructs span grids / composite places: always
  /// structural (DESIGN.md §11).
  template <class Fn>
  void operator->*(Fn&& fn) && {
    core_.submit(
        *this, fn,
        {.kind = op_kind::launch, .symbol = &symbol_, .deadline = deadline_},
        [](detail::submit_pipeline& pipe, detail::op_hooks& h) {
          pipe.execute_grid(h);
        });
  }

 private:
  friend struct detail::builder_core<Deps...>;

  /// Builds and submits the sub-launch of device shard `a.i`.
  template <class Fn, class Views>
  void run_shard(const detail::shard_args& a, Fn& fn, Views& views) {
    const auto ndev = static_cast<int>(a.ndev);
    cudasim::kernel_desc k;
    k.name = symbol_;
    k.flops = flops_ / efficiency_ / ndev;
    // Traffic model: each device touches the blocked 1/ndev share of each
    // dependency — consistent with the default partitioning strategy the
    // hierarchy applies (§V-3) and the composite page mapping (§VI-B).
    const double f0 = static_cast<double>(a.i) / ndev;
    const double f1 = static_cast<double>(a.i + 1) / ndev;
    detail::add_all_traffic(k, a.resolved, core_.deps, f0, f1, a.devices[a.i],
                            core_.seq);
    k.bytes /= efficiency_;
    cudasim::platform* plat = core_.st->plat;
    const int rank = static_cast<int>(a.i);
    // By value: the body runs at drain time, after this frame is gone.
    std::function<void()> body = plat->kernel_body(
        [fn, views, spec = spec_, rank, ndev]() mutable {
          run_hierarchy(spec, rank, ndev, [&](thread_hierarchy& th) {
            std::apply([&](auto&... v) { fn(th, v...); }, views);
          });
        });
    auto payload = [plat, k, body](cudasim::stream& s) {
      plat->launch_kernel(s, k, body);
    };
    a.pipe.run_shard(a.devices[a.i], a.ready, payload, a.done, a.rr);
  }

  detail::builder_core<Deps...> core_;
  hierarchy_spec spec_;
  std::string symbol_ = "launch";
  double deadline_ = 0.0;
  double flops_ = 0.0;
  double efficiency_ = 0.90;
};

/// Device-side atomic add usable from launch bodies running on concurrent
/// host threads (the port of CUDA's atomicAdd in Fig. 6).
template <class T>
T atomic_add(T* addr, T value) {
  std::atomic_ref<T> ref(*addr);
  return ref.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace cudastf
